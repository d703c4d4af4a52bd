"""The flow kernels and DOP853 sums in their plain numpy form: the field
kernels, the stage sum with real weights and the two-pass error norm, as
``diospec.dynamics`` wrote them before it cut its per-call numpy overhead.

``test_dynamics_bits.py`` holds the library's kernels to these bit for bit,
on the machine the tests run on, so that no pinned value from another
machine is needed.  The twin takes no arithmetic from the library: the
differences, the coefficient rate, p'(z) at the zeros and the Vieta
recurrence are written out here, so an edit that moves a bit of the
library's own helpers shows against them.
"""

from __future__ import annotations

import math

import numpy as np

from diospec.dynamics import _E3, _E5, _STAGE_WEIGHTS, COLLISION_FLOOR
from diospec.errors import NearCollision

__all__ = ["FIELDS", "error_norm", "stage_sums"]


def differences(values: np.ndarray):
    """v_i - v_j along the last axis as (..., N, N), with an infinite
    diagonal, and the separation min_{i != j} |v_i - v_j| of each block."""
    n = values.shape[-1]
    diff = values[..., :, None] - values[..., None, :]
    diff[..., np.arange(n), np.arange(n)] = np.inf
    return diff, np.min(np.abs(diff), axis=(-2, -1))


def coefficient_rate(values: np.ndarray, diff: np.ndarray, order: int) -> np.ndarray:
    """The coefficient flow's velocity (order 1) or acceleration (order 2)."""
    inv = 1.0 / diff
    if order == 1:
        return 1j * (values - np.sum(inv, axis=1))
    return -values + 2.0 * np.sum(inv ** 3, axis=1)


def derivative_at_zeros(diff: np.ndarray) -> np.ndarray:
    """p'(z_m), the product of the off-diagonal row m of ``differences``."""
    n = diff.shape[-1]
    return np.prod(diff[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)


def vieta(zeros: np.ndarray) -> list:
    """Trailing coefficients of prod (x - z_n), by the triangular recurrence."""
    e = [1.0] + [0.0] * zeros.size
    for i, z in enumerate(zeros.tolist(), start=1):
        for k in range(i, 0, -1):
            e[k] -= z * e[k - 1]
    return e[1:]


def diff_gap(values: np.ndarray, *names: str):
    if values.shape[-1] < 2:
        raise ValueError(f"{names[0]} needs at least two components")
    diff, gaps = differences(values)
    for name, gap in zip(names, gaps.flat):
        if gap < COLLISION_FLOOR:
            raise NearCollision(f"{name} separation {gap:.3e} below {COLLISION_FLOOR}")
    return diff, gaps


def gamma_rate(gamma: np.ndarray, order: int):
    diff, gap = diff_gap(gamma, "gamma")
    return coefficient_rate(gamma, diff, order), gap


def zeta_rate(zeta: np.ndarray, order: int, zeta_dot=None):
    stack = np.array([zeta, vieta(zeta)])
    if not np.logical_and.reduce(np.isfinite(stack[1])):
        raise ValueError("coefficients must have finite components")
    diff, (gap, _) = diff_gap(stack, "zeta", "gamma")
    rate = coefficient_rate(stack[1], diff[1], order)
    transport = np.zeros(zeta.size, dtype=complex)
    for c in rate.tolist():
        transport *= zeta
        transport += c
    field = -transport / derivative_at_zeros(diff[0])
    if zeta_dot is None:
        return field, gap
    return 2.0 * zeta_dot * np.add.reduce(zeta_dot / diff[0], axis=1) + field, gap


def packed(y: np.ndarray, n: int, accel_gap):
    return np.concatenate([y[n:], accel_gap[0]]), accel_gap[1]


FIELDS = {
    "gamma1": lambda y, n: gamma_rate(y, 1),
    "zeta1": lambda y, n: zeta_rate(y, 1),
    "gamma2": lambda y, n: packed(y, n, gamma_rate(y[:n], 2)),
    "zeta2": lambda y, n: packed(y, n, zeta_rate(y[:n], 2, y[n:])),
}


def stage_sums(y: np.ndarray, stages: np.ndarray, h: float) -> list:
    """The twelve stage-sum prefixes of a step of size h from y: prefix i
    weights y by 1 and stages 0..i by row i of h _STAGE_WEIGHTS, a real
    (13, 1) column broadcast over the complex table.  Prefixes 0..10 are the
    states of stages 1..11, and prefix 11 is the eighth-order solution."""
    table = np.vstack((y[None], stages))
    weights = np.ones((12, 13, 1))
    weights[:, 1:, 0] = h * _STAGE_WEIGHTS
    return [np.add.reduce(weights[i, :i + 2] * table[:i + 2], axis=0) for i in range(12)]


def error_norm(stages: np.ndarray, scale: np.ndarray, h: float) -> float:
    e5 = np.abs(np.add.reduce(_E5[:, None] * stages, axis=0)) / scale
    e3 = np.abs(np.add.reduce(_E3[:, None] * stages, axis=0)) / scale
    e5_sq = np.add.reduce(e5 * e5)
    if e5_sq == 0.0:
        return 0.0
    return h * e5_sq / math.sqrt((e5_sq + 0.01 * np.add.reduce(e3 * e3)) * scale.size)
