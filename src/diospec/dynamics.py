"""The four isochronous flows, adaptive integration, finite-difference
Jacobians, and modal (linearised) evolution.

Two companion pictures of the same dynamics are integrated here.  In the
coefficient picture ("gamma" systems) the state is the coefficient vector of
a monic polynomial; in the zero picture ("zeta" systems) it is the ordered
zero vector of that polynomial, with the coefficients recovered through the
Vieta map whenever the flow needs them.  Every solution of all four flows is
periodic with period 2*pi, which is what the integration tests certify; the
zero vector of a stationary coefficient configuration is an equilibrium of
the corresponding zeta flow.

A state is one packed complex vector: the N positions, followed for the
second-order systems by the N velocities.  ``vector_field`` evaluates any of
the four flows on such a state through the same kernels ``integrate`` steps
with, and ``fd_jacobian`` differentiates the zero-picture velocity and the
zero-velocity acceleration.

First-order pair:

    d gamma_m / dt = i [gamma_m - sum_{l != m} 1/(gamma_m - gamma_l)]
    d zeta_n / dt  = -(sum_m d gamma_m/dt * zeta_n^(N-m))
                     / prod_{l != n} (zeta_n - zeta_l)

Second-order pair (goldfish velocity coupling in the zero picture):

    d2 gamma_m / dt2 = -gamma_m + 2 sum_{l != m} 1/(gamma_m - gamma_l)^3
    d2 zeta_n / dt2  = sum_{l != n} 2 zdot_n zdot_l / (zeta_n - zeta_l)
                       - (sum_m d2 gamma_m/dt2 * zeta_n^(N-m))
                       / prod_{l != n} (zeta_n - zeta_l)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CollisionAbort,
    DegenerateSpectrum,
    DimensionMismatch,
    NearCollision,
    NonConvergence,
    StepFloorReached,
)
from .matrices import KIND_M1, KIND_M2, DiophantineMatrix
from .polynomials import (_set_diagonals, as_complex_vector, check_positive, esp_table,
                          pairwise_separation)

__all__ = [
    "SYSTEMS",
    "COLLISION_FLOOR",
    "STEP_FLOOR",
    "TrajectoryRecord",
    "vector_field",
    "integrate",
    "central_difference_jacobian",
    "check_fd_step",
    "fd_jacobian",
    "linear_evolution_first",
    "linear_evolution_second",
]

SYSTEMS = ("gamma1", "zeta1", "gamma2", "zeta2")

COLLISION_FLOOR = 1e-10
STEP_FLOOR = 1e-12

_FD_STEP_RANGE = (1e-8, 1e-4)

# Pairwise eigenvalue gap, relative to the spectrum scale, below which the
# eigenvectors no longer form a trustworthy modal basis.
_GAP_FLOOR = 1e-6


@dataclass(frozen=True)
class TrajectoryRecord:
    """One integrated trajectory: samples at the accepted steps (final time
    hit exactly), step acceptance statistics, and the smallest pairwise
    separation seen among the position components."""

    system: str
    samples: list
    step_stats: tuple
    min_separation_seen: float

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1]

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])


def _diff_gap(values: np.ndarray, what: str):
    """Pairwise differences v_m - v_l with an infinite diagonal, so that
    dividing by them leaves a zero diagonal, and their smallest modulus, the
    separation; raises NearCollision when that lies below COLLISION_FLOOR."""
    if values.size < 2:
        raise ValueError(f"{what} needs at least two components")
    diff = _set_diagonals(values[:, None] - values[None, :], np.inf)
    gap = np.minimum.reduce(np.abs(diff), axis=None)
    if gap < COLLISION_FLOOR:
        raise NearCollision(f"{what} separation {gap:.3e} below {COLLISION_FLOOR}")
    return diff, gap


@functools.lru_cache(maxsize=None)
def _off_diagonal(n: int) -> np.ndarray:
    """Flat indices of the off-diagonal entries of an (n, n) matrix, by row."""
    return np.flatnonzero(~np.eye(n, dtype=bool)).reshape(n, n - 1)


def _gamma_rate(gamma: np.ndarray, order: int):
    """Velocity (order 1) or acceleration (order 2) of the coefficient flow,
    from the sums over l != m of 1/(gamma_m - gamma_l)^(2 order - 1)."""
    diff, gap = _diff_gap(gamma, "gamma")
    inv = 1.0 / diff
    if order == 1:
        return 1j * (gamma - np.add.reduce(inv, axis=1)), gap
    return -gamma + 2.0 * np.add.reduce(inv ** 3, axis=1), gap


def _zeta_rate(zeta: np.ndarray, order: int, zeta_dot=None):
    """Coefficient-flow rate at the Vieta coefficients of zeta, transported to
    zero space: component n is -(sum_m rate_m zeta_n^(N-m)) / prod_{l != n}
    (zeta_n - zeta_l).  ``zeta_dot`` adds the goldfish coupling
    2 zdot_n zdot_l / (zeta_n - zeta_l) from the same difference matrix."""
    diff, gap = _diff_gap(zeta, "zeta")
    coefficients = esp_table(-zeta)[1:]
    if not np.logical_and.reduce(np.isfinite(coefficients)):
        raise ValueError("coefficients must have finite components")
    rate, _ = _gamma_rate(coefficients, order)
    # Horner's rule in place, with np.polyval's arithmetic.
    transport = np.zeros(zeta.size, dtype=complex)
    for c in rate.tolist():
        transport *= zeta
        transport += c
    field = -transport / np.multiply.reduce(diff.take(_off_diagonal(zeta.size)), axis=1)
    if zeta_dot is None:
        return field, gap
    return 2.0 * zeta_dot * np.add.reduce(zeta_dot / diff, axis=1) + field, gap


def _packed(y: np.ndarray, n: int, accel_gap):
    """Field of a second-order state y from its (acceleration, gap)."""
    return np.concatenate([y[n:], accel_gap[0]]), accel_gap[1]


# Fields of the packed state y (n positions, then any velocities), which the
# caller has checked finite.  Each kernel returns (rate, gap): the time
# derivative and the separation of the positions it was evaluated at.
_FIELDS = {
    "gamma1": lambda y, n: _gamma_rate(y, 1),
    "zeta1": lambda y, n: _zeta_rate(y, 1),
    "gamma2": lambda y, n: _packed(y, n, _gamma_rate(y[:n], 2)),
    "zeta2": lambda y, n: _packed(y, n, _zeta_rate(y[:n], 2, y[n:])),
}


def _check_system(system: str) -> None:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def vector_field(system: str, y) -> np.ndarray:
    """Time derivative of the packed state y under one of the four flows.

    First-order systems take y as the N positions and return their velocity.
    Second-order systems take the N positions followed by the N velocities
    and return (velocities, accelerations), so the acceleration at rest is
    the second half of ``vector_field(system, [z, 0])``.  Raises
    NearCollision when the positions, or for the zeta flows their Vieta
    coefficients, nearly coincide.
    """
    _check_system(system)
    yy = as_complex_vector(y, "y")
    n = yy.size
    if system.endswith("2"):
        if n % 2:
            raise DimensionMismatch(f"second-order state has odd length {n}")
        n //= 2
    return _FIELDS[system](yy, n)[0]


# Dormand-Prince 5(4) tableau: row i of _DP_A weights the stages feeding
# stage i; the last row is the fifth-order solution (first-same-as-last).
# Stage sums multiply and add row by row in a fixed order, not through a
# BLAS product, so trajectories do not depend on the BLAS kernel.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_ERR = (_DP_A[6] - _DP_B4)[:, None]


def integrate(system: str, initial, t_end: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-12, max_steps: int = 2_000_000) -> TrajectoryRecord:
    """Adaptive Dormand-Prince 5(4) integration of one of the four flows.

    Second-order systems integrate as doubled first-order systems (positions
    then velocities).  The final accepted step lands on ``t_end`` exactly.
    Steps whose stage evaluations raise NearCollision are rejected and the
    step is halved; halving below 1e-12 raises CollisionAbort, while ordinary
    error control shrinking the step below the same floor raises
    StepFloorReached.
    """
    for name, value in (("t_end", t_end), ("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        check_positive(name, value)
    _check_system(system)

    # Validate and copy the start once; the steps work on raw arrays.
    if system.endswith("1"):
        y = as_complex_vector(initial, "initial").copy()
        n_pos = y.size
    else:
        pos, vel = initial
        pos = as_complex_vector(pos, "initial position")
        vel = as_complex_vector(vel, "initial velocity")
        if pos.size != vel.size:
            raise DimensionMismatch("position and velocity lengths differ")
        y = np.concatenate([pos, vel])
        n_pos = pos.size
    field = _FIELDS[system]
    t = 0.0
    samples = [(0.0, y)]
    accepted = rejected = 0

    stages = np.empty((7, y.size), dtype=complex)
    # Each stage's weights, as a column, and the earlier stages they weight.
    stage_terms = [(_DP_A[i, :i, None], stages[:i]) for i in range(1, 7)]
    try:
        stages[0], min_sep = field(y, n_pos)
    except NearCollision as exc:  # a collision at the start is not recoverable
        raise CollisionAbort(str(exc)) from exc
    h = min(t_end, 1e-2)

    for _ in range(max_steps):
        if t >= t_end:
            break
        final_step = h >= t_end - t
        if final_step:
            h = t_end - t

        try:
            for i, (weights, earlier) in enumerate(stage_terms, start=1):
                y_stage = y + h * np.add.reduce(weights * earlier, axis=0)
                if not np.logical_and.reduce(np.isfinite(y_stage)):
                    raise ValueError("state must have finite components")
                stages[i], gap = field(y_stage, n_pos)
        except NearCollision:
            rejected += 1
            h *= 0.5
            if h < STEP_FLOOR:
                raise CollisionAbort(
                    f"collision pressure drove the step below {STEP_FLOOR} at t={t:.6f}")
            continue

        err_vec = h * np.add.reduce(_DP_ERR * stages, axis=0)
        scaled = np.abs(err_vec) / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_stage)))
        err = math.sqrt(np.add.reduce(scaled * scaled) / scaled.size)

        if err <= 1.0:
            t = t_end if final_step else t + h
            y = y_stage  # the last stage point is the fifth-order solution
            stages[0] = stages[6]
            samples.append((t, y))
            accepted += 1
            # The last stage was evaluated at the accepted state.
            min_sep = min(min_sep, gap)
            grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= grow
        else:
            rejected += 1
            h *= max(0.1, 0.9 * err ** -0.2)
            if h < STEP_FLOOR:
                raise StepFloorReached(
                    f"error control drove the step below {STEP_FLOOR} at t={t:.6f}")
    else:
        raise StepFloorReached(f"step budget {max_steps} exhausted at t={t:.6f}")

    return TrajectoryRecord(system, samples, (accepted, rejected), float(min_sep))


def central_difference_jacobian(field: Callable[[np.ndarray], np.ndarray],
                                z, h: float) -> np.ndarray:
    """Column m is (field(z + h e_m) - field(z - h e_m)) / (2h)."""
    zz = as_complex_vector(z, "z")
    n = zz.size
    jac = np.empty((n, n), dtype=complex)
    for m in range(n):
        bump = np.zeros(n, dtype=complex)
        bump[m] = h
        jac[:, m] = (field(zz + bump) - field(zz - bump)) / (2.0 * h)
    return jac


def check_fd_step(h: float) -> None:
    """Raise ValueError unless h is a usable central-difference step."""
    lo, hi = _FD_STEP_RANGE
    if not lo <= h <= hi:
        raise ValueError(f"step h={h} outside [{lo}, {hi}]")


def fd_jacobian(system: str, z, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a zero-picture vector field at z.

    ``system`` selects the field: "zeta1" differentiates the first-order flow
    velocity (so J/i, equivalently -i J, reproduces the M1 matrix at an
    equilibrium), "zeta2_force" differentiates the zero-velocity acceleration
    (so -J reproduces M2).
    """
    check_fd_step(h)
    orders = {"zeta1": 1, "zeta2_force": 2}
    if system not in orders:
        raise ValueError(f"unknown field {system!r}; expected one of {tuple(orders)}")
    order = orders[system]
    return central_difference_jacobian(lambda y: _zeta_rate(y, order)[0], z, h)


def _modal_basis(entries: np.ndarray):
    """LAPACK eigenvalues and unit-norm eigenvector columns; raises
    DegenerateSpectrum when two eigenvalues lie within the gap floor."""
    try:
        values, basis = np.linalg.eig(entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigen-decomposition failed: {exc}") from exc
    gap = pairwise_separation(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    if gap <= _GAP_FLOOR * scale:
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gap:.3e} below {_GAP_FLOOR} * {scale:.3e}")
    return values, basis


def linear_evolution_first(matrix: DiophantineMatrix, v0, t: float) -> np.ndarray:
    """Evolve v under dv/dt = i M v by eigen-reconstruction:
    v(t) = sum_m a_m exp(i lambda_m t) u_m with U a = v(0).

    Integer eigenvalues make every mode 2*pi-periodic, so v(2*pi) = v(0).
    """
    if matrix.kind != KIND_M1:
        raise ValueError(f"first-order evolution needs kind {KIND_M1}, got {matrix.kind}")
    v = as_complex_vector(v0, "v0")
    if v.size != matrix.n:
        raise DimensionMismatch("v0 length does not match the matrix")
    values, basis = _modal_basis(matrix.entries)
    amplitudes = np.linalg.solve(basis, v)
    return basis @ (amplitudes * np.exp(1j * values * t))


def linear_evolution_second(matrix: DiophantineMatrix, v0, vdot0, t: float) -> np.ndarray:
    """Evolve v under d2v/dt2 = -M v by eigen-reconstruction:
    v(t) = sum_m [a_m cos(w_m t) + b_m sin(w_m t)/w_m] u_m.

    The modal frequency is taken as w_m = sqrt(eigenvalue); with the
    squared-integer eigenvalues of an M2 matrix this gives integer
    frequencies, hence 2*pi-periodic modes.  Eigenvalues must have positive
    real part for the square root to define a frequency.
    """
    if matrix.kind != KIND_M2:
        raise ValueError(f"second-order evolution needs kind {KIND_M2}, got {matrix.kind}")
    v = as_complex_vector(v0, "v0")
    vd = as_complex_vector(vdot0, "vdot0")
    if v.size != matrix.n or vd.size != matrix.n:
        raise DimensionMismatch("initial vectors do not match the matrix")
    values, basis = _modal_basis(matrix.entries)
    if np.any(values.real <= 0):
        raise DegenerateSpectrum("eigenvalues with non-positive real part have no frequency")
    omega = np.sqrt(values)
    a = np.linalg.solve(basis, v)
    b = np.linalg.solve(basis, vd)
    return basis @ (a * np.cos(omega * t) + b * np.sin(omega * t) / omega)
