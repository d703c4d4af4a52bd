"""Shared fixtures and references: the per-order sweep cache used by several
test modules, the flows evaluated on one packed state, and the stacked
elementary symmetric functions and Vieta Jacobian that the tests hold the
library's closed forms to."""

import math
from collections import namedtuple

import numpy as np
import pytest

from diospec.dynamics import _FIELDS
from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial
from diospec.polynomials import ZeroVector, _off_diagonal, roots_stack

SweepRecord = namedtuple("SweepRecord", ["perm", "poly", "zeros"])

_cache = {}


def sweep_records(n):
    """Zeros of every coefficient ordering at order n, computed once per run
    by one ``roots_stack`` call on the real coefficient stack, as the
    verification sweep computes them.  The orderings come in rank order,
    from ``PermutationId.from_rank``, as the sweep builds its words."""
    if n not in _cache:
        herm = hermite_zeros(n)
        perms = [PermutationId.from_rank(n, r) for r in range(1, math.factorial(n) + 1)]
        polys = [permuted_polynomial(herm, perm) for perm in perms]
        words = np.array([perm.word for perm in perms])
        zeros, failed = roots_stack(herm.zeros[words - 1])
        assert not failed.any(), f"{failed.sum()} orderings failed at n = {n}"
        _cache[n] = [SweepRecord(perm, poly, ZeroVector(row))
                     for perm, poly, row in zip(perms, polys, zeros)]
    return _cache[n]


def field(system, y):
    """Time derivative of the packed state y (the N positions, then for a
    second-order system the N velocities) under one of the four flows, by
    the kernel ``integrate`` steps with."""
    y = np.asarray(y, dtype=complex)
    out = np.empty_like(y)
    _FIELDS[system](y, y.size // 2 if system.endswith("2") else y.size, out)
    return out


@pytest.fixture(scope="session")
def ordering_sweep():
    return sweep_records


def unconverged_eigvals(a, signature):
    """Stands in for numpy's LAPACK eigvals gufunc on a stack whose every
    matrix fails to converge: NaN eigenvalues and numpy's invalid flag
    raised, as numpy's loop reports a failed LAPACK call."""
    return np.zeros(a.shape[:-1], dtype=complex) / 0.0


def esp_table(values):
    """Elementary symmetric functions e_0..e_n of the entries along the last
    axis, by the stable triangular recurrence (one linear-factor
    multiplication per entry)."""
    n = values.shape[-1]
    e = np.zeros(values.shape[:-1] + (n + 1,), dtype=complex)
    e[..., 0] = 1.0
    for i in range(n):
        head = e[..., 1:i + 2]  # a view, updated in place
        head += values[..., i, None] * e[..., :i + 1]
    return e


def vieta_jacobian_stack(z):
    """Jacobian d c_j / d z_m of the zeros-to-coefficients map for every row
    of a (B, N) zero stack, as (B, N, N) indexed [b, j-1, m-1]: entry (j, m)
    is (-1)^j e_{j-1} of the row's zeros without z_m."""
    n = z.shape[1]
    reduced = esp_table(z[:, _off_diagonal(n) % n])
    signs = (-1.0) ** np.arange(1, n + 1)
    return signs[:, None] * reduced.transpose(0, 2, 1)
