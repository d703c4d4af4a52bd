"""Shared fixtures: the per-order sweep cache used by several test modules."""

import math
from collections import namedtuple

import numpy as np
import pytest

from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial
from diospec.polynomials import ZeroVector, roots_stack

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


@pytest.fixture(scope="session")
def ordering_sweep():
    return sweep_records
