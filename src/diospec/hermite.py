"""Hermite polynomials (physicists' convention): zeros, the two equilibrium
identities the zeros satisfy, which are the coefficient-flow field of
:mod:`diospec.dynamics` vanishing at them, and the coefficient-ordering
machinery that turns them into monic seed polynomials.

The N real zeros of H_N serve as the coefficient pool; each of the N!
orderings produces one monic polynomial whose own zeros feed the matrix
constructions in :mod:`diospec.matrices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DimensionMismatch, NonConvergence
from .polynomials import MonicPolynomial, _differences, _frozen

__all__ = [
    "MAX_ORDER",
    "HermiteZeros",
    "PermutationId",
    "hermite_zeros",
    "permuted_polynomial",
]

# Full-pipeline cap on N, also the one RunConfig enforces.  It bounds what is
# accepted, not what succeeds: sampled sweeps pass up to N = 30, where the
# worst deviation of a 20-ordering sample is 2.0e-11, far inside the 1e-6
# pass tolerance.
MAX_ORDER = 30

_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class HermiteZeros:
    """Ascending zeros of H_N plus the residuals of the two equilibrium
    identities they satisfy: the largest speed of the first-order
    coefficient flow at the zeros, max_m |c_m - sum_{l != m} 1/(c_m - c_l)|,
    and the largest acceleration of the second-order flow at rest there,
    max_m |-c_m + 2 sum_{l != m} 1/(c_m - c_l)^3|."""

    order: int
    zeros: np.ndarray
    residual_first: float
    residual_second: float

    def __post_init__(self):
        object.__setattr__(self, "zeros", _frozen(self.zeros, float))


def hermite_zeros(n: int) -> HermiteZeros:
    """Zeros of H_n as numpy's Gauss-Hermite nodes (``hermgauss``): the
    eigenvalues of the symmetric tridiagonal Jacobi matrix (Golub & Welsch
    1969), polished by one Newton step on the normalised recurrence.

    numpy antisymmetrises the nodes exactly about 0, so for odd n the central
    zero is (x - x) / 2, which is +0.0.
    """
    if not 2 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ORDER}, got {n}")
    x = hermgauss(n)[0]
    diff = _differences(x)[0]
    r1, r2 = (float(np.max(np.abs(_coefficient_rate(x, diff, order)))) for order in (1, 2))
    # A NaN residual, from a NaN node, fails every comparison (and
    # max(x, nan) is x), so only residuals at or under the bound pass.
    if not (r1 <= _RESIDUAL_BOUND and r2 <= _RESIDUAL_BOUND):
        raise NonConvergence(
            f"equilibrium residuals {r1:.3e}/{r2:.3e} exceed {_RESIDUAL_BOUND} at n={n}")
    return HermiteZeros(n, x, r1, r2)


def _coefficient_rate(values: np.ndarray, diff: np.ndarray, order: int, out=None) -> np.ndarray:
    """Velocity (order 1) or acceleration (order 2) of the coefficient flow, into
    ``out`` if given, from the sums over l != m of 1/diff_ml^(2 order - 1), diff
    from ``_differences``."""
    inv = 1.0 / diff
    if order == 1:
        return np.multiply(1j, values - np.add.reduce(inv, axis=1), out=out)
    return np.add(-values, 2.0 * np.add.reduce(inv ** 3, axis=1), out=out)


@dataclass(frozen=True)
class PermutationId:
    """One of the n! coefficient orderings: a permutation word on 1..n and its
    1-based lexicographic rank."""

    n: int
    word: tuple
    ordinal: int

    def __post_init__(self):
        word = tuple(int(w) for w in self.word)
        object.__setattr__(self, "word", word)
        if sorted(word) != list(range(1, self.n + 1)):
            raise ValueError(f"word {word} is not a permutation of 1..{self.n}")
        if self.ordinal != lexicographic_rank(word):
            raise ValueError(
                f"ordinal {self.ordinal} inconsistent with word {word}")

    @classmethod
    def from_rank(cls, n: int, ordinal: int) -> "PermutationId":
        return cls(n, word_from_rank(n, ordinal), ordinal)


@lru_cache(maxsize=None)
def _radices(n: int) -> tuple:
    """The place values (n-1)!, ..., 1!, 0! of an n-digit factorial number."""
    return tuple(math.factorial(k) for k in range(n - 1, -1, -1))


def lexicographic_rank(word) -> int:
    """1-based rank of a permutation word among all orderings of its length."""
    word = list(word)
    rank = 0
    remaining = sorted(word)
    for w, radix in zip(word, _radices(len(word))):
        pos = remaining.index(w)
        rank += pos * radix
        remaining.pop(pos)
    return rank + 1


def word_from_rank(n: int, ordinal: int) -> tuple:
    """Inverse of lexicographic_rank (factorial number system)."""
    if not 1 <= ordinal <= math.factorial(n):
        raise ValueError(f"rank {ordinal} outside 1..{n}!")
    rank = ordinal - 1
    remaining = list(range(1, n + 1))
    word = []
    for radix in _radices(n):
        pos, rank = divmod(rank, radix)
        word.append(remaining.pop(pos))
    return tuple(word)


def rank_ordered_words(n: int, sizes):
    """The words of ranks 1..n! in rank order, as consecutive (size, n) uint8
    arrays, one per entry of ``sizes``: ``permutations`` of 1..n emits them
    in lexicographic order, so a full sweep decodes no rank."""
    words = permutations(range(1, n + 1))
    for size in sizes:
        flat = chain.from_iterable(islice(words, size))
        yield np.fromiter(flat, np.uint8, size * n).reshape(size, n)


def permuted_polynomial(h: HermiteZeros, perm: PermutationId) -> MonicPolynomial:
    """Monic polynomial whose coefficient list is the permuted Hermite zeros:
    coefficient slot k receives sorted zero number perm.word[k-1]."""
    if perm.n != h.order:
        raise DimensionMismatch(
            f"permutation on {perm.n} symbols cannot order {h.order} zeros")
    return MonicPolynomial(h.zeros[np.asarray(perm.word) - 1])
