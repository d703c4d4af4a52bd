"""Monic complex polynomials: evaluation, Vieta maps, zeros, symmetric functions.

A monic polynomial of degree N is stored as its N trailing coefficients
(c_1, ..., c_N) of

    p(x) = x^N + c_1 x^(N-1) + ... + c_N.

Zero vectors are ordered: the ordering indexes rows and columns of the
matrices built downstream, so it is never silently canonicalised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, NonConvergence

__all__ = [
    "MonicPolynomial",
    "ZeroVector",
    "esp_table",
    "evaluate",
    "poly_from_zeros",
    "roots",
    "roots_stack",
    "sigma",
    "sigma_brute",
    "sigma_excluding",
    "sigma_excluding_brute",
    "vieta_jacobian_apply",
]

# Successive Aberth starting angles are separated by the golden angle, which
# never aligns two guesses symmetrically about the real axis.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# Subset enumeration is for cross-testing only; beyond this size it explodes.
_BRUTE_FORCE_LIMIT = 12


def as_complex_vector(values, name: str = "values") -> np.ndarray:
    """Coerce to a 1-d complex128 array, rejecting empty or non-finite input."""
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite components")
    return arr


@dataclass(frozen=True)
class MonicPolynomial:
    """Degree-N monic polynomial held as its N trailing coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = as_complex_vector(self.coefficients, "coefficients").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def degree(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class ZeroVector:
    """Ordered tuple of complex zeros."""

    zeros: np.ndarray

    def __post_init__(self):
        arr = as_complex_vector(self.zeros, "zeros").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "zeros", arr)

    @property
    def n(self) -> int:
        return self.zeros.size

    @property
    def separation(self) -> float:
        """Minimum pairwise distance between zeros (inf for a single zero).

        Values below ~1e-8 mean downstream 1/(z_n - z_l) factors amplify
        error; matrix builders surface this as a conditioning warning.
        """
        return pairwise_separation(self.zeros)


def pairwise_separation(values: np.ndarray) -> float:
    """Minimum off-diagonal |v_i - v_j|; inf when fewer than two entries."""
    if values.size < 2:
        return math.inf
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def _zeros_of(z) -> np.ndarray:
    return z.zeros if isinstance(z, ZeroVector) else as_complex_vector(z, "zeros")


def evaluate(p: MonicPolynomial, x):
    """Evaluate p at x (scalar or array) by nested multiplication."""
    xv = np.asarray(x, dtype=complex)
    acc = np.ones_like(xv)
    for c in p.coefficients:
        acc = acc * xv + c
    return acc if acc.ndim else complex(acc)


def _horner_with_derivative(columns: list, x: np.ndarray):
    """Value and derivative of each row's monic polynomial at the matching row
    of x, both by one in-place Horner pass; ``columns`` holds the trailing
    coefficients as (B, 1) column slices."""
    # The first step, 1 * x + c_1 and 0 * x + 1, is x + c_1 and 1 exactly
    # for finite x, up to the sign of a zero.
    val = x + columns[0]
    der = np.ones_like(x)
    for c in columns[1:]:
        der *= x
        der += val
        val *= x
        val += c
    return val, der


def _columns(c: np.ndarray) -> list:
    return [c[:, k, None] for k in range(c.shape[1])]


def poly_from_zeros(z) -> MonicPolynomial:
    """Expand prod_n (x - z_n) by incremental multiplication of linear factors.

    Coefficient m of the result equals (-1)^m * sigma(m, z).
    """
    zz = _zeros_of(z)
    full = np.ones(1, dtype=complex)
    for root in zz:
        full = np.convolve(full, np.array([1.0, -root]))
    return MonicPolynomial(full[1:])


def _aberth(c: np.ndarray, tol: float, max_iter: int, start_phase: float):
    """Aberth-Ehrlich iteration on every row of the (B, N) coefficient stack.

    Returns (z, converged).  A row stops, and leaves the active set, at the
    first step where |p(z_n)| <= tol * (1 + max|c_m|) holds for all its zeros;
    rows still active after ``max_iter`` steps are not converged.
    """
    b, n = c.shape
    radius = 1.0 + np.abs(c).max(axis=1)
    z = radius[:, None] * np.exp(1j * (start_phase + _GOLDEN_ANGLE * np.arange(n)))
    target = tol * radius
    tiny = np.finfo(float).tiny
    out = np.empty_like(z)
    converged = np.zeros(b, dtype=bool)
    active = np.arange(b)
    columns = _columns(c)

    for _ in range(max_iter):
        val, der = _horner_with_derivative(columns, z)
        done = np.abs(val).max(axis=1) <= target
        if done.any():
            out[active[done]] = z[done]
            converged[active[done]] = True
            keep = ~done
            if not keep.any():
                break
            active, z, val, der, target = (
                active[keep], z[keep], val[keep], der[keep], target[keep])
            columns = [col[keep] for col in columns]
        der = np.where(np.abs(der) < tiny, tiny, der)
        newton = val / der
        inv = z[:, :, None] - z[:, None, :]
        diagonal = inv.reshape(len(z), n * n)[:, ::n + 1]
        diagonal[...] = 1.0
        np.divide(1.0, inv, out=inv)
        diagonal[...] = 0.0
        denom = 1.0 - newton * inv.sum(axis=2)
        denom = np.where(np.abs(denom) < tiny, 1.0, denom)
        z = z - newton / denom
    return out, converged


def _polish(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Two guarded Newton steps per zero, each kept only where it does not
    increase the residual."""
    tiny = np.finfo(float).tiny
    columns = _columns(c)
    val, der = _horner_with_derivative(columns, z)
    best = np.abs(val)
    for _ in range(2):
        der = np.where(np.abs(der) < tiny, tiny, der)
        candidate = z - val / der
        cval, cder = _horner_with_derivative(columns, candidate)
        resid = np.abs(cval)
        improved = resid <= best
        z = np.where(improved, candidate, z)
        val = np.where(improved, cval, val)
        der = np.where(improved, cder, der)
        best = np.minimum(resid, best)
    return z


def roots_stack(coefficients, tol: float = 1e-12, max_iter: int = 200,
                start_phases: tuple = (0.4,)):
    """Zeros of every monic polynomial in a (B, N) stack of trailing
    coefficients, by Aberth-Ehrlich simultaneous iteration.

    Starting guesses sit on a circle of radius 1 + max|c_m| with golden-angle
    spacing, rotated by the start phase.  Each start phase in turn is tried on
    the rows no earlier phase converged.  Converged rows get a guarded Newton
    polish and are sorted by (re, im) ascending.

    Returns (zeros, failed): ``failed`` marks the rows no phase converged,
    whose zeros are NaN.  Zeros of a row can differ in the last bits with the
    other rows of the stack, never with repeats of the same stack.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = np.asarray(coefficients, dtype=complex)
    b, n = c.shape
    if n == 1:
        return -c, np.zeros(b, dtype=bool)

    zeros = np.full((b, n), np.nan, dtype=complex)
    pending = np.arange(b)
    for phase in start_phases:
        if not pending.size:
            break
        z, converged = _aberth(c[pending], tol, max_iter, phase)
        zeros[pending[converged]] = z[converged]
        pending = pending[~converged]
    failed = np.zeros(b, dtype=bool)
    failed[pending] = True

    ok = ~failed
    polished = _polish(c[ok], zeros[ok])
    order = np.lexsort((polished.imag, polished.real), axis=-1)
    zeros[ok] = np.take_along_axis(polished, order, axis=1)
    return zeros, failed


def roots(p: MonicPolynomial, tol: float = 1e-12, max_iter: int = 200,
          start_phase: float = 0.4) -> ZeroVector:
    """All zeros of p: ``roots_stack`` on a one-row stack.

    Raises NonConvergence when the iteration budget is exhausted; callers may
    retry with a different ``start_phase``.
    """
    zeros, failed = roots_stack(p.coefficients[None, :], tol, max_iter, (start_phase,))
    if failed[0]:
        target = tol * (1.0 + float(np.max(np.abs(p.coefficients))))
        raise NonConvergence(
            f"Aberth iteration did not reach |p| <= {target:.3e} in {max_iter} steps")
    return ZeroVector(zeros[0])


def esp_table(values: np.ndarray) -> np.ndarray:
    """Elementary symmetric functions e_0..e_n of the entries along the last
    axis, by the stable triangular recurrence (one linear-factor
    multiplication per entry)."""
    n = values.shape[-1]
    e = np.zeros(values.shape[:-1] + (n + 1,), dtype=complex)
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1:i + 2] += values[..., i, None] * e[..., 0:i + 1]
    return e


def sigma(j: int, z) -> complex:
    """Elementary symmetric function of degree j; sigma(0, z) = 1 (void product)."""
    zz = _zeros_of(z)
    if j < 0 or j > zz.size:
        raise IndexError(f"sigma degree {j} outside 0..{zz.size}")
    return complex(esp_table(zz)[j])


def sigma_excluding(m: int, j: int, z) -> complex:
    """Sum of (j-1)-fold products over index subsets avoiding index m (1-based).

    j = 1 returns 0 exactly: the sum over an empty set of indices vanishes by
    convention, even though the corresponding void product would be 1.
    """
    zz = _zeros_of(z)
    n = zz.size
    if not 1 <= m <= n:
        raise IndexError(f"excluded index {m} outside 1..{n}")
    if not 1 <= j <= n:
        raise IndexError(f"degree index {j} outside 1..{n}")
    if j == 1:
        return 0j
    return complex(esp_table(np.delete(zz, m - 1))[j - 1])


def sigma_brute(j: int, z) -> complex:
    """Subset-enumeration twin of sigma, for cross-testing (n <= 12)."""
    zz = _zeros_of(z)
    if j < 0 or j > zz.size:
        raise IndexError(f"sigma degree {j} outside 0..{zz.size}")
    if zz.size > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force path limited to n <= {_BRUTE_FORCE_LIMIT}")
    return complex(sum(math.prod(t) for t in combinations(zz, j)))


def sigma_excluding_brute(m: int, j: int, z) -> complex:
    """Subset-enumeration twin of sigma_excluding, for cross-testing (n <= 12)."""
    zz = _zeros_of(z)
    n = zz.size
    if not 1 <= m <= n:
        raise IndexError(f"excluded index {m} outside 1..{n}")
    if not 1 <= j <= n:
        raise IndexError(f"degree index {j} outside 1..{n}")
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force path limited to n <= {_BRUTE_FORCE_LIMIT}")
    if j == 1:
        return 0j
    reduced = np.delete(zz, m - 1)
    return complex(sum(math.prod(t) for t in combinations(reduced, j - 1)))


def vieta_jacobian_apply(z, v) -> np.ndarray:
    """First-order change of the monic coefficients when the zeros move by v.

    Returns w with w_j = sum_m (d c_j / d z_m) v_m evaluated at z, i.e. the
    Jacobian of poly_from_zeros applied to the direction v.
    """
    zz = _zeros_of(z)
    vv = as_complex_vector(v, "v")
    if vv.size != zz.size:
        raise DimensionMismatch(f"direction has length {vv.size}, zeros {zz.size}")
    n = zz.size
    signs = (-1.0) ** np.arange(1, n + 1)
    w = np.zeros(n, dtype=complex)
    for m in range(n):
        w += vv[m] * signs * esp_table(np.delete(zz, m))[:n]
    return w
