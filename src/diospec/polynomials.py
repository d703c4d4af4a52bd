"""Monic complex polynomials: evaluation, the Vieta map and zeros.

A monic polynomial of degree N is stored as its N trailing coefficients
(c_1, ..., c_N) of

    p(x) = x^N + c_1 x^(N-1) + ... + c_N.

Zero vectors are ordered: the ordering indexes rows and columns of the
matrices built downstream, so it is never silently canonicalised.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy.linalg's LAPACK gufuncs, private numpy API, called by ``_lapack``;
# tests/test_lapack.py pins their results to numpy.linalg's.
from numpy.linalg import _umath_linalg

from .errors import NonConvergence

__all__ = [
    "MonicPolynomial",
    "ZeroVector",
    "check_positive",
    "evaluate",
    "roots",
    "roots_stack",
]


_TINY = np.finfo(float).tiny  # ``_polish``'s floor for a vanishing derivative


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


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


def _frozen(values, dtype=complex) -> np.ndarray:
    """A read-only copy of values as an array of dtype, for a frozen
    dataclass's array field or a table that a cache shares between callers."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MonicPolynomial:
    """Degree-N monic polynomial held as its N trailing coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           _frozen(as_complex_vector(self.coefficients, "coefficients")))

    @property
    def degree(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class ZeroVector:
    """Ordered tuple of complex zeros."""

    zeros: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zeros", _frozen(as_complex_vector(self.zeros, "zeros")))


def _set_diagonals(stack: np.ndarray, value) -> np.ndarray:
    """Set the main diagonal of every trailing (N, N) matrix of a C-contiguous
    array in place, and return the array."""
    n = stack.shape[-1]
    stack.reshape(stack.shape[:-2] + (n * n,))[..., ::n + 1] = value
    return stack


def _differences(values: np.ndarray):
    """Differences v_i - v_j along the last axis, as (..., N, N) with an
    infinite diagonal, so that dividing by them leaves a zero diagonal, and
    the separation min_{i != j} |v_i - v_j| of each (N, N) block."""
    diff = values[..., :, None] - values[..., None, :]
    diff.reshape(diff.shape[:-2] + (-1,))[..., ::values.shape[-1] + 1] = np.inf
    return diff, np.minimum.reduce(np.abs(diff), axis=(-2, -1))


def _exactly_real(values) -> np.ndarray:
    """values as an array; complex values whose imaginary parts are all
    exactly 0 are taken as real."""
    arr = np.asarray(values)
    return arr.real if np.iscomplexobj(arr) and not arr.imag.any() else arr


def _lapack(name: str, *operands) -> np.ndarray:
    """numpy.linalg's LAPACK gufunc ``eigvals`` or ``solve`` on a stack, with
    the bits of ``np.linalg.eigvals(a).astype(complex)`` or
    ``np.linalg.solve(a, b)`` but without their wrappers, which re-check
    shapes and finiteness and re-cast the output on every call: real operands
    run the real routine, and a real eigenvalue has an imaginary part of
    +0.0.  numpy reports a failed matrix by its invalid flag, raised here as
    numpy.linalg's LinAlgError with its message; no other flag warns.  The
    caller checks that eigvals' operand is finite."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(
            "Eigenvalues did not converge" if name == "eigvals" else "Singular matrix")

    code = "D" if any(map(np.iscomplexobj, operands)) else "d"
    signature = code * len(operands) + "->" + ("D" if name == "eigvals" else code)
    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return getattr(_umath_linalg, name)(*operands, signature=signature)


def _zeros_of(z) -> np.ndarray:
    return z.zeros if isinstance(z, ZeroVector) else as_complex_vector(z, "zeros")


def _horner(columns, x: np.ndarray, derivative: bool):
    """Value of each row's monic polynomial at the matching row of x, and
    its derivative if asked for (else None), by one in-place Horner pass;
    ``columns`` holds the trailing coefficients as slabs of x's dtype and
    shape, or as scalars for one polynomial."""
    # The first step, 1 * x + c_1 and 0 * x + 1, is x + c_1 and 1 exactly
    # for finite x, up to the sign of a zero.
    val = x + columns[0]
    der = np.ones_like(x) if derivative else None
    for c in columns[1:]:
        if derivative:
            der *= x
            der += val
        val *= x
        val += c
    return val, der


def evaluate(p: MonicPolynomial, x):
    """Evaluate p at x (scalar or array) by nested multiplication."""
    value, _ = _horner(p.coefficients.tolist(), np.asarray(x, dtype=complex), derivative=False)
    return value if value.ndim else complex(value)


def _vieta(zeros: np.ndarray) -> list:
    """Trailing coefficients of prod_n (x - z_n) for one zero vector, by the
    triangular recurrence on Python scalars."""
    e = [1.0] + [0.0] * zeros.size
    for i, z in enumerate(zeros.tolist(), start=1):
        for k in range(i, 0, -1):
            e[k] -= z * e[k - 1]
    return e[1:]


def _polish(stack: np.ndarray, z: np.ndarray):
    """One guarded Newton step per zero, kept only where it does not increase
    the residual.  Returns the zeros and their residuals |p(z)|.  ``stack``
    holds ``roots_stack``'s Horner slabs for the rows of z.  No step follows,
    so the second Horner pass computes the value only."""
    val, der = _horner(stack, z, derivative=True)
    candidate = z - val / np.where(np.abs(der) < _TINY, _TINY, der)
    resid = np.abs(_horner(stack, candidate, derivative=False)[0])
    best = np.abs(val)
    return np.where(resid <= best, candidate, z), np.minimum(resid, best)


def roots_stack(coefficients, tol: float = 1e-12):
    """Zeros of every monic polynomial in a (B, N) stack of trailing
    coefficients, as the LAPACK eigenvalues of their companion matrices.

    The companion stack is built in the dtype of ``_exactly_real``'s
    coefficients, so real coefficients go through the real LAPACK routine,
    whether they come from a sweep or a one-row ``roots`` call.  A row whose
    eigenvalues miss the backward-error bound below gets a guarded Newton
    polish and is checked again; the rest keep LAPACK's backward-stable zeros
    (Edelman & Murakami 1995) bit for bit.  Rows are solved and polished one
    by one, so a row's zeros have the same bits in any stack, and each row is
    sorted by (re, im) ascending.

    Returns (zeros, failed): a row fails, and its zeros are NaN, when any of
    its zeros misses the backward-error bound
    |p(z_n)| <= tol * (1 + max|c_m|) * max(1, |z_n|)^N, which a non-finite
    |p(z_n)| never meets.  Within the unit disc this is an absolute test;
    outside it follows sum_k |c_k| |z_n|^(N-k) to within a factor
    N * (1 + max|c_m|) (Bini & Fiorentino 2000).
    """
    check_positive("tol", tol)
    c = _exactly_real(coefficients)
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    b, n = c.shape
    companion = np.zeros((b, n, n), dtype=c.dtype)
    companion[:, 0, :] = -c
    companion.reshape(b, n * n)[:, n::n + 1] = 1.0  # the subdiagonal
    try:
        zeros = _lapack("eigvals", companion)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues failed: {exc}") from exc

    # Horner slab k is column k of c spread over the zeros, as complex: numpy
    # adds same-dtype, same-shape operands with no cast and no broadcast.
    stack = np.empty((n,) + zeros.shape, dtype=complex)
    stack[...] = c.T[:, :, None]
    scale = tol * (1.0 + np.abs(c).max(axis=1, keepdims=True))

    def misses(resid):
        bound = scale * np.maximum(1.0, np.abs(zeros)) ** n
        return ~((resid <= bound) & np.isfinite(resid)).all(axis=1)

    resid = np.abs(_horner(stack, zeros, derivative=False)[0])
    failed = misses(resid)
    if failed.any():
        zeros[failed], resid[failed] = _polish(stack[:, failed], zeros[failed])
        failed = misses(resid)
    zeros.sort(axis=1, kind="stable")  # complex values sort by (re, im)
    zeros[failed] = np.nan
    return zeros, failed


def roots(p: MonicPolynomial, tol: float = 1e-12) -> ZeroVector:
    """All zeros of p: ``roots_stack`` on a one-row stack.

    Raises NonConvergence when a zero misses the backward-error bound.
    """
    zeros, failed = roots_stack(p.coefficients[None, :], tol)
    if failed[0]:
        target = tol * (1.0 + float(np.max(np.abs(p.coefficients))))
        raise NonConvergence(
            f"companion eigenvalues did not reach |p(z)| <= {target:.3e} * "
            f"max(1, |z|)^{p.degree}")
    return ZeroVector(zeros[0])


@functools.lru_cache(maxsize=None)
def _off_diagonal(n: int) -> np.ndarray:
    """Row m holds the flat indices of the (n, n) entries (m, k), k != m; modulo n, the k."""
    return np.flatnonzero(~np.eye(n, dtype=bool)).reshape(n, n - 1)


def _derivative_at_zeros(diff: np.ndarray) -> np.ndarray:
    """p'(z_m) = prod_{l != m} (z_m - z_l), from the (N, N) ``_differences`` of z."""
    return np.multiply.reduce(diff.take(_off_diagonal(diff.shape[-1])), axis=1)
