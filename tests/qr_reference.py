"""Dense complex nonsymmetric eigenvalues for small matrices (n <= 64).

Pipeline: unitary Householder reduction to upper Hessenberg form, then
explicitly shifted QR iteration with Wilkinson shifts and subdiagonal
deflation, working in complex arithmetic throughout (no real-block
embedding).

The library takes its spectra from LAPACK alone; this solver, which shares
no code with it, is the independent reference that ``test_eig.py`` holds the
LAPACK sweep spectra against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from diospec.errors import NonConvergence

__all__ = [
    "MAX_N",
    "EigenResult",
    "hessenberg_reduce",
    "eigenvalues",
]

MAX_N = 64


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues and iteration diagnostics of one decomposition."""

    eigenvalues: np.ndarray
    iterations: int


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def hessenberg_reduce(m) -> tuple[np.ndarray, np.ndarray]:
    """Unitary reduction M = Q H Q* with H upper Hessenberg.

    Householder reflectors are accumulated into Q; matrices of size <= 2 are
    already Hessenberg and come back with Q = I.
    """
    a = as_square_matrix(m)
    n = a.shape[0]
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        # Reflect x onto alpha*e1 with alpha chosen to avoid cancellation.
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] += phase * norm_x
        norm_v = np.linalg.norm(v)
        if norm_v == 0.0:
            continue
        v /= norm_v
        a[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ a[k + 1:, k:])
        a[:, k + 1:] -= 2.0 * np.outer(a[:, k + 1:] @ v, v.conj())
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v.conj())
        a[k + 2:, k] = 0.0
    return a, q


def _givens(f: complex, g: complex) -> tuple[float, complex]:
    """Rotation [[c, s], [-conj(s), c]] with c real mapping (f, g) to (r, 0)."""
    if g == 0:
        return 1.0, 0j
    if f == 0:
        return 0.0, g.conjugate() / abs(g)
    denom = np.hypot(abs(f), abs(g))
    c = abs(f) / denom
    s = (f / abs(f)) * g.conjugate() / denom
    return float(c), complex(s)


def _eig_2x2(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    half_tr = 0.5 * (a + d)
    disc = cmath.sqrt(0.25 * (a - d) ** 2 + b * c)
    return half_tr + disc, half_tr - disc


def _wilkinson_shift(a: complex, b: complex, c: complex, d: complex) -> complex:
    lam1, lam2 = _eig_2x2(a, b, c, d)
    return lam1 if abs(lam1 - d) <= abs(lam2 - d) else lam2


def eigenvalues(m, tol: float = 1e-13, max_sweeps: Optional[int] = None) -> EigenResult:
    """All eigenvalues via shifted QR on the Hessenberg form.

    A subdiagonal entry h[k+1, k] deflates once |h[k+1, k]| <= tol *
    (|h[k, k]| + |h[k+1, k+1]|).  Each QR step uses the Wilkinson shift (the
    trailing 2x2 eigenvalue closest to the corner entry), with an occasional
    exceptional shift to break the rare limit cycle.  ``max_sweeps`` bounds
    the total number of QR steps (default 40 n); exhausting it raises
    NonConvergence.
    """
    a = as_square_matrix(m)
    n = a.shape[0]
    if n > MAX_N:
        raise ValueError(f"matrix size {n} exceeds the supported {MAX_N}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n == 1:
        return EigenResult(a.diagonal().copy(), 0)

    h, _ = hessenberg_reduce(a)
    budget = max_sweeps if max_sweeps is not None else 40 * n
    vals = np.empty(n, dtype=complex)
    hi = n - 1
    steps = 0
    steps_this_block = 0
    while hi >= 0:
        lo = hi
        while lo > 0 and abs(h[lo, lo - 1]) > tol * (abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])):
            lo -= 1
        if lo > 0:
            h[lo, lo - 1] = 0.0
        if lo == hi:
            vals[hi] = h[hi, hi]
            hi -= 1
            steps_this_block = 0
            continue
        if lo == hi - 1:
            vals[hi - 1], vals[hi] = _eig_2x2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi])
            hi -= 2
            steps_this_block = 0
            continue

        if steps >= budget:
            raise NonConvergence(
                f"QR iteration exceeded {budget} steps on a block of size {hi - lo + 1}")
        steps += 1
        steps_this_block += 1

        shift = _wilkinson_shift(h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1], h[hi, hi])
        if steps_this_block % 12 == 0:
            shift = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])

        size = hi - lo + 1
        block = h[lo:hi + 1, lo:hi + 1] - shift * np.eye(size)
        rotations = []
        for k in range(size - 1):
            c, s = _givens(block[k, k], block[k + 1, k])
            rotations.append((c, s))
            g = np.array([[c, s], [-np.conj(s), c]])
            block[k:k + 2, k:] = g @ block[k:k + 2, k:]
            block[k + 1, k] = 0.0
        for k, (c, s) in enumerate(rotations):
            gh = np.array([[c, -s], [np.conj(s), c]])
            block[:, k:k + 2] = block[:, k:k + 2] @ gh
        h[lo:hi + 1, lo:hi + 1] = block + shift * np.eye(size)

    return EigenResult(vals, steps)
