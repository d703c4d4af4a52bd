"""Yardsticks that the acceptance criteria hold the library against: the
linearised modal evolution of an M1 or M2 matrix, the trace and determinant
of its expected integer spectrum, and the transposition-similarity check.

The library shows the spectra through the sweep and the flows; none of it
calls these.  They live with the tests, as ``qr_reference.py`` and
``dynamics_reference.py`` do.  ``permutation_similarity_check`` builds its
matrices with the library's own ``matrices._build``, so the criterion that
uses it still tests library code.
"""

from __future__ import annotations

import numpy as np

from diospec.errors import DimensionMismatch, NonConvergence, NumericalError
from diospec.matrices import KIND_M1, KIND_M2, DiophantineMatrix, _build, expected_spectrum
from diospec.polynomials import _differences, _zeros_of, as_complex_vector

__all__ = [
    "DegenerateSpectrum",
    "expected_trace",
    "expected_determinant",
    "permutation_similarity_check",
    "linear_evolution_first",
    "linear_evolution_second",
]

# Pairwise eigenvalue gap, relative to the spectrum scale, below which the
# eigenvectors no longer form a trustworthy modal basis.
_GAP_FLOOR = 1e-6


class DegenerateSpectrum(NumericalError):
    """Eigenvalues too close together, or without a frequency, for modal
    reconstruction."""


def expected_trace(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).sum())


def expected_determinant(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).prod())


def permutation_similarity_check(z, c, kind: str, swap: tuple) -> float:
    """Max elementwise |build(P z) - P build(z) P^T| for the transposition P
    swapping zero positions swap = (a, b), 1-based.

    Relabelling two zeros must permute the matrix rows and columns and nothing
    else; the returned deviation is floating-point noise when that holds.
    """
    a, b = swap
    zz = _zeros_of(z)
    n = zz.size
    if not (1 <= a < b <= n):
        raise ValueError(f"swap positions must satisfy 1 <= a < b <= {n}, got {swap}")
    p = np.arange(n)
    p[[a - 1, b - 1]] = b - 1, a - 1
    rebuilt = _build(zz[p], c, kind).entries
    conjugated = _build(zz, c, kind).entries[np.ix_(p, p)]
    return float(np.max(np.abs(rebuilt - conjugated)))


def _modal(matrix: DiophantineMatrix, kind: str, **vectors):
    """LAPACK eigenvalues, unit-norm eigenvector columns and the amplitudes of
    each initial vector in them; raises DegenerateSpectrum when two eigenvalues
    lie within the gap floor."""
    if matrix.kind != kind:
        order = "first" if kind == KIND_M1 else "second"
        raise ValueError(f"{order}-order evolution needs kind {kind}, got {matrix.kind}")
    vectors = [as_complex_vector(v, name) for name, v in vectors.items()]
    if any(v.size != matrix.n for v in vectors):
        raise DimensionMismatch("initial vectors do not match the matrix")
    try:
        values, basis = np.linalg.eig(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigen-decomposition failed: {exc}") from exc
    gap = float(_differences(values)[1])
    scale = max(1.0, float(np.max(np.abs(values))))
    if gap <= _GAP_FLOOR * scale:
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gap:.3e} below {_GAP_FLOOR} * {scale:.3e}")
    return values, basis, [np.linalg.solve(basis, v) for v in vectors]


def linear_evolution_first(matrix: DiophantineMatrix, v0, t: float) -> np.ndarray:
    """Evolve v under dv/dt = i M v by eigen-reconstruction:
    v(t) = sum_m a_m exp(i lambda_m t) u_m with U a = v(0).

    Integer eigenvalues make every mode 2*pi-periodic, so v(2*pi) = v(0).
    """
    values, basis, (a,) = _modal(matrix, KIND_M1, v0=v0)
    return basis @ (a * np.exp(1j * values * t))


def linear_evolution_second(matrix: DiophantineMatrix, v0, vdot0, t: float) -> np.ndarray:
    """Evolve v under d2v/dt2 = -M v by eigen-reconstruction:
    v(t) = sum_m [a_m cos(w_m t) + b_m sin(w_m t)/w_m] u_m.

    The modal frequency is taken as w_m = sqrt(eigenvalue); with the
    squared-integer eigenvalues of an M2 matrix this gives integer
    frequencies, hence 2*pi-periodic modes.  Eigenvalues must have positive
    real part for the square root to define a frequency.
    """
    values, basis, (a, b) = _modal(matrix, KIND_M2, v0=v0, vdot0=vdot0)
    if np.any(values.real <= 0):
        raise DegenerateSpectrum("eigenvalues with non-positive real part have no frequency")
    omega = np.sqrt(values)
    return basis @ (a * np.cos(omega * t) + b * np.sin(omega * t) / omega)
