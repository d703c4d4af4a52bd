"""The two closed-form matrices with integer and squared-integer spectra.

Both matrices are assembled from an ordered zero vector z of a monic
polynomial together with that polynomial's coefficient list c.  Entry (n, m)
is

    -[prod_{l != n} (z_n - z_l)]^(-1)
        * sum_j z_n^(N-j) [ w_{j,m} + K sum_{s != j} (w_{j,m} - w_{s,m})
                                                   / (c_j - c_s)^P ]

with (K, P) = (1, 2) for kind M1 and (6, 4) for kind M2, where w_{j,m} is the
Jacobian of the zeros-to-coefficients map.  When the coefficient pool is the
zeros of a Hermite polynomial, the eigenvalues are exactly 1..N (M1) and
1, 4, ..., N^2 (M2), independent of the coefficient ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonConvergence, SingularConfiguration
from .hermite import PermutationId
from .polynomials import as_complex_vector, esp_table

__all__ = [
    "KIND_M1",
    "KIND_M2",
    "CONDITIONING_FLOOR",
    "WTable",
    "DiophantineMatrix",
    "SpectrumReport",
    "w_table",
    "build_stack",
    "build_m1",
    "build_m2",
    "expected_spectrum",
    "expected_trace",
    "expected_determinant",
    "spectrum_stack",
    "spectrum_check",
    "permutation_similarity_check",
]

KIND_M1 = "M1"
KIND_M2 = "M2"

# Below this separation the 1/(z_n - z_l) and 1/(c_j - c_s) factors amplify
# roundoff enough that a failed spectrum check is inconclusive, not a fail.
CONDITIONING_FLOOR = 1e-6

_profiles = {KIND_M1: (1.0, 2), KIND_M2: (6.0, 4)}


def _zeros_array(z) -> np.ndarray:
    from .polynomials import ZeroVector

    return z.zeros if isinstance(z, ZeroVector) else as_complex_vector(z, "zeros")


@dataclass(frozen=True)
class WTable:
    """Jacobian of the zeros-to-coefficients map: entries[j-1, m-1] holds
    d c_j / d z_m, which equals (-1)^j [delta_{j,1} + sigma_excluding(m, j, z)].
    Row j = 1 is identically -1."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class DiophantineMatrix:
    """A built matrix, its provenance, and the separation metrics that govern
    how trustworthy a failed spectrum check would be."""

    kind: str
    n: int
    entries: np.ndarray
    source_perm: Optional[PermutationId]
    zero_separation: float
    coeff_separation: float

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def conditioning_warning(self) -> bool:
        return min(self.zero_separation, self.coeff_separation) < CONDITIONING_FLOOR


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of comparing a matrix spectrum with its expected integers."""

    kind: str
    eigenvalues: np.ndarray
    expected: tuple
    max_deviation: float
    passed: bool
    perm: Optional[PermutationId]

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=complex).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", arr)
        object.__setattr__(self, "expected", tuple(int(e) for e in self.expected))


def _w_stack(z: np.ndarray) -> np.ndarray:
    """WTable entries for every row of a (B, N) zero stack, as (B, N, N)."""
    n = z.shape[1]
    others = np.array([[k for k in range(n) if k != m] for m in range(n)])
    # reduced[b, m, j-1] = d sigma_j / d z_m = e_{j-1} of row b without z_m.
    reduced = esp_table(z[:, others])
    signs = (-1.0) ** np.arange(1, n + 1)
    return signs[:, None] * reduced.transpose(0, 2, 1)


def w_table(z) -> WTable:
    """Coefficient-perturbation table for the ordered zeros z."""
    return WTable(_w_stack(_zeros_array(z)[None, :])[0])


def _set_diagonals(stack: np.ndarray, value) -> None:
    b, n, _ = stack.shape
    stack.reshape(b, n * n)[:, ::n + 1] = value


def _separations(diff: np.ndarray) -> np.ndarray:
    """Minimum off-diagonal |diff| of each (N, N) difference matrix."""
    dist = np.abs(diff)
    _set_diagonals(dist, np.inf)
    return dist.min(axis=(1, 2))


def build_stack(zeros: np.ndarray, coefficients: np.ndarray, kinds: tuple):
    """Build the requested kinds of matrix for every row of (B, N) stacks of
    ordered zeros and their polynomial's coefficients; both kinds share one
    WTable stack.

    Returns ({kind: (B, N, N) entries}, zero_separation, coeff_separation),
    the separations being (B,) arrays.  Rows are computed independently.
    """
    z = np.asarray(zeros, dtype=complex)
    c = np.asarray(coefficients, dtype=complex)
    zdiff = z[:, :, None] - z[:, None, :]
    cdiff = c[:, :, None] - c[:, None, :]
    zero_sep = _separations(zdiff)
    coeff_sep = _separations(cdiff)
    if np.any(zero_sep == 0.0):
        raise SingularConfiguration("coincident zeros")
    if np.any(coeff_sep == 0.0):
        raise SingularConfiguration("coincident coefficients")

    w = _w_stack(z)
    _set_diagonals(zdiff, 1.0)
    prefactor = -1.0 / np.prod(zdiff, axis=2)
    _set_diagonals(cdiff, 1.0)
    z_col = z[:, :, None]

    entries = {}
    for kind in kinds:
        factor, power = _profiles[kind]
        inv_pow = 1.0 / cdiff ** power
        _set_diagonals(inv_pow, 0.0)
        # sum_{s != j} (w[j] - w[s]) / (c_j - c_s)^P, vectorised over m.
        coupled = w + factor * (w * inv_pow.sum(axis=2)[:, :, None] - inv_pow @ w)
        # Horner accumulation over j (descending powers of z_n) limits
        # cancellation.
        acc = np.zeros_like(w)
        for j in range(z.shape[1]):
            acc *= z_col
            acc += coupled[:, j, None, :]
        entries[kind] = prefactor[:, :, None] * acc
    return entries, zero_sep, coeff_sep


def _build(z, c, kind: str, source_perm: Optional[PermutationId]) -> DiophantineMatrix:
    zz = _zeros_array(z)
    cc = as_complex_vector(c, "coefficients")
    n = zz.size
    if cc.size != n:
        raise SingularConfiguration(
            f"zeros ({n}) and coefficients ({cc.size}) must have equal length")
    if n < 2:
        raise SingularConfiguration("need at least two zeros")
    entries, zero_sep, coeff_sep = build_stack(zz[None, :], cc[None, :], (kind,))
    return DiophantineMatrix(kind, n, entries[kind][0], source_perm,
                             float(zero_sep[0]), float(coeff_sep[0]))


def build_m1(z, c, source_perm: Optional[PermutationId] = None) -> DiophantineMatrix:
    """Matrix with spectrum 1..N: inverse-square coefficient coupling."""
    return _build(z, c, KIND_M1, source_perm)


def build_m2(z, c, source_perm: Optional[PermutationId] = None) -> DiophantineMatrix:
    """Matrix with spectrum 1, 4, ..., N^2: inverse-fourth-power coupling,
    weighted by 6."""
    return _build(z, c, KIND_M2, source_perm)


def expected_spectrum(kind: str, n: int) -> np.ndarray:
    m = np.arange(1, n + 1)
    return m if kind == KIND_M1 else m ** 2


def expected_trace(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).sum())


def expected_determinant(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).prod())


def spectrum_stack(entries: np.ndarray, kind: str):
    """LAPACK eigenvalues of a (B, N, N) stack of matrices of one kind, each
    row sorted by real part, and each row's maximum deviation from the
    expected integers.

    Eigenvalues are compared positionally; any imaginary parts feed straight
    into the deviation, so a complex eigenvalue cannot sneak past the check.
    """
    try:
        lam = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc
    lam = np.take_along_axis(lam, np.argsort(lam.real, axis=1, kind="stable"), axis=1)
    deviation = np.abs(lam - expected_spectrum(kind, entries.shape[-1])).max(axis=1)
    return lam, deviation


def spectrum_check(matrix: DiophantineMatrix, tol: float = 1e-6) -> SpectrumReport:
    """Compare the matrix spectrum against its expected integer list:
    ``spectrum_stack`` on a one-matrix stack."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam, deviation = spectrum_stack(matrix.entries[None], matrix.kind)
    return SpectrumReport(matrix.kind, lam[0],
                          tuple(expected_spectrum(matrix.kind, matrix.n)),
                          float(deviation[0]), bool(deviation[0] <= tol),
                          matrix.source_perm)


def permutation_similarity_check(z, c, kind: str, swap: tuple) -> float:
    """Max elementwise |build(P z) - P build(z) P^T| for the transposition P
    swapping zero positions swap = (a, b), 1-based.

    Relabelling two zeros must permute the matrix rows and columns and nothing
    else; the returned deviation is floating-point noise when that holds.
    """
    a, b = swap
    zz = _zeros_array(z)
    n = zz.size
    if not (1 <= a < b <= n):
        raise ValueError(f"swap positions must satisfy 1 <= a < b <= {n}, got {swap}")
    builder = build_m1 if kind == KIND_M1 else build_m2

    base = builder(zz, c).entries
    swapped_zeros = zz.copy()
    swapped_zeros[[a - 1, b - 1]] = swapped_zeros[[b - 1, a - 1]]
    rebuilt = builder(swapped_zeros, c).entries

    conjugated = np.array(base)
    conjugated[[a - 1, b - 1], :] = conjugated[[b - 1, a - 1], :]
    conjugated[:, [a - 1, b - 1]] = conjugated[:, [b - 1, a - 1]]
    return float(np.max(np.abs(rebuilt - conjugated)))
