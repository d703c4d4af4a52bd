"""The two closed-form matrices with integer and squared-integer spectra.

Both are built from the ordered zeros z of a monic polynomial p and its
coefficients c as the similarity

    M = W^(-1) A_pi W,   A_pi = I + K (D - C),

where W is the Jacobian d c_j / d z_m of the zeros-to-coefficients map,
C_js = 1 / (c_j - c_s)^P off the diagonal, D = diag(C 1), and (K, P) = (1, 2)
for kind M1 and (6, 4) for kind M2.  When c orders the zeros of a Hermite
polynomial, A_pi = P A P^T for the permutation P of that ordering and one
real symmetric matrix A, the coefficient flows' Jacobian at equilibrium up
to a factor i (M1) or -1 (M2).  So every ordering's matrix is similar to A,
and the eigenvalues are exactly 1..N (M1) and 1, 4, ..., N^2 (M2).

No W is formed.  Its inverse is the paper's entry formula d z_m / d c_j =
-z_m^(N-j) / p'(z_m), that is -D'^(-1) V for V_mj = z_m^(N-j) and
D' = diag(p'(z)), so M = D'^(-1) X D' with X^T = V^(-T) A_pi V^T: one solve
against V^T, as A_pi is symmetric.  ``build_m1`` and ``build_m2`` return M.

The sweep's coefficients are real, so the zeros come in conjugate pairs
whose columns of V^T are conjugate.  ``build_stack`` keeps the column of
each real zero and replaces those of a pair z_a, z_b = conj(z_a)
(Im z_b > 0) by Re V_a and Im V_b, which span the same plane.  That basis
U = V^T R is real, for a fixed block matrix R with entries 1/2 and +-i/2, so
U^(-1) A_pi U = R^(-1) X^T R is real and similar to M, and its solve and
eigenvalues run in real arithmetic.  The sweep drops D': partial-pivoting
LU picks the same pivots whatever the scale of each column of U.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, SingularConfiguration
from .polynomials import (_derivative_at_zeros, _differences, _frozen, _set_diagonals,
                          _zeros_of, as_complex_vector, check_positive)

__all__ = [
    "KIND_M1",
    "KIND_M2",
    "CONDITIONING_FLOOR",
    "DiophantineMatrix",
    "SpectrumReport",
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

# Per kind: the coupling weight K, the coupling power P and the power of the
# integers in the spectrum.
_PROFILES = {KIND_M1: (1.0, 2, 1), KIND_M2: (6.0, 4, 2)}


def _profile(kind: str) -> tuple:
    if kind not in _PROFILES:
        raise ValueError(f"unknown kind {kind!r}")
    return _PROFILES[kind]


@dataclass(frozen=True)
class DiophantineMatrix:
    """A built matrix: its kind, order and complex entries."""

    kind: str
    n: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of comparing a matrix spectrum with its expected integers."""

    kind: str
    eigenvalues: np.ndarray
    expected: tuple
    max_deviation: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues))
        object.__setattr__(self, "expected", tuple(int(e) for e in self.expected))


def _similarity(basis: np.ndarray, c: np.ndarray, kinds: tuple) -> np.ndarray:
    """basis^(-1) A_pi basis of each requested kind, for a (B, N, N) stack of
    bases and the (B, N) coefficients that set A_pi, as a (B, K, N, N) view
    of the solve's output, kind k at [:, k].  The kinds share one solve: one
    LU factorisation per row.  The coefficients of a row must be distinct."""
    cdiff = c[:, :, None] - c[:, None, :]
    _set_diagonals(cdiff, 1.0)
    # P is 2 or 4: the square or its square, since x ** 4 would call libm pow.
    square = cdiff * cdiff
    coupled = []
    for kind in kinds:
        factor, power, _ = _profile(kind)
        inv_pow = 1.0 / (square if power == 2 else square * square)
        _set_diagonals(inv_pow, 0.0)
        # A_pi V = V + K (D - C) V, vectorised over the columns m.
        coupled.append(basis + factor * (basis * inv_pow.sum(axis=2)[:, :, None]
                                         - inv_pow @ basis))
    solved = np.linalg.solve(basis, np.concatenate(coupled, axis=2))
    return solved.reshape(basis.shape[:2] + (len(kinds), -1)).transpose(0, 2, 1, 3)


def _powers(z: np.ndarray) -> np.ndarray:
    """V^T of every row of a (B, N) zero stack, [b, j-1, m] = z_m^(N-j), by one
    cumulative product up from the row of ones, as a C-contiguous stack."""
    b, n = z.shape
    powers = np.empty((b, n, n), dtype=z.dtype)
    powers[:, -1] = 1.0
    powers[:, :-1] = z[:, None, :]
    rising = powers[:, ::-1]
    np.multiply.accumulate(rising, axis=1, out=rising)
    return powers


def build_stack(zeros: np.ndarray, coefficients: np.ndarray, kinds: tuple):
    """Build the requested kinds of matrix for every row of (B, N) stacks of
    ordered zeros and their polynomial's real coefficients, in the real basis
    of the module docstring, so each is similar to its row's M, not equal to
    it.  Complex coefficients whose imaginary parts are all exactly 0 are
    taken as real.  Both kinds share one basis stack and one solve; rows are
    computed independently.

    Returns (entries, zero_separation, coeff_separation): the (B, K, N, N)
    real entries, kind k of ``kinds`` at [:, k], and two (B,) arrays.
    Raises ValueError for coefficients that are not real or zeros not
    exactly closed under conjugation, and SingularConfiguration for
    coincident zeros or coefficients.
    """
    z = np.asarray(zeros, dtype=complex)
    c = np.asarray(coefficients)
    if np.iscomplexobj(c) and c.imag.any():
        raise ValueError("build_stack needs real coefficients")
    c = c.real
    zero_sep, coeff_sep = _differences(z)[1], _differences(c)[1]
    for separation, what in ((zero_sep, "zeros"), (coeff_sep, "coefficients")):
        if not separation.all():
            raise SingularConfiguration(f"coincident {what}")
    # Each row must equal its conjugate as a multiset: sorted, they match.
    if not (np.sort(z, axis=1) == np.sort(z.conj(), axis=1)).all():
        raise ValueError("zeros of real coefficients must be closed under conjugation")

    # Each column picks by the sign of its own zero, not by the position of
    # its partner, so pairs sharing a real part need no matching.
    powers = _powers(z)
    basis = np.where(z.imag[:, None, :] > 0, powers.imag, powers.real)
    return _similarity(basis, c, kinds), zero_sep, coeff_sep


def _build(z, c, kind: str) -> DiophantineMatrix:
    zz = _zeros_of(z)
    cc = as_complex_vector(c, "coefficients")
    n = zz.size
    if cc.size != n:
        raise SingularConfiguration(
            f"zeros ({n}) and coefficients ({cc.size}) must have equal length")
    if n < 2:
        raise SingularConfiguration("need at least two zeros")
    zdiff, zero_sep = _differences(zz)
    for separation, what in ((zero_sep, "zeros"), (_differences(cc)[1], "coefficients")):
        if not separation:
            raise SingularConfiguration(f"coincident {what}")
    x = _similarity(_powers(zz[None, :]), cc[None, :], (kind,))[0, 0].T
    # M = D'^(-1) X D', D' = diag(p'(z)).
    derivative = _derivative_at_zeros(zdiff)
    return DiophantineMatrix(kind, n, x * derivative / derivative[:, None])


def build_m1(z, c, source_perm=None) -> DiophantineMatrix:
    """Matrix with spectrum 1..N: inverse-square coefficient coupling.  An
    ordering label passed as ``source_perm`` is ignored."""
    return _build(z, c, KIND_M1)


def build_m2(z, c, source_perm=None) -> DiophantineMatrix:
    """Matrix with spectrum 1, 4, ..., N^2: inverse-fourth-power coupling,
    weighted by 6.  An ordering label passed as ``source_perm`` is ignored."""
    return _build(z, c, KIND_M2)


def expected_spectrum(kind: str, n: int) -> np.ndarray:
    return np.arange(1, n + 1) ** _profile(kind)[2]


@lru_cache(maxsize=None)
def _expected_stack(n: int, kinds: tuple) -> np.ndarray:
    """The (K, N) expected integers of each kind, read-only: every sweep
    chunk and every render asks for them again."""
    return _frozen([expected_spectrum(kind, n) for kind in kinds], int)


def expected_trace(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).sum())


def expected_determinant(kind: str, n: int) -> float:
    return float(expected_spectrum(kind, n).prod())


def spectrum_stack(entries: np.ndarray, kinds: tuple):
    """LAPACK eigenvalues of a (B, K, N, N) stack of matrices, kind k of
    ``kinds`` at [:, k], by one call for all kinds: (B, K, N) complex
    eigenvalues, each row sorted by real part, and each row's (B, K) maximum
    deviation from its kind's expected integers.  A real stack runs the real
    routine, and its real eigenvalues carry an imaginary part of exactly 0.

    Eigenvalues are compared positionally; any imaginary parts feed straight
    into the deviation, so a complex eigenvalue cannot sneak past the check.
    """
    expected = _expected_stack(entries.shape[-1], tuple(kinds))
    try:
        # numpy returns a float array when every eigenvalue of the stack is real.
        lam = np.linalg.eigvals(entries).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc
    lam = np.take_along_axis(lam, np.argsort(lam.real, axis=-1, kind="stable"), axis=-1)
    return lam, np.abs(lam - expected).max(axis=-1)


def spectrum_check(matrix: DiophantineMatrix, tol: float = 1e-6) -> SpectrumReport:
    """Compare the matrix spectrum against its expected integer list:
    ``spectrum_stack`` on a one-matrix stack."""
    check_positive("tol", tol)
    lam, deviation = spectrum_stack(matrix.entries[None, None], (matrix.kind,))
    return SpectrumReport(matrix.kind, lam[0, 0],
                          tuple(expected_spectrum(matrix.kind, matrix.n)),
                          float(deviation[0, 0]), bool(deviation[0, 0] <= tol))


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
