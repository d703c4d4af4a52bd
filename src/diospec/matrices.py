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
``coupling_stack`` builds A_pi from any coefficients.  The sweep builds A
once per order, on the ascending zeros, and permutes it into each ordering
by one gather (``report._ordering_coupling``).

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
eigenvalues run in real arithmetic.  The sweep drops D'.  Column m of V^T
runs from 1 to z_m^(N-1), and T would inherit these scales, up to 10^228
apart at N = 200, as a diagonal similarity that LAPACK's balancing does not
undo: spectra missed 1e-6 there and ran slower at N = 6.  So ``_powers``
divides each column by the power of two at or above its largest entry,
exactly; the one-row builders fold that scale into D'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, SingularConfiguration
from .polynomials import (_derivative_at_zeros, _differences, _exactly_real, _frozen, _lapack,
                          _set_diagonals, _zeros_of, as_complex_vector, check_positive)

__all__ = [
    "KIND_M1",
    "KIND_M2",
    "CONDITIONING_FLOOR",
    "DiophantineMatrix",
    "SpectrumReport",
    "build_stack",
    "coupling_stack",
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


def coupling_stack(coefficients, kinds: tuple):
    """A = I + K (D - C) of each requested kind for every row of a (B, N)
    stack of coefficients, real or complex, as (B, K, N, N) with kind k at
    [:, k], and each row's separation min |c_j - c_s|.  The coefficients
    pass through ``_exactly_real``.  Raises SingularConfiguration for a row
    with coincident coefficients."""
    cdiff, separation = _differences(_exactly_real(coefficients))
    if not separation.all():
        raise SingularConfiguration("coincident coefficients")
    _set_diagonals(cdiff, 1.0)
    # P is 2 or 4: the square or its square, since x ** 4 would call libm pow.
    square = cdiff * cdiff
    inverse = np.stack([1.0 / (square if _profile(kind)[1] == 2 else square * square)
                        for kind in kinds], axis=1)
    _set_diagonals(inverse, 0.0)
    weights = np.array([_profile(kind)[0] for kind in kinds])[:, None, None]
    # D = diag(C 1), so the diagonal of A is 1 + K D.
    coupling = _set_diagonals(inverse * -weights, 1.0 + weights[..., 0] * inverse.sum(axis=-1))
    return coupling, separation


def _similarity(basis: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """basis^(-1) A basis for a (B, N, N) stack of bases and a (B, K, N, N)
    stack of couplings A, as a (B, K, N, N) view of the solve's output, kind
    k at [:, k].  The kinds share one stacked product, written straight into
    the solve's right-hand side, and one solve: one LU factorisation per
    row.  Raises numpy's LinAlgError when a basis is exactly singular."""
    b, kinds, n = coupling.shape[:3]
    product = np.empty((b, n, kinds, n), dtype=np.result_type(basis, coupling))
    np.matmul(coupling, basis[:, None], out=product.transpose(0, 2, 1, 3))
    solved = _lapack("solve", basis, product.reshape(b, n, kinds * n))
    return solved.reshape(b, n, kinds, n).transpose(0, 2, 1, 3)


def _powers(z: np.ndarray) -> np.ndarray:
    """V^T S of every row of a (B, N) zero stack, [b, j-1, m] = z_m^(N-j) s_m,
    by one cumulative product up from the row s, as a C-contiguous stack.
    1/s_m is the power of two at or above column m's largest |entry|,
    max(1, |z_m|)^(N-1), which ``frexp`` reads off its reciprocal."""
    b, n = z.shape
    powers = np.empty((b, n, n), dtype=z.dtype)
    powers[:, -1] = np.ldexp(0.5, np.frexp(np.maximum(np.abs(z), 1.0) ** (1 - n))[1])
    powers[:, :-1] = z[:, None, :]
    rising = powers[:, ::-1]
    np.multiply.accumulate(rising, axis=1, out=rising)
    return powers


def build_stack(zeros: np.ndarray, coupling: np.ndarray):
    """Build the matrices of a (B, K, N, N) stack of couplings from
    ``coupling_stack``, kind k at [:, k], for every row of a (B, N) stack of
    the ordered zeros of a polynomial with real coefficients, in the real
    basis of the module docstring, so each is similar to its row's M, not
    equal to it.  All kinds share one basis stack and one solve; rows are
    computed independently.

    Returns (entries, zero_separation): the (B, K, N, N) real entries and a
    (B,) array.  Raises ValueError for a complex coupling, which real
    coefficients never give, or zeros not exactly closed under conjugation,
    and SingularConfiguration for coincident zeros.
    """
    if np.iscomplexobj(coupling):
        raise ValueError("build_stack needs the real coupling of real coefficients")
    z = np.asarray(zeros, dtype=complex)
    zero_sep = _differences(z)[1]
    if not zero_sep.all():
        raise SingularConfiguration("coincident zeros")
    # Each row must equal its conjugate as a multiset: sorted, they match.
    if not (np.sort(z, axis=1) == np.sort(z.conj(), axis=1)).all():
        raise ValueError("zeros of real coefficients must be closed under conjugation")

    # Each column picks by the sign of its own zero, not by the position of
    # its partner, so pairs sharing a real part need no matching.
    powers = _powers(z)
    basis = np.where(z.imag[:, None, :] > 0, powers.imag, powers.real)
    return _similarity(basis, coupling), zero_sep


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
    if not zero_sep:
        raise SingularConfiguration("coincident zeros")
    coupling = coupling_stack(cc[None, :], (kind,))[0]
    powers = _powers(zz[None, :])
    x = _similarity(powers, coupling)[0, 0].T
    # M = (S D')^(-1) X (S D'), D' = diag(p'(z)), S the exact basis scale.
    derivative = _derivative_at_zeros(zdiff) * powers[0, -1].real
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
    eigenvalues, each row sorted by (re, im) as ``roots_stack`` sorts zeros,
    and each row's (B, K) maximum deviation from its kind's expected
    integers.  A real stack runs the real routine, and its real eigenvalues
    carry an imaginary part of exactly 0; a conjugate pair lists -im first.

    Eigenvalues are compared positionally; any imaginary parts feed straight
    into the deviation, so a complex eigenvalue cannot sneak past the check.
    Raises NonConvergence for a non-finite entry, or when LAPACK fails.
    """
    expected = _expected_stack(entries.shape[-1], tuple(kinds))
    if not np.isfinite(entries).all():
        raise NonConvergence("eigenvalue computation failed: Array must not contain infs or NaNs")
    try:
        lam = _lapack("eigvals", entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc
    lam.sort(axis=-1, kind="stable")
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
