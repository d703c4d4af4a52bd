import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import hermite as npherm

from conftest import unconverged_eigvals, vieta_jacobian_stack

import diospec.polynomials as polynomials
from diospec.errors import NonConvergence, SingularConfiguration
from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial, word_from_rank
from diospec.matrices import (
    KIND_M1,
    KIND_M2,
    _expected_stack,
    _powers,
    _similarity,
    build_m1,
    build_m2,
    build_stack,
    coupling_stack,
    expected_determinant,
    expected_spectrum,
    expected_trace,
    permutation_similarity_check,
    spectrum_check,
    spectrum_stack,
)
from diospec.polynomials import _differences, _set_diagonals, roots, roots_stack
from diospec.report import RunConfig, _ordering_coupling, _sorted_coupling, run_verification

SQRT2 = math.sqrt(2.0)
SQRT32 = math.sqrt(1.5)


def closed_form_m1_n2(z1, z2):
    """Hand-expanded 2x2 matrix with spectrum {1, 2} for coefficients from the
    two Hermite zeros +-1/sqrt(2) (so the coefficient-gap square is 2)."""
    d = z1 - z2
    return np.array([
        [1.5 - (1 - z1 * z2) / (2 * d), -(1 - z1 ** 2) / (2 * d)],
        [(1 - z2 ** 2) / (2 * d), 1.5 + (1 - z1 * z2) / (2 * d)],
    ])


def closed_form_m2_n2(z1, z2):
    """Matching 2x2 closed form with spectrum {1, 4} (coefficient-gap fourth
    power is 4, coupling weight 6, hence the 3/2 factors)."""
    d = z1 - z2
    return np.array([
        [2.5 - 1.5 * (1 - z1 * z2) / d, -1.5 * (1 - z1 ** 2) / d],
        [1.5 * (1 - z2 ** 2) / d, 2.5 + 1.5 * (1 - z1 * z2) / d],
    ])


def vieta_jacobian(z):
    """The reference Vieta Jacobian of one zero vector, as an (N, N) array."""
    return vieta_jacobian_stack(np.asarray(z, dtype=complex)[None])[0]


def vieta_jacobian_reference(z):
    """numpy's expansion of the Vieta Jacobian: column m is minus the monic
    coefficients of the zeros other than z_m, since d c_j / d z_m =
    (-1)^j e_{j-1}(z without z_m).  ``np.poly([])`` is the scalar 1.0."""
    return -np.array([np.atleast_1d(np.poly(np.delete(z, m))) for m in range(len(z))]).T


def paper_entries(z, c, factor, power):
    """The paper's entry formula as its direct double sum over the Vieta
    Jacobian table: entry (n, m) is

        -[prod_{l != n} (z_n - z_l)]^(-1) sum_j z_n^(N-j)
            [w_jm + K sum_{s != j} (w_jm - w_sm) / (c_j - c_s)^P].

    The build computes the same matrix as W^(-1) (A_pi W) and is held to
    this sum."""
    w = vieta_jacobian_reference(z)
    size = len(z)
    out = np.empty((size, size), dtype=complex)
    for n in range(size):
        scale = -1.0 / np.prod([z[n] - z[l] for l in range(size) if l != n])
        for m in range(size):
            total = 0j
            for j in range(size):
                coupling = sum((w[j, m] - w[s, m]) / (c[j] - c[s]) ** power
                               for s in range(size) if s != j)
                total += z[n] ** (size - 1 - j) * (w[j, m] + factor * coupling)
            out[n, m] = scale * total
    return out


def zeros_n2(mu):
    """Zeros of z^2 + (-1)^mu (1 - z)/sqrt(2), by the closed formula."""
    sign = (-1.0) ** mu
    root = cmath.sqrt(1 - sign * 4 * SQRT2)
    return np.array([(sign + root) / (2 * SQRT2), (sign - root) / (2 * SQRT2)])


def mu_coefficients_n2(mu):
    sign = (-1.0) ** mu
    return np.array([-sign / SQRT2, sign / SQRT2])


class TestWTable:
    def test_first_row_is_minus_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        table = vieta_jacobian(z)
        np.testing.assert_allclose(table[0], -1.0, atol=1e-15)
        # A single zero leaves only that row: c_1 = -z_1.
        np.testing.assert_array_equal(vieta_jacobian([2.0]), [[-1.0]])

    def test_n3_cyclic_structure(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        table = vieta_jacobian(z)
        for m in range(3):
            a, b = z[(m + 1) % 3], z[(m + 2) % 3]
            assert table[1, m] == pytest.approx(a + b, abs=1e-14)
            assert table[2, m] == pytest.approx(-a * b, abs=1e-14)

    def test_n2_entries(self):
        a, b = 0.7 + 0.2j, -1.1
        table = vieta_jacobian(np.array([a, b]))
        assert table[1, 0] == pytest.approx(b)
        assert table[1, 1] == pytest.approx(a)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_numpy_expansion(self, ordering_sweep, n):
        # Random complex zeros, and a spread of sweep rows for n = 2..7,
        # held to numpy's expansion within 4 n u of the largest entry,
        # u = 2^-53 (measured: at most 1.8e-15 relative up to n = 8).
        rng = np.random.default_rng(n)
        rows = list(rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n)))
        if 2 <= n <= 7:
            records = ordering_sweep(n)
            rows += [r.zeros.zeros for r in records[::max(1, len(records) // 20)]]
        for z in rows:
            reference = vieta_jacobian_reference(z)
            bound = 4 * n * 2.0 ** -53 * np.abs(reference).max()
            assert np.abs(vieta_jacobian(z) - reference).max() <= bound

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_is_the_inverse(self, n):
        # W^(-1) = -V / p'(z) row by row, V_mj = z_m^(N-j) from the
        # library's powers, each column divided by the power of two in its
        # last row, which is exact: W (-V / p') = I for sweep rows at up to
        # 20 ranks spread over the n! orderings and for 20 random complex
        # rows.  Each entry is held within 4 N u of |W| |V / p'|, u = 2^-53,
        # with |W| taken as the Jacobian of the moduli, which bounds the
        # recurrence's rounding (measured: at most 1.0 N u).
        u = 2.0 ** -53
        ranks = np.unique(np.linspace(1, math.factorial(n), 20).astype(int)).tolist()
        words = np.array([word_from_rank(n, rank) for rank in ranks])
        hermite_rows, failed = roots_stack(hermite_zeros(n).zeros[words - 1])
        assert not failed.any()
        rng = np.random.default_rng(n)
        for z in (hermite_rows, rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))):
            derivative = _set_diagonals(z[:, :, None] - z[:, None, :], 1.0).prod(axis=2)
            powers = _powers(z)
            inverse = -(powers / powers[:, -1:]).transpose(0, 2, 1) / derivative[:, :, None]
            error = np.abs(vieta_jacobian_stack(z) @ inverse - np.eye(n))
            scale = np.abs(vieta_jacobian_stack(np.abs(z).astype(complex))) @ np.abs(inverse)
            assert (error <= 4 * n * u * scale).all()


class TestBuildM1:
    def test_matches_closed_form_n2(self):
        for mu in (1, 2):
            z = zeros_n2(mu)
            built = build_m1(z, mu_coefficients_n2(mu)).entries
            reference = closed_form_m1_n2(z[0], z[1])
            scale = np.abs(reference).max()
            assert np.abs(built - reference).max() <= 1e-12 * scale

    def test_trace_is_three_for_any_zero_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            built = build_m1(z, mu_coefficients_n2(1)).entries
            assert np.trace(built) == pytest.approx(3.0, abs=1e-12)

    def test_matches_fd_jacobian_n4(self):
        from diospec.dynamics import fd_jacobian

        h = hermite_zeros(4)
        perm = PermutationId.from_rank(4, 7)
        poly = permuted_polynomial(h, perm)
        z = roots(poly)
        built = build_m1(z, poly.coefficients).entries
        jac = -1j * fd_jacobian("zeta1", z.zeros, 1e-6)
        assert np.abs(built - jac).max() <= 1e-5 * np.abs(built).max()

    def test_separation_metrics_recorded(self):
        # The sweep records each ordering's zero and coefficient separations;
        # ranks 1 and 2 at N = 2 are the mu = 2 and mu = 1 assignments.
        report = run_verification(RunConfig(n=2))
        coefficients = hermite_zeros(2).zeros[report.word - 1]
        for row, mu in enumerate((2, 1)):
            np.testing.assert_array_equal(coefficients[row], mu_coefficients_n2(mu))
            z = zeros_n2(mu)
            assert report.zero_separation[row] == pytest.approx(abs(z[0] - z[1]))
            assert report.coeff_separation[row] == pytest.approx(SQRT2)

    def test_singular_configurations_rejected(self):
        with pytest.raises(SingularConfiguration):
            build_m1([1.0, 1.0], [0.5, -0.5])
        with pytest.raises(SingularConfiguration):
            build_m1([1.0, -1.0], [0.5, 0.5])
        with pytest.raises(SingularConfiguration):
            build_m1([1.0, -1.0], [0.5, -0.5, 0.1])
        with pytest.raises(SingularConfiguration, match="need at least two zeros"):
            build_m1([1.0], [2.0])

    @pytest.mark.parametrize("builder", [build_m1, build_m2])
    def test_coincidence_is_exact_equality(self, builder):
        # Equal values anywhere in the vector coincide, 0.0 and -0.0
        # included; values one ulp apart do not.
        z, c = [1 + 1j, -2.0, 0.5j, 3.0], [0.25, -1.0, 2.0, 0.0]
        for what, index, value in (("zeros", 3, 1 + 1j), ("coefficients", 2, 0.25),
                                   ("coefficients", 0, -0.0)):
            bad = {"zeros": list(z), "coefficients": list(c)}
            bad[what][index] = value
            with pytest.raises(SingularConfiguration, match=f"coincident {what}"):
                builder(bad["zeros"], bad["coefficients"])
        close = list(c)
        close[2] = np.nextafter(0.25, 1.0)
        assert builder(z, close).entries.shape == (4, 4)


class TestBuildM2:
    def test_matches_closed_form_n2(self):
        for mu in (1, 2):
            z = zeros_n2(mu)
            built = build_m2(z, mu_coefficients_n2(mu)).entries
            reference = closed_form_m2_n2(z[0], z[1])
            scale = np.abs(reference).max()
            assert np.abs(built - reference).max() <= 1e-12 * scale

    def test_trace_is_five_for_any_zero_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            built = build_m2(z, mu_coefficients_n2(1)).entries
            assert np.trace(built) == pytest.approx(5.0, abs=1e-12)

    def test_four_decimal_zero_table_still_gives_exact_spectrum(self):
        # mu=1 zeros quoted to 4 decimals; spectrum must come out {1, 4, 9}
        # well inside 1e-3
        z = np.array([0.7090, -0.3545 - 1.2656j, -0.3545 + 1.2656j])
        c = np.array([0.0, SQRT32, -SQRT32])
        report = spectrum_check(build_m2(z, c), tol=1e-3)
        assert report.passed
        assert report.max_deviation < 1e-3
        lam = np.sort(report.eigenvalues.real)
        np.testing.assert_allclose(lam, [1.0, 4.0, 9.0], atol=1e-3)


class TestPaperFormulaOracle:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_build_matches_entry_formula(self, n):
        herm = hermite_zeros(n)
        count = math.factorial(n)
        seeded = np.random.default_rng(n).integers(1, count + 1, size=8)
        for rank in (1, count, *seeded.tolist()):
            poly = permuted_polynomial(herm, PermutationId.from_rank(n, rank))
            z = roots(poly).zeros
            c = poly.coefficients
            for builder, factor, power in ((build_m1, 1.0, 2), (build_m2, 6.0, 4)):
                built = builder(z, c).entries
                reference = paper_entries(z, c, factor, power)
                scale = np.abs(reference).max()
                assert np.abs(built - reference).max() <= 1e-12 * scale, \
                    f"{builder.__name__} n={n} rank={rank}"


class TestHermiteBasisCertificate:
    """A = I + K (D - C) built on the Hermite zeros x_j is upper triangular in
    the Hermite basis: with V_jm = H_m(x_j), m = 0..N-1, T = V^(-1) A V has
    a zero lower triangle and the diagonal 1..N (M1) or 1, 4, ..., N^2
    (M2).  D - C maps the values at the x_j of a polynomial of degree m to
    those of one of degree <= m (Ahmed, Bruschi, Calogero, Olshanetsky &
    Perelomov 1979), so the integers follow without an eigensolver."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind, factor, power", [(KIND_M1, 1.0, 2), (KIND_M2, 6.0, 4)])
    def test_triangular_with_integer_diagonal(self, n, kind, factor, power):
        x = hermite_zeros(n).zeros
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        coupling = 1.0 / diff ** power
        a = np.eye(n) + factor * (np.diag(coupling.sum(axis=1)) - coupling)
        v = npherm.hermvander(x, n - 1)
        v /= np.linalg.norm(v, axis=0)
        t = np.linalg.solve(v, a @ v)
        assert np.abs(np.tril(t, -1)).max() <= 1e-13 * np.abs(t).max()
        np.testing.assert_allclose(np.diag(t), expected_spectrum(kind, n), rtol=0, atol=1e-11)


class TestSpectrumCheck:
    def test_n2_mu1_integer_pair(self):
        z = zeros_n2(1)
        report = spectrum_check(build_m1(z, mu_coefficients_n2(1)))
        assert report.passed
        assert report.expected == (1, 2)
        assert report.max_deviation < 1e-10

    def test_n3_all_orderings_m1(self, ordering_sweep):
        for record in ordering_sweep(3):
            matrix = build_m1(record.zeros, record.poly.coefficients,
                              source_perm=record.perm)
            report = spectrum_check(matrix)
            assert report.passed, f"word {record.perm.word}"
            assert report.expected == (1, 2, 3)

    def test_hand_built_diagonal(self):
        from diospec.matrices import DiophantineMatrix

        matrix = DiophantineMatrix(KIND_M1, 2, np.diag([1.0, 2.0]))
        report = spectrum_check(matrix)
        assert report.passed
        assert report.max_deviation < 1e-14

    def test_tolerance_validation(self):
        matrix = build_m1(zeros_n2(1), mu_coefficients_n2(1))
        with pytest.raises(ValueError):
            spectrum_check(matrix, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        # inf would pass every matrix and nan fail every one.
        matrix = build_m1(zeros_n2(1), mu_coefficients_n2(1))
        with pytest.raises(ValueError, match="positive and finite"):
            spectrum_check(matrix, tol=tol)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def sorted_by_real_part(lam):
    """Each row of eigenvalues in the order of a stable argsort of its real parts."""
    return np.take_along_axis(lam, np.argsort(lam.real, axis=-1, kind="stable"), axis=-1)


class TestSpectrumStack:
    """One ``spectrum_stack`` call over all kinds gives each kind the bits
    of a call of its own."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_call_equals_one_kind_calls_on_sweep_rows(self, ordering_sweep, n):
        records = ordering_sweep(n)
        z = np.array([record.zeros.zeros for record in records])
        c = np.array([record.poly.coefficients for record in records])
        kinds = (KIND_M1, KIND_M2)
        entries, _ = build_stack(z, coupling_stack(c, kinds)[0])
        eigenvalues, deviation = spectrum_stack(entries, kinds)
        assert eigenvalues.shape == (len(records), 2, n) and deviation.shape == (len(records), 2)
        for k, kind in enumerate(kinds):
            alone, alone_deviation = spectrum_stack(entries[:, k:k + 1], (kind,))
            assert np.array_equal(_bits(eigenvalues[:, k]), _bits(alone[:, 0])), kind
            assert np.array_equal(_bits(deviation[:, k]), _bits(alone_deviation[:, 0])), kind

    def test_lapack_failure_is_non_convergence(self, monkeypatch):
        # The gufunc raises numpy's invalid flag, as LAPACK's failure does.
        monkeypatch.setattr(polynomials._umath_linalg, "eigvals", unconverged_eigvals)
        with pytest.raises(NonConvergence,
                           match="^eigenvalue computation failed: Eigenvalues did not converge$"):
            spectrum_stack(np.eye(2)[None, None], (KIND_M1,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_is_non_convergence(self, bad):
        entries = np.tile(np.eye(3, dtype=type(bad)), (2, 2, 1, 1))
        entries[1, 0, 2, 1] = bad
        with pytest.raises(NonConvergence, match="^eigenvalue computation failed: "
                                                 "Array must not contain infs or NaNs$"):
            spectrum_stack(entries, (KIND_M1, KIND_M2))

    def test_all_real_kind_beside_a_complex_pair(self):
        # numpy returns real eigenvalues only when every eigenvalue of the
        # stack is real.  So the stacked call returns the all-real kind's
        # eigenvalues as complex numbers; their imaginary parts must be +0.0,
        # as the real array of a call of its own gives once made complex.
        rng = np.random.default_rng(19)
        rotation = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        basis = rng.standard_normal((2, 3, 3))
        entries = np.empty((2, 2, 3, 3))
        entries[:, 0] = basis @ rotation @ np.linalg.inv(basis)
        entries[:, 1] = basis @ np.diag([1.0, 4.0, 9.0]) @ np.linalg.inv(basis)
        assert np.linalg.eigvals(entries[:, 1]).dtype == np.float64
        assert np.linalg.eigvals(entries).dtype == np.complex128
        kinds = (KIND_M1, KIND_M2)
        eigenvalues, deviation = spectrum_stack(entries, kinds)
        assert not np.signbit(eigenvalues[:, 1].imag).any()
        assert (eigenvalues[:, 1].imag == 0).all() and (eigenvalues[:, 0].imag != 0).any()
        for k, kind in enumerate(kinds):
            alone, alone_deviation = spectrum_stack(entries[:, k:k + 1], (kind,))
            assert np.array_equal(_bits(eigenvalues[:, k]), _bits(alone[:, 0])), kind
            assert np.array_equal(_bits(deviation[:, k]), _bits(alone_deviation[:, 0])), kind

    def test_conjugate_pair_lists_minus_im_first(self):
        # A real matrix with eigenvalues 2 -+ i and 3: LAPACK lists the +i
        # member of the pair first, and the sort by (re, im) swaps the pair.
        # The deviation is the argsort order's, bit for bit: conjugates lie
        # equally far from a real integer.
        rng = np.random.default_rng(23)
        basis = rng.standard_normal((3, 3))
        block = np.array([[2.0, -1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        entries = (basis @ block @ np.linalg.inv(basis))[None, None]
        by_real = sorted_by_real_part(np.linalg.eigvals(entries))
        assert by_real[0, 0, 0].real == by_real[0, 0, 1].real and by_real[0, 0, 0].imag > 0
        eigenvalues, deviation = spectrum_stack(entries, (KIND_M1,))
        assert np.array_equal(_bits(eigenvalues), _bits(by_real[..., [1, 0, 2]]))
        assert eigenvalues[0, 0, 0] == np.conj(eigenvalues[0, 0, 1])
        assert eigenvalues[0, 0, 0].imag < 0
        by_real_deviation = np.abs(by_real - _expected_stack(3, (KIND_M1,))).max(axis=-1)
        assert np.array_equal(_bits(deviation), _bits(by_real_deviation))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sort_matches_a_stable_argsort_by_real_part_on_sweep_rows(self, monkeypatch, n):
        # Every ordering's spectra are real, so sorting by (re, im) keeps
        # the order of a stable sort by real part, and the bits.  Both sort
        # one LAPACK output.
        words = np.array(list(itertools.permutations(range(1, n + 1))))
        kinds = (KIND_M1, KIND_M2)
        z, failed = roots_stack(hermite_zeros(n).zeros[words - 1])
        assert not failed.any()
        entries, _ = build_stack(z, _ordering_coupling(n, words, kinds))
        lapack = np.linalg.eigvals(entries).astype(complex)
        monkeypatch.setattr(polynomials._umath_linalg, "eigvals",
                            lambda a, signature: lapack.copy())
        eigenvalues, deviation = spectrum_stack(entries, kinds)
        by_real = sorted_by_real_part(lapack)
        assert np.array_equal(_bits(eigenvalues), _bits(by_real))
        by_real_deviation = np.abs(by_real - _expected_stack(n, kinds)).max(axis=-1)
        assert np.array_equal(_bits(deviation), _bits(by_real_deviation))


def _matched_deviation(a, b):
    """Largest |a_k - b_p(k)| under the pairing p of the two eigenvalue
    lists that makes it smallest, found over every permutation."""
    return min(np.abs(a - b[list(p)]).max() for p in itertools.permutations(range(b.size)))


def library_similarity(basis, c, kinds):
    """The library's ``_similarity`` of a stack of bases under the coupling
    ``coupling_stack`` builds from the coefficients."""
    return _similarity(basis, coupling_stack(c, kinds)[0])


def complex_stack(z, c, kind, similarity=library_similarity):
    """The complex M of one kind for every row of (B, N) zero and coefficient
    stacks, as the one-row builders form it: X^T = U^(-1) A_pi U by one
    stacked ``similarity`` against the library's powers U = V^T S, with S
    the powers of two in U's last row, then M = (S D')^(-1) X (S D'),
    D' = diag(p'(z)), with p'(z) and the scaling taken a row at a time."""
    powers = _powers(z)
    x = similarity(powers, c, (kind,))[:, 0]
    out = np.empty_like(x)
    for row, (zeros, scale, transposed) in enumerate(zip(z, powers[:, -1].real, x)):
        derivative = _set_diagonals(zeros[:, None] - zeros[None, :], 1.0).prod(axis=1) * scale
        out[row] = transposed.T * derivative / derivative[:, None]
    return out


def unscaled_powers(z):
    """V^T of every row of a (B, N) zero stack, [b, j-1, m] = z_m^(N-j), by
    the library's cumulative product, but up from the row of ones: the
    basis without its power-of-two column scale."""
    b, n = z.shape
    powers = np.empty((b, n, n), dtype=z.dtype)
    powers[:, -1] = 1.0
    powers[:, :-1] = z[:, None, :]
    rising = powers[:, ::-1]
    np.multiply.accumulate(rising, axis=1, out=rising)
    return powers


def real_basis(z, powers):
    """The sweep's real basis: Im of the column of each zero with Im z > 0,
    Re of every other column."""
    return np.where(z.imag[:, None, :] > 0, powers.imag, powers.real)


class TestSimilarity:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_singular_basis_is_linalg_error(self, dtype):
        # The second row's basis has equal columns, so LU meets an exact
        # zero pivot: the solve's invalid flag raises numpy's error.
        basis = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [2.0, 2.0]]], dtype=dtype)
        coupling = coupling_stack(np.array([[0.3, -1.2], [0.5, 2.0]], dtype=dtype),
                                  (KIND_M1, KIND_M2))[0]
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _similarity(basis, coupling)


class TestScaledBasis:
    """``_powers`` divides each column of V^T by a power of two, so each
    column is V^T's times that power to the bit, and a row's basis does not
    depend on the rest of its stack."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_scale_is_exact_and_row_local(self, n):
        # Sweep rows at up to 60 ranks spread over the n! orderings, and 60
        # random real coefficient rows whose scales run from 1e-3 to 1e3.
        rng = np.random.default_rng(n)
        ranks = np.unique(np.linspace(1, math.factorial(n), 60).astype(int)).tolist()
        words = np.array([word_from_rank(n, rank) for rank in ranks])
        random_rows = rng.standard_normal((60, n)) * 10.0 ** rng.uniform(-3, 3, (60, 1))
        for c in (hermite_zeros(n).zeros[words - 1], random_rows):
            z, failed = roots_stack(c)
            assert not failed.any()
            scaled, plain = _powers(z), unscaled_powers(z)
            # The last row holds the scale 2^e, each e its own column's.
            mantissa, exponent = np.frexp(scaled[:, -1].real)
            assert (mantissa == 0.5).all() and not scaled[:, -1].imag.any()
            e = (exponent - 1)[:, None, :]
            assert np.array_equal(_bits(scaled.real), _bits(np.ldexp(plain.real, e)))
            assert np.array_equal(_bits(scaled.imag), _bits(np.ldexp(plain.imag, e)))
            for basis in (scaled, real_basis(z, scaled)):
                largest = np.abs(basis).max(axis=1)
                assert (largest > 0).all() and (largest <= 1).all()
            for row in range(0, len(z), 7):
                alone = _powers(z[row:row + 1])[0]
                assert np.array_equal(_bits(alone), _bits(scaled[row]))


class TestRealBasis:
    """The sweep builds each matrix in the real basis of its conjugate zero
    pairs, so its spectra must be those of the complex M that the one-row
    builders return."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sweep_rows_match_the_complex_matrix(self, ordering_sweep, n):
        # Every ordering's complex M comes from one stacked build per kind,
        # which equals the one-row builders bit for bit on a spread of ranks.
        report = run_verification(RunConfig(n=n))
        records = ordering_sweep(n)
        z = np.array([record.zeros.zeros for record in records])
        c = np.array([record.poly.coefficients for record in records])
        spread = range(0, len(records), max(1, len(records) // 40))
        for k, (kind, builder) in enumerate(((KIND_M1, build_m1), (KIND_M2, build_m2))):
            complex_m = complex_stack(z, c, kind)
            for row in spread:
                one_row = builder(records[row].zeros, records[row].poly.coefficients)
                np.testing.assert_array_equal(complex_m[row], one_row.entries)
            eigenvalues, _ = spectrum_stack(complex_m[:, None], (kind,))
            deviation = np.abs(report.eigenvalues[:, k] - eigenvalues[:, 0]).max(axis=1)
            worst = int(deviation.argmax())
            assert deviation[worst] <= 1e-11, f"{kind} n={n} rank={records[worst].perm.ordinal}"

    def test_pairs_sharing_a_real_part(self):
        # The zeros of x^4 - 4x^3 + 11x^2 - 14x + 10 sorted by (re, im):
        # neighbours in that order are not conjugates.
        z = np.array([1 - 2j, 1 - 1j, 1 + 1j, 1 + 2j])
        c = np.array([-4.0, 11.0, -14.0, 10.0])
        np.testing.assert_array_equal(np.poly(z)[1:], c)
        entries, _ = build_stack(z[None], coupling_stack(c[None], (KIND_M1, KIND_M2))[0])
        for k, (kind, builder) in enumerate(((KIND_M1, build_m1), (KIND_M2, build_m2))):
            assert entries.dtype == np.float64
            real_form = np.linalg.eigvals(entries[0, k])
            complex_m = np.linalg.eigvals(builder(z, c).entries)
            scale = np.abs(complex_m).max()
            assert _matched_deviation(real_form, complex_m) <= 1e-13 * scale, kind

    def test_complex_coefficients_rejected(self):
        z = np.array([[1 - 1j, 1 + 1j]])
        coupling, _ = coupling_stack(np.array([[-2.0 + 1e-3j, 2.0]]), (KIND_M1,))
        with pytest.raises(ValueError, match="real coefficients"):
            build_stack(z, coupling)
        # Imaginary parts that are all exactly 0 are taken as real.
        real, _ = coupling_stack(np.array([[-2.0, 2.0]]), (KIND_M1,))
        taken, _ = coupling_stack(np.array([[-2.0 + 0j, 2.0]]), (KIND_M1,))
        assert taken.dtype == np.float64
        np.testing.assert_array_equal(build_stack(z, taken)[0], build_stack(z, real)[0])

    @pytest.mark.parametrize("what, row", [
        ("zeros", ([2.0, 2.0], [-4.0, 4.0])),
        ("coefficients", ([-0.5 - 0.75 ** 0.5 * 1j, -0.5 + 0.75 ** 0.5 * 1j], [1.0, 1.0])),
    ])
    def test_coincident_row_rejected(self, what, row):
        # One row with coincident zeros or coefficients refuses the whole stack.
        z, c = np.array([[1 - 1j, 1 + 1j], [-1.0, 2.0]]), np.array([[-2.0, 2.0], [-1.0, -2.0]])
        build_stack(z, coupling_stack(c, (KIND_M1,))[0])
        z[1], c[1] = row
        with pytest.raises(SingularConfiguration, match=f"coincident {what}"):
            build_stack(z, coupling_stack(c, (KIND_M1,))[0])

    @pytest.mark.parametrize("zeros", [
        [1 - 1j, 1 + 1j, 2 + 1j],
        [1 - 1j, 1 + 1.0000000000000002j, 3.0],
        [1 - 2j, 1 - 1j, 1 + 1j, 1 + 3j],
    ])
    def test_zeros_not_closed_under_conjugation_rejected(self, zeros):
        c = np.arange(1.0, len(zeros) + 1)
        with pytest.raises(ValueError, match="closed under conjugation"):
            build_stack(np.array([zeros]), coupling_stack(c[None], (KIND_M1,))[0])


class TestExpectedValues:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_formulas(self, n):
        assert expected_trace(KIND_M1, n) == n * (n + 1) / 2
        assert expected_trace(KIND_M2, n) == n * (n + 1) * (2 * n + 1) / 6
        assert expected_determinant(KIND_M1, n) == math.factorial(n)
        assert expected_determinant(KIND_M2, n) == math.factorial(n) ** 2
        np.testing.assert_array_equal(expected_spectrum(KIND_M2, n),
                                      expected_spectrum(KIND_M1, n) ** 2)

    def test_cached_stack_is_read_only(self):
        # Every spectrum check and render shares one cached array per (n, kinds).
        stack = _expected_stack(4, (KIND_M2, KIND_M1))
        np.testing.assert_array_equal(stack, [[1, 4, 9, 16], [1, 2, 3, 4]])
        assert stack is _expected_stack(4, (KIND_M2, KIND_M1))
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 0


class TestUnknownKind:
    @pytest.mark.parametrize("call", [
        lambda: expected_spectrum("M3", 3),
        lambda: expected_trace("m1", 3),
        lambda: permutation_similarity_check([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], "M3", (1, 2)),
        lambda: spectrum_stack(np.eye(3)[None, None], ("m1",)),
        lambda: coupling_stack(np.array([[1.0, 2.0, 4.0]]), ("M3",)),
    ])
    def test_unknown_kind_rejected(self, call):
        with pytest.raises(ValueError, match="unknown kind"):
            call()


class TestPermutationSimilarity:
    def test_double_swap_is_identity(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = hermite_zeros(4).zeros
        swapped = z.copy()
        swapped[[0, 2]] = swapped[[2, 0]]
        twice = swapped.copy()
        twice[[0, 2]] = twice[[2, 0]]
        np.testing.assert_array_equal(twice, z)
        first = build_m1(z, c).entries
        second = build_m1(twice, c).entries
        assert np.abs(first - second).max() == 0.0

    def test_n2_swap(self):
        z = zeros_n2(1)
        deviation = permutation_similarity_check(z, mu_coefficients_n2(1),
                                                 KIND_M1, (1, 2))
        assert deviation < 1e-12

    def test_n4_random_zeros_both_kinds(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = hermite_zeros(4).zeros
        for kind in (KIND_M1, KIND_M2):
            for swap in ((1, 2), (1, 4), (2, 3), (3, 4)):
                assert permutation_similarity_check(z, c, kind, swap) < 1e-10

    def test_swap_validation(self):
        z = zeros_n2(1)
        with pytest.raises(ValueError):
            permutation_similarity_check(z, mu_coefficients_n2(1), KIND_M1, (2, 1))


class TestMatrixRelations:
    def test_square_of_m1_differs_for_generic_zeros(self):
        # For generic zeros (coefficients from the Vieta map, not Hermite
        # zeros) the fourth-power matrix is not the square of the
        # second-power one, even though it is for Hermite-seeded data.
        rng = np.random.default_rng(6)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = np.poly(z)[1:]
        m1 = build_m1(z, c).entries
        m2 = build_m2(z, c).entries
        assert np.abs(m2 - m1 @ m1).max() > 1e-3

    def test_square_coincides_for_hermite_seeded_pair(self):
        # Sanity record of the special structure: with Hermite-zero
        # coefficients the two constructions satisfy M2 = M1 @ M1.
        z = zeros_n2(1)
        c = mu_coefficients_n2(1)
        m1 = build_m1(z, c).entries
        m2 = build_m2(z, c).entries
        assert np.abs(m2 - m1 @ m1).max() < 1e-12


def square_residual(t1, t2):
    """max |T2 - T1 T1| of each matrix pair of two stacks, and the bound
    16 N eps max(|T1| |T1| + |T2|) it is held to, eps = 2^-52: N eps
    |T1| |T1| bounds the product's rounding, and the factor 16 the entries'
    own (measured: at most 3.4 N eps at N <= 7, in both bases)."""
    scale = (np.abs(t1) @ np.abs(t1) + np.abs(t2)).max(axis=(-2, -1))
    residual = np.abs(t2 - t1 @ t1).max(axis=(-2, -1))
    return residual, 16 * t1.shape[-1] * 2.0 ** -52 * scale


class TestSquareRelation:
    """For Hermite-seeded coefficients A2 = A1 A1, and both kinds share the
    basis, so M2 = M1 M1 for every ordering, and T2 = T1 T1 in the sweep's
    real basis: a relation between the two kinds that the sweep checks
    independently."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_ordering(self, ordering_sweep, n):
        records = ordering_sweep(n)
        z = np.array([record.zeros.zeros for record in records])
        c = np.array([record.poly.coefficients for record in records]).real
        entries, _ = build_stack(z, coupling_stack(c, (KIND_M1, KIND_M2))[0])
        residual, bound = square_residual(entries[:, 0], entries[:, 1])
        assert (residual <= bound).all(), f"real basis, rank {int(residual.argmax()) + 1}"
        m1 = np.array([build_m1(r.zeros, r.poly.coefficients).entries for r in records])
        m2 = np.array([build_m2(r.zeros, r.poly.coefficients).entries for r in records])
        residual, bound = square_residual(m1, m2)
        assert (residual <= bound).all(), f"complex M, rank {int(residual.argmax()) + 1}"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sorted_random_coefficients_break_it(self, n):
        # Negative control: sorted normal coefficients in place of the
        # Hermite zeros miss the bound by far (measured: by at least 5e12).
        c = np.sort(np.random.default_rng(n).standard_normal((20, n)), axis=1)
        z, failed = roots_stack(c)
        assert not failed.any()
        entries, _ = build_stack(z, coupling_stack(c, (KIND_M1, KIND_M2))[0])
        residual, bound = square_residual(entries[:, 0], entries[:, 1])
        assert (residual > 1e6 * bound).all()


class TestPermutedCoupling:
    """The sweep gathers each ordering's A_pi = P A P^T from the A that
    ``coupling_stack`` builds once on the ascending Hermite zeros, and takes
    the coefficient separation from them too."""

    @pytest.mark.parametrize("n, orderings", [
        *((n, "all") for n in range(2, 8)), (12, ("sample", 200)), (30, ("sample", 200))])
    def test_gather_matches_the_direct_build(self, n, orderings):
        # Against A_pi built from the ordering's own coefficients: off the
        # diagonal bit for bit; on it within 2 N ulp of |1 + K D|, since the
        # row sum runs in another order (measured: at most 3 ulp at N <= 12,
        # 6 at N = 30).  The separation is the minimum over the same
        # differences: bit for bit.
        word = np.array([word_from_rank(n, rank)
                         for rank in RunConfig(n=n, orderings=orderings).ordering_ranks()])
        coefficients = hermite_zeros(n).zeros[word - 1]
        kinds = (KIND_M1, KIND_M2)
        gathered, separation = _ordering_coupling(n, word, kinds), _sorted_coupling(n, kinds)[1]
        direct, _ = coupling_stack(coefficients, kinds)
        assert gathered.shape == direct.shape == (len(word), 2, n, n)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(_bits(gathered[..., off]), _bits(direct[..., off]))
        diagonal = np.arange(n)
        got, want = gathered[..., diagonal, diagonal], direct[..., diagonal, diagonal]
        assert (np.abs(got - want) <= 2 * n * np.spacing(np.abs(want))).all()
        assert np.array_equal(_bits(np.full(len(word), separation)),
                              _bits(_differences(coefficients)[1]))

    def test_cached_coupling_is_read_only(self):
        # One cached A per (n, kinds), shared by every chunk of every sweep.
        coupling, separation = _sorted_coupling(4, (KIND_M2, KIND_M1))
        assert coupling is _sorted_coupling(4, (KIND_M2, KIND_M1))[0]
        assert isinstance(separation, float)
        with pytest.raises(ValueError, match="read-only"):
            coupling[0, 0] = 0.0


class TestLargeOrder:
    def test_sample_at_n100_passes(self, monkeypatch):
        # Past the order cap the sweep still holds every check: the closed
        # form of W^(-1) needs no elementary symmetric functions, whose
        # recurrence failed every check here.
        for module in ("hermite", "report"):
            monkeypatch.setattr(f"diospec.{module}.MAX_ORDER", 100)
        report = run_verification(RunConfig(n=100, orderings=("sample", 10), seed=1))
        assert report.aggregate["pass"] == report.aggregate["checks"] == 20

    def test_sample_at_n200_needs_the_scaled_basis(self, monkeypatch):
        # The columns of V^T span 10^228 at N = 200.  Scaled by powers of
        # two, every check of a sample passes (measured: worst 3.9e-10);
        # the same rows' T on the unscaled basis miss the tolerance
        # (measured: 4 of the 12 checks, worst 3.0e2).
        for module in ("hermite", "report"):
            monkeypatch.setattr(f"diospec.{module}.MAX_ORDER", 200)
        kinds = (KIND_M1, KIND_M2)
        report = run_verification(RunConfig(n=200, orderings=("sample", 6), seed=7))
        assert report.aggregate["pass"] == report.aggregate["checks"] == 12
        z, failed = roots_stack(hermite_zeros(200).zeros[report.word - 1])
        assert not failed.any()
        unscaled = _similarity(real_basis(z, unscaled_powers(z)),
                               _ordering_coupling(200, report.word, kinds))
        _, deviation = spectrum_stack(unscaled, kinds)
        assert (deviation > 1e-6).any()


def pow_similarity(basis, c, kinds):
    """The build of ``_similarity`` under ``coupling_stack``'s A = I + K (D - C),
    with each coupling taken as 1 / (c_j - c_s) ** P, numpy's power (libm
    ``pow`` for P = 4), and every other operation in the library's order: the
    reference for the squared coupling."""
    cdiff = c[:, :, None] - c[:, None, :]
    diagonal = np.arange(c.shape[1])
    cdiff[:, diagonal, diagonal] = 1.0
    products = []
    for kind in kinds:
        factor, power = {KIND_M1: (1.0, 2), KIND_M2: (6.0, 4)}[kind]
        inv_pow = 1.0 / cdiff ** power
        inv_pow[:, diagonal, diagonal] = 0.0
        coupling = inv_pow * -factor
        coupling[:, diagonal, diagonal] = 1.0 + factor * inv_pow.sum(axis=2)
        products.append(coupling @ basis)
    solved = np.linalg.solve(basis, np.concatenate(products, axis=2))
    return solved.reshape(basis.shape[:2] + (len(kinds), -1)).transpose(0, 2, 1, 3)


class TestCouplingPowers:
    """The build takes the coupling powers as products of the square of the
    coefficient differences.  M1's square is numpy's ``** 2`` bit for bit;
    M2's fourth power differs from ``** 4`` by rounding only."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_products_match_the_power_reference(self, n):
        # Sweep rows at up to 60 ranks spread over the n! orderings, and 60
        # random real coefficient rows.  M2 is held within 8 N eps of the
        # largest reference entry, eps = 2^-52 (measured: at most 1.4 N eps);
        # M1 equals the reference exactly, in the stack and one row at a time.
        rng = np.random.default_rng(n)
        ranks = np.unique(np.linspace(1, math.factorial(n), 60).astype(int)).tolist()
        words = np.array([word_from_rank(n, rank) for rank in ranks])
        for c in (hermite_zeros(n).zeros[words - 1], rng.standard_normal((60, n))):
            z, failed = roots_stack(c)
            assert not failed.any()
            entries, _ = build_stack(z, coupling_stack(c, (KIND_M1, KIND_M2))[0])
            reference = pow_similarity(real_basis(z, _powers(z)), c, (KIND_M1, KIND_M2))
            np.testing.assert_array_equal(entries[:, 0], reference[:, 0])
            bound = 8 * n * 2.0 ** -52 * np.abs(reference[:, 1]).max(axis=(1, 2))
            assert (np.abs(entries[:, 1] - reference[:, 1]).max(axis=(1, 2)) <= bound).all()
            for row in range(0, len(c), 6):
                one = slice(row, row + 1)
                np.testing.assert_array_equal(
                    build_m1(z[row], c[row]).entries,
                    complex_stack(z[one], c[one], KIND_M1, pow_similarity)[0])
                one_row = complex_stack(z[one], c[one], KIND_M2, pow_similarity)[0]
                assert (np.abs(build_m2(z[row], c[row]).entries - one_row).max()
                        <= 8 * n * 2.0 ** -52 * np.abs(one_row).max())
