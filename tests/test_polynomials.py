import cmath
import math
from itertools import combinations, islice, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diospec.polynomials as polynomials
from diospec.errors import NonConvergence
from diospec.hermite import hermite_zeros
from diospec.polynomials import (
    MonicPolynomial,
    ZeroVector,
    _differences,
    _polish,
    _vieta,
    _vieta_jacobian,
    as_complex_vector,
    esp_table,
    evaluate,
    roots,
    roots_stack,
)

SQRT2 = math.sqrt(2.0)
SQRT32 = math.sqrt(1.5)


def multiset_deviation(actual, expected):
    a = sorted(np.asarray(actual, dtype=complex), key=lambda z: (z.real, z.imag))
    b = sorted(np.asarray(expected, dtype=complex), key=lambda z: (z.real, z.imag))
    return max(abs(x - y) for x, y in zip(a, b))


def quadratic_roots(b, c):
    """Roots of z^2 + b z + c by the quadratic formula (test oracle)."""
    disc = cmath.sqrt(b * b - 4.0 * c)
    return [(-b + disc) / 2.0, (-b - disc) / 2.0]


def sigma_brute(j, z):
    """Elementary symmetric function e_j(z) by subset enumeration (test oracle)."""
    return complex(sum(math.prod(t) for t in combinations(z, j)))


def vieta(z):
    """The library's Vieta expansion of one zero vector, as an array."""
    return np.array(_vieta(np.asarray(z, dtype=complex)))


def vieta_jacobian(z):
    """The library's Vieta Jacobian of one zero vector, as an (N, N) array."""
    return _vieta_jacobian(np.asarray(z, dtype=complex)[None])[0]


def sigmas(z):
    """e_1(z), ..., e_N(z) read off the Vieta coefficients: c_j = (-1)^j e_j."""
    c = vieta(z)
    return (-1.0) ** np.arange(1, c.size + 1) * c


def sigmas_excluding(z):
    """Entry [j-1, m-1] is e_{j-1} of the zeros other than z_m, read off the
    Vieta Jacobian: d c_j / d z_m = (-1)^j e_{j-1}(z without z_m)."""
    w = vieta_jacobian(z)
    return (-1.0) ** np.arange(1, len(w) + 1)[:, None] * w


@st.composite
def zero_vectors(draw, min_n=2, max_n=8, min_sep=1e-3):
    n = draw(st.integers(min_n, max_n))
    entries = draw(st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    z = np.asarray(entries, dtype=complex)
    assume(_differences(z)[1] > min_sep)
    return z


class TestEvaluate:
    def test_mu1_quadratic_at_zero(self):
        # z^2 + z/sqrt(2) - 1/sqrt(2), the mu=1 coefficient assignment at n=2
        p = MonicPolynomial([1 / SQRT2, -1 / SQRT2])
        assert evaluate(p, 0.0) == pytest.approx(-1 / SQRT2, abs=1e-15)
        assert abs(evaluate(p, 0.0) - (-0.70711)) < 1e-5

    def test_pure_monomial(self):
        p = MonicPolynomial(np.zeros(7))
        assert evaluate(p, 1.0) == pytest.approx(1.0, abs=0)

    def test_mu4_cubic_near_tabulated_zero(self):
        # z^3 + sqrt(3/2) z^2 - sqrt(3/2) z has a zero quoted as 0.6524
        p = MonicPolynomial([SQRT32, -SQRT32, 0.0])
        assert abs(evaluate(p, 0.6524)) < 5e-4

    def test_array_argument(self):
        p = MonicPolynomial([0.0, -1.0])
        values = evaluate(p, np.array([1.0, -1.0, 2.0]))
        np.testing.assert_allclose(values, [0.0, 0.0, 3.0], atol=1e-15)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            MonicPolynomial([1.0, np.nan])
        with pytest.raises(ValueError):
            MonicPolynomial([np.inf, 0.0])


class TestPolyFromZeros:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(vieta([1.0, -1.0]), [0.0, -1.0], atol=1e-15)

    def test_mu1_zeros_reproduce_coefficients(self):
        # the zeros of z^2 + z/sqrt(2) - 1/sqrt(2) must Vieta back to it
        zeros = quadratic_roots(1 / SQRT2, -1 / SQRT2)
        np.testing.assert_allclose(vieta(zeros), [1 / SQRT2, -1 / SQRT2], atol=1e-14)

    def test_round_trip_degree_five(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        recovered = roots(MonicPolynomial(np.poly(z)[1:]))
        assert multiset_deviation(recovered.zeros, z) < 1e-10


class TestRoots:
    def test_factorable_quadratic(self):
        found = roots(MonicPolynomial([0.0, -1.0]))
        np.testing.assert_allclose(found.zeros, [-1.0, 1.0], atol=1e-14)

    def test_n2_closed_form_both_orderings(self):
        # z^2 + (-1)^mu (1 - z)/sqrt(2) has zeros
        # ((-1)^mu +- sqrt(1 - (-1)^mu 4 sqrt(2))) / (2 sqrt(2))
        for mu in (1, 2):
            sign = (-1.0) ** mu
            p = MonicPolynomial([-sign / SQRT2, sign / SQRT2])
            expected = [(sign + s * cmath.sqrt(1 - sign * 4 * SQRT2)) / (2 * SQRT2)
                        for s in (+1, -1)]
            assert multiset_deviation(roots(p).zeros, expected) < 1e-13

    def test_mu5_cubic_against_quadratic_oracle(self):
        # z^3 - sqrt(3/2) z^2 + sqrt(3/2) z = z (z^2 - sqrt(3/2) z + sqrt(3/2))
        p = MonicPolynomial([-SQRT32, SQRT32, 0.0])
        expected = [0.0] + quadratic_roots(-SQRT32, SQRT32)
        assert multiset_deviation(roots(p).zeros, expected) < 1e-12
        # tabulated 4-decimal form of the same pair
        assert multiset_deviation(
            roots(p).zeros, [0.0, 0.6124 + 0.9219j, 0.6124 - 0.9219j]) < 5e-4

    def test_output_sorted_lexicographically(self):
        z = roots(MonicPolynomial([0.0, 0.0, -1.0]))  # cube roots of unity
        order = sorted(range(3), key=lambda i: (z.zeros[i].real, z.zeros[i].imag))
        assert order == [0, 1, 2]

    def test_row_order_is_lexsort_by_real_then_imaginary(self, monkeypatch):
        # Each row is sorted as lexsort((imag, real)) sorts it, ties kept in
        # place: conjugate pairs that share a real part, and entries that
        # differ only in the sign of a zero part.  The polish is replaced so
        # that the rows to sort are exactly these.
        rows = np.array([
            [1 + 2j, 1 - 1j, 1 + 1j, 1 - 2j],
            [complex(2, -0.0), complex(2, 0.0), complex(-1, 0.0), complex(-1, -0.0)],
            [complex(0.0, 1), complex(-0.0, -1), complex(0.0, -0.0), complex(-0.0, 0.0)],
            [complex(3, 0.0), complex(3, -0.0), 1 + 1j, complex(1, -1)],
        ])
        monkeypatch.setattr(polynomials, "_polish",
                            lambda c, z: (rows.copy(), np.zeros(rows.shape)))
        zeros, failed = roots_stack(np.ones((4, 4)))
        assert not failed.any()
        expected = np.take_along_axis(rows, np.lexsort((rows.imag, rows.real), axis=-1), axis=1)
        assert np.array_equal(zeros.view(np.uint64), expected.view(np.uint64))

    def test_conjugate_pairs_sort_by_imaginary_part(self):
        # x^4 - 4x^3 + 11x^2 - 14x + 10 has zeros 1 -+ 2i and 1 -+ i.  In
        # double precision the two pairs' real parts differ in the last bit,
        # and each pair's are equal, so its imaginary parts set its order.
        zeros, failed = roots_stack(np.array([[-4.0, 11.0, -14.0, 10.0]]))
        assert not failed.any()
        row = zeros[0]
        assert row.tolist() == sorted(row.tolist(), key=lambda z: (z.real, z.imag))
        assert row[0].real == row[1].real and row[2].real == row[3].real
        np.testing.assert_allclose(row.imag, [-2.0, 2.0, -1.0, 1.0], atol=1e-13)

    def test_stacked_zeros_match_one_row_labels(self, ordering_sweep):
        # An ordering checked alone is the same computation as its row of a
        # sweep: a one-row ``roots`` call on the complex coefficients of a
        # MonicPolynomial takes the real LAPACK routine, as the sweep's real
        # coefficient stack does, and returns the same bits.
        for n in range(2, 8):
            for record in ordering_sweep(n):
                alone = roots(record.poly).zeros
                assert np.array_equal(alone.view(np.float64),
                                      record.zeros.zeros.view(np.float64)), \
                    f"n = {n}, rank {record.perm.ordinal}"

    def test_degree_one(self):
        found = roots(MonicPolynomial([2.5 + 1j]))
        np.testing.assert_allclose(found.zeros, [-2.5 - 1j])

    @pytest.mark.parametrize("n", [9, 11])
    def test_converges_with_zero_constant_term(self, n):
        # The first 200 orderings that put the central Hermite zero 0.0 last:
        # c_N = 0 makes 0 an exact root beside zeros with |z|^N far above 1.
        middle = (n + 1) // 2
        rest = [k for k in range(1, n + 1) if k != middle]
        words = [word + (middle,) for word in islice(permutations(rest), 200)]
        coeffs = hermite_zeros(n).zeros[np.array(words) - 1].astype(complex)
        assert np.all(coeffs[:, -1] == 0)
        zeros, failed = roots_stack(coeffs)
        assert not failed.any()
        for c, z in zip(coeffs, zeros):
            recovered = np.poly(z)[1:]
            assert np.max(np.abs(recovered - c)) < 1e-8

    def test_unreachable_bound_fails(self):
        # No zero in double precision meets |p(z)| <= 1e-300 * scale.
        p = MonicPolynomial([0.3, -0.2, 0.9, 0.1, -0.4])
        with pytest.raises(NonConvergence):
            roots(p, tol=1e-300)
        stack = np.array([p.coefficients, [0.1, 0.2, -0.3, 0.4, 0.5]])
        zeros, failed = roots_stack(stack, tol=1e-300)
        assert failed.all()
        assert np.isnan(zeros).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        stack = np.array([[0.3, -0.2, 0.9], [0.1, bad, 0.4]])
        with pytest.raises(ValueError, match="finite"):
            roots_stack(stack)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            roots(MonicPolynomial([0.0, -1.0]), tol=0.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if _differences(z)[1] <= 1e-3:
                continue
            recovered = roots(MonicPolynomial(np.poly(z)[1:]))
            assert multiset_deviation(recovered.zeros, z) < 1e-8


def _horner_reference(c, x):
    """Value and derivative of each row's polynomial by one full Horner pass."""
    val, der = x + c[:, 0, None], np.ones_like(x)
    for k in range(1, c.shape[1]):
        der *= x
        der += val
        val *= x
        val += c[:, k, None]
    return val, der


def polish_reference(c, z):
    """The guarded two-step Newton polish with a full value-and-derivative
    pass and both merges after each step, the last step's included."""
    tiny = np.finfo(float).tiny
    val, der = _horner_reference(c, z)
    best = np.abs(val)
    for _ in range(2):
        der = np.where(np.abs(der) < tiny, tiny, der)
        candidate = z - val / der
        cval, cder = _horner_reference(c, candidate)
        resid = np.abs(cval)
        improved = resid <= best
        z = np.where(improved, candidate, z)
        val = np.where(improved, cval, val)
        der = np.where(improved, cder, der)
        best = np.minimum(resid, best)
    return z, best


class TestPolish:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_the_two_full_pass_reference(self, n):
        # Complex coefficients of seeded zeros, polished from starts at
        # several distances, so steps are both kept and refused; and real
        # Hermite orderings from their companion eigenvalues, as in a sweep.
        rng = np.random.default_rng(n)
        true = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
        offset = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
        starts = true + np.array([0.0, 1e-14, 1e-10, 1e-6, 1e-4, 1e-3, 1e-2, 0.1])[:, None] * offset
        words = np.array([rng.permutation(n) for _ in range(8)])
        real = hermite_zeros(n).zeros.real[words]
        companion = np.zeros((8, n, n))
        companion[:, 0, :] = -real
        companion.reshape(8, n * n)[:, n::n + 1] = 1.0
        cases = ((esp_table(-true)[:, 1:], starts),
                 (real, np.linalg.eigvals(companion).astype(complex)))
        for c, z in cases:
            got, expected = _polish(c, z), polish_reference(c, z)
            for a, b in zip(got, expected):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSigma:
    def test_void_product(self):
        assert esp_table(np.array([3.0, 4.0]))[0] == 1.0

    def test_small_integer_case(self):
        assert sigmas([1.0, 2.0, 3.0])[1] == pytest.approx(11.0)

    def test_top_degree_is_full_product(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        product = complex(np.prod(z))
        assert abs(sigmas(z)[8] - product) <= 1e-12 * abs(product)

    @given(zero_vectors(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, z):
        ours = sigmas(z)
        for j in range(1, z.size + 1):
            ref = sigma_brute(j, z)
            assert abs(ours[j - 1] - ref) < 1e-10 * (1 + abs(ref))


class TestSigmaExcluding:
    def test_single_exclusion(self):
        assert sigmas_excluding([5.0, 2.0, 3.0])[1, 0] == pytest.approx(5.0)

    def test_pairs_excluding_index_two(self):
        # pairs from {1, 2, 4}: 1*2 + 1*4 + 2*4 = 14
        assert sigmas_excluding([1.0, 7.0, 2.0, 4.0])[2, 1] == pytest.approx(14.0)

    @given(zero_vectors(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, z):
        ours = sigmas_excluding(z)
        for m in range(1, z.size + 1):
            for j in range(1, z.size + 1):
                ref = sigma_brute(j - 1, np.delete(z, m - 1))
                assert abs(ours[j - 1, m - 1] - ref) < 1e-10 * (1 + abs(ref))

    @given(zero_vectors(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_splitting_recurrence(self, z):
        # Partitioning j-subsets by membership of index m gives
        # e_j(z) = e_j(z without z_m) + z_m e_{j-1}(z without z_m), where
        # e_N of the N - 1 other zeros vanishes.
        n = z.size
        full, excluding = sigmas(z), sigmas_excluding(z)
        for m in range(1, n + 1):
            for j in range(1, n + 1):
                without = excluding[j, m - 1] if j < n else 0.0
                rhs = without + z[m - 1] * excluding[j - 1, m - 1]
                assert abs(full[j - 1] - rhs) < 1e-10 * (1 + abs(full[j - 1]))


class TestVietaConsistency:
    @given(zero_vectors(max_n=10, min_sep=0.0))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_are_signed_sigmas(self, z):
        # The scalar expansion ``_vieta`` against the stacked table.
        c = vieta(z)
        e = esp_table(z)
        for m in range(1, z.size + 1):
            expected = (-1.0) ** m * e[m]
            assert abs(c[m - 1] - expected) <= 1e-12 * (1 + abs(expected))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_scalar_expansion_matches_the_table(self, n):
        # ``_vieta`` runs the recurrence on Python scalars and ``esp_table``
        # on numpy's kernels, which may round complex products differently,
        # so the two need not agree bit for bit.  The bound is fixed from the
        # dtype: each term of e_k meets at most N multiplications and N
        # additions, which gives the recurrence's forward-error bound
        # gamma_2N e_k(|z|), with gamma_m = m u / (1 - m u) and u = 2^-53;
        # the two expansions differ by at most twice that.
        u = 2.0 ** -53
        gamma = 2 * n * u / (1 - 2 * n * u)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
        scalar = np.array([_vieta(row) for row in z])
        table = esp_table(-z)[:, 1:]
        bound = 2 * gamma * esp_table(np.abs(z))[:, 1:].real
        assert (np.abs(scalar - table) <= bound).all()


class TestVietaJacobianApply:
    """The Vieta Jacobian applied to a direction v: the first-order change of
    the monic coefficients when the zeros move by v."""

    def test_zero_direction(self):
        z = np.array([0.3 + 0.1j, -0.5, 0.8j])
        np.testing.assert_allclose(vieta_jacobian(z) @ np.zeros(3), 0.0)

    def test_degree_three_closed_form(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = vieta_jacobian(z) @ v
        w1 = -(v[0] + v[1] + v[2])
        w2 = v[0] * (z[1] + z[2]) + v[1] * (z[0] + z[2]) + v[2] * (z[0] + z[1])
        w3 = -(v[0] * z[1] * z[2] + v[1] * z[0] * z[2] + v[2] * z[0] * z[1])
        np.testing.assert_allclose(w, [w1, w2, w3], atol=1e-12)
        # Degree one: c_1 = -z_1.
        np.testing.assert_array_equal(vieta_jacobian([2.0]) @ [1.0], [-1.0])

    def test_against_central_difference(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h = 1e-6
        fd = (np.poly(z + h * v)[1:] - np.poly(z - h * v)[1:]) / (2 * h)
        w = vieta_jacobian(z) @ v
        assert np.max(np.abs(w - fd)) <= 1e-6 * np.max(np.abs(w))

    @given(zero_vectors(max_n=7, min_sep=0.0),
           st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, z, alpha, beta):
        rng = np.random.default_rng(z.size)
        v1 = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        v2 = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        w = vieta_jacobian(z)
        combined = w @ (alpha * v1 + beta * v2)
        split = alpha * (w @ v1) + beta * (w @ v2)
        scale = max(1.0, np.max(np.abs(split)))
        assert np.max(np.abs(combined - split)) <= 1e-10 * scale


class TestZeroVector:
    def test_immutable(self):
        z = ZeroVector([1.0, 2.0])
        with pytest.raises(ValueError):
            z.zeros[0] = 5.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="zeros must be non-empty"):
            as_complex_vector([], "zeros")
        with pytest.raises(ValueError, match="zeros must be non-empty"):
            ZeroVector([])


class TestDifferences:
    def test_single_entry_has_infinite_separation(self):
        assert _differences(np.array([0.5]))[1] == math.inf
        assert _differences(np.array([0.5 + 2j]))[1] == math.inf

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_matches_brute_force(self, dtype):
        rng = np.random.default_rng(16)
        values = rng.standard_normal((6, 5)).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal((6, 5))
        values[2, 4] = values[2, 1]  # a coincident pair
        diff, separation = _differences(values)
        assert diff.shape == (6, 5, 5) and separation.shape == (6,)
        for row, matrix, gap in zip(values, diff, separation):
            pairs = list(permutations(range(row.size), 2))
            assert all(matrix[i, j] == row[i] - row[j] for i, j in pairs)
            assert all(matrix[i, i] == math.inf for i in range(row.size))
            # numpy's vectorised complex modulus may differ from the scalar
            # one in the last bit; a real modulus is exact.
            brute = min(abs(row[i] - row[j]) for i, j in pairs)
            assert gap == pytest.approx(brute, rel=1e-15 if dtype is complex else 0, abs=0)
            assert _differences(row)[1] == gap
        assert separation[2] == 0.0
