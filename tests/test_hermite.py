import math
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from numpy.polynomial import hermite as npherm

from conftest import field

from diospec.errors import DimensionMismatch, NonConvergence
from diospec.hermite import (
    PermutationId,
    _coefficient_rate,
    hermite_zeros,
    lexicographic_rank,
    permuted_polynomial,
    rank_ordered_words,
    word_from_rank,
)
from diospec.polynomials import _differences

SQRT32 = math.sqrt(1.5)


def flow_residual(c, order):
    """Max |rate| of the coefficient flow of the given order at c, by the
    kernel and difference pass ``hermite_zeros`` takes its residuals from."""
    c = np.asarray(c, dtype=float)
    return float(np.max(np.abs(_coefficient_rate(c, _differences(c)[0], order))))


def by_word(word):
    """The ordering of a permutation word, with the rank it implies."""
    return PermutationId(len(word), word, lexicographic_rank(word))


def unit(n):
    """Hermite-series coefficients of H_n alone, as numpy's hermite module
    takes them."""
    return np.eye(n + 1)[n]


class TestZeros:
    def test_degree_two(self):
        h = hermite_zeros(2)
        np.testing.assert_allclose(h.zeros, [-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-15)

    def test_degree_three(self):
        h = hermite_zeros(3)
        np.testing.assert_allclose(h.zeros, [-SQRT32, 0.0, SQRT32], atol=1e-15)

    def test_degree_six_extreme_zero(self):
        # cross-checked against Newton iteration on the recurrence from a
        # dense sign-change scan
        h = hermite_zeros(6)
        assert h.zeros[-1] == pytest.approx(2.350604973674492, abs=1e-12)
        assert abs(h.zeros[-1] - 2.3506) < 1e-4

    @pytest.mark.parametrize("n", range(2, 21))
    def test_antisymmetry_and_zero_value(self, n):
        h = hermite_zeros(n)
        assert np.all(np.diff(h.zeros) > 0)
        np.testing.assert_allclose(h.zeros, -h.zeros[::-1], atol=1e-12)
        if n % 2:
            assert h.zeros[n // 2] == 0.0
        value = npherm.hermval(h.zeros, unit(n))
        assert np.max(np.abs(value)) <= 1e-8 * np.max(np.abs(npherm.herm2poly(unit(n))))

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_golub_welsch_nodes(self, n):
        # scipy's Gauss-Hermite nodes, an implementation independent of
        # numpy's hermgauss, which ours are.
        special = pytest.importorskip("scipy.special")
        reference = special.roots_hermite(n)[0]
        zeros = hermite_zeros(n).zeros
        assert np.max(np.abs(zeros - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_match_40_digit_zeros(self):
        # Newton on the three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1},
        # in 40-digit arithmetic, from each float zero.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n in range(2, 31):
                for zero in hermite_zeros(n).zeros:
                    x = mpmath.mpf(float(zero))
                    for _ in range(4):
                        prev, cur = mpmath.mpf(0), mpmath.mpf(1)
                        for k in range(n):
                            prev, cur = cur, 2 * x * cur - 2 * k * prev
                        x -= cur / (2 * n * prev)
                    assert abs(x - mpmath.mpf(float(zero))) <= 1e-15, (n, float(zero))

    @pytest.mark.parametrize("n", range(2, 21))
    def test_residuals_recorded_and_small(self, n):
        h = hermite_zeros(n)
        assert h.residual_first < 1e-10
        assert h.residual_second < 1e-10
        assert h.residual_first == flow_residual(h.zeros, 1)
        assert h.residual_second == flow_residual(h.zeros, 2)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            hermite_zeros(1)
        with pytest.raises(ValueError):
            hermite_zeros(31)

    def test_restored_cap_holds_again(self, monkeypatch):
        # Zeros computed while the cap was raised do not outlive it.
        monkeypatch.setattr("diospec.hermite.MAX_ORDER", 100)
        assert hermite_zeros(100).order == 100
        monkeypatch.undo()
        with pytest.raises(ValueError, match="order must be in 2..30, got 100"):
            hermite_zeros(100)

    @pytest.mark.parametrize("n", [206, 250, 300])
    def test_past_the_cap(self, monkeypatch, n):
        # hermgauss' recurrence is normalised, so it does not overflow where
        # an unnormalised H_n does (N = 206).
        monkeypatch.setattr("diospec.hermite.MAX_ORDER", n)
        h = hermite_zeros(n)
        assert np.isfinite(h.zeros).all()
        assert np.all(np.diff(h.zeros) > 0)
        assert h.residual_first <= 1e-10 and h.residual_second <= 1e-10

    def test_nan_node_raises(self, monkeypatch):
        # Both residuals come back NaN, which a ``max(r1, r2) > bound`` test
        # lets through.
        def hermgauss(n):
            nodes, weights = npherm.hermgauss(n)
            nodes[1] = np.nan
            return nodes, weights

        monkeypatch.setattr("diospec.hermite.hermgauss", hermgauss)
        with pytest.raises(NonConvergence, match="n=7"):
            hermite_zeros(7)

    @pytest.mark.parametrize("order", [1, 2])
    def test_either_residual_alone_past_its_bound_raises(self, monkeypatch, order):
        # One flow's rate is raised to 10 times the 1e-10 bound at one
        # zero, and the other's is left as it is.
        def raised(values, diff, rate_order, out=None):
            rate = _coefficient_rate(values, diff, rate_order, out)
            if rate_order == order:
                rate[0] += 1e-9
            return rate

        monkeypatch.setattr("diospec.hermite._coefficient_rate", raised)
        with pytest.raises(NonConvergence, match="n=7"):
            hermite_zeros(7)


class TestResiduals:
    def test_first_order_two_point_identity(self):
        # +-1/sqrt(2): c - 1/(2c) = 0 exactly at c^2 = 1/2
        assert hermite_zeros(2).residual_first < 1e-12

    def test_first_order_degree_five(self):
        assert hermite_zeros(5).residual_first < 1e-10

    def test_first_order_non_equilibrium(self):
        assert flow_residual([1.0, 2.0], 1) == pytest.approx(2.0)

    def test_second_order_two_point_identity(self):
        assert hermite_zeros(2).residual_second < 1e-12

    def test_second_order_degree_seven(self):
        assert hermite_zeros(7).residual_second < 1e-10

    def test_second_order_non_equilibrium(self):
        assert flow_residual([0.0, 1.0], 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_residuals_are_the_coefficient_flow_field(self, n):
        # The residuals are max |rate| of the coefficient flows that
        # ``integrate`` steps: the gamma1 velocity, and the gamma2
        # acceleration at rest.  The field runs in complex arithmetic, so
        # they agree to rounding, not bit for bit.  Off equilibrium, the
        # kernel ``hermite_zeros`` runs is held to the field the same way.
        h = hermite_zeros(n)
        c = np.random.default_rng(n).standard_normal(n)
        for values, first, second in ((h.zeros, h.residual_first, h.residual_second),
                                      (c, flow_residual(c, 1), flow_residual(c, 2))):
            velocity = field("gamma1", values)
            acceleration = field("gamma2", np.concatenate([values, np.zeros(n)]))[n:]
            for residual, rate in ((first, velocity), (second, acceleration)):
                expected = float(np.max(np.abs(rate)))
                assert abs(residual - expected) <= 1e-14 * max(1.0, expected)


class TestOrderings:
    def test_two_symbols(self):
        words = [word_from_rank(2, rank) for rank in (1, 2)]
        assert words == [(1, 2), (2, 1)]

    def test_six_words_in_lexicographic_order(self):
        perms = [PermutationId.from_rank(3, rank) for rank in range(1, 7)]
        assert [p.word for p in perms] == sorted(iter_permutations((1, 2, 3)))
        assert [p.ordinal for p in perms] == list(range(1, 7))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_are_factorials(self, n):
        # The ranks list each of the n! words once, in the order of
        # itertools.permutations.
        words = [word_from_rank(n, rank) for rank in range(1, math.factorial(n) + 1)]
        assert words == list(iter_permutations(range(1, n + 1)))

    @pytest.mark.parametrize("n", [2, 6, 7])
    def test_rank_ordered_words_are_cut_by_sizes(self, n):
        # Consecutive uint8 blocks of the sizes asked for, empty ones too,
        # that together list every word in rank order.
        total = math.factorial(n)
        sizes = [0, 1, total // 3, 0, total - 1 - total // 3]
        blocks = list(rank_ordered_words(n, sizes))
        assert [block.shape for block in blocks] == [(size, n) for size in sizes]
        assert {block.dtype for block in blocks} == {np.dtype(np.uint8)}
        words = [tuple(word) for block in blocks for word in block.tolist()]
        assert words == [word_from_rank(n, rank) for rank in range(1, total + 1)]

    def test_rank_round_trip(self):
        for n in (2, 3, 5):
            for rank in range(1, math.factorial(n) + 1):
                word = word_from_rank(n, rank)
                assert lexicographic_rank(word) == rank
                PermutationId(n, word, rank)  # validates internally

    @pytest.mark.parametrize("n", [21, 30])
    def test_rank_round_trip_beyond_int64(self, n):
        # Ranks from 21 on exceed int64; the place values are Python ints.
        total = math.factorial(n)
        for rank in (1, 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, total - 1, total):
            word = word_from_rank(n, rank)
            assert sorted(word) == list(range(1, n + 1))
            assert lexicographic_rank(word) == rank
        assert word_from_rank(n, total) == tuple(range(n, 0, -1))
        for rank in (0, total + 1):
            with pytest.raises(ValueError, match="outside"):
                word_from_rank(n, rank)

    def test_invalid_words_rejected(self):
        with pytest.raises(ValueError):
            by_word((1, 1, 2))
        with pytest.raises(ValueError):
            PermutationId(3, (1, 2, 3), 2)


class TestPermutedPolynomial:
    def test_n2_swapped_word_gives_mu1_polynomial(self):
        h = hermite_zeros(2)
        p = permuted_polynomial(h, by_word((2, 1)))
        np.testing.assert_allclose(p.coefficients,
                                   [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)

    def test_n3_word_312_gives_mu4_polynomial(self):
        h = hermite_zeros(3)
        p = permuted_polynomial(h, by_word((3, 1, 2)))
        np.testing.assert_allclose(p.coefficients, [SQRT32, -SQRT32, 0.0], atol=1e-14)

    def test_n3_word_231_gives_mu1_assignment(self):
        # ascending zeros (-s, 0, s) reordered to (0, s, -s)
        h = hermite_zeros(3)
        p = permuted_polynomial(h, by_word((2, 3, 1)))
        np.testing.assert_allclose(p.coefficients, [0.0, SQRT32, -SQRT32], atol=1e-14)

    def test_identity_word(self):
        h = hermite_zeros(5)
        p = permuted_polynomial(h, PermutationId.from_rank(5, 1))
        np.testing.assert_allclose(p.coefficients, h.zeros)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            permuted_polynomial(hermite_zeros(3), by_word((2, 1)))
