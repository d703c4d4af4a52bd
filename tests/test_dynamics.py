import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from conftest import field
from dynamics_reference import stage_sums
from linear_reference import DegenerateSpectrum, linear_evolution_first, linear_evolution_second

from diospec.dynamics import (
    _A,
    _B,
    _E3,
    _E5,
    _FIELDS,
    SYSTEMS,
    _error_norm,
    central_difference_jacobian,
    fd_jacobian,
    integrate,
)
from diospec.errors import (
    CollisionAbort,
    DimensionMismatch,
    NearCollision,
    NonConvergence,
    StepFloorReached,
)
from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial
from diospec.matrices import KIND_M1, KIND_M2, DiophantineMatrix, build_m1, build_m2
from diospec.polynomials import _differences, _vieta, roots

TWO_PI = 2.0 * math.pi


def unit_direction(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def acceleration(system, positions, velocities=None):
    """Second half of a second-order vector field: the acceleration, at rest
    unless velocities are given."""
    n = len(positions)
    moving = np.zeros(n) if velocities is None else velocities
    return field(system, np.concatenate([positions, moving]))[n:]


def vieta_jacobian_reference(z):
    """numpy's expansion of the Vieta Jacobian d c_j / d z_m: column m is
    minus the monic coefficients of the zeros other than z_m."""
    return -np.array([np.atleast_1d(np.poly(np.delete(z, m))) for m in range(len(z))]).T


def pipeline(n, rank):
    h = hermite_zeros(n)
    poly = permuted_polynomial(h, PermutationId.from_rank(n, rank))
    zeros = roots(poly)
    return poly, zeros


def taylor_expm(a):
    """exp(a) by scaling and squaring a truncated Taylor series: a reference
    for the modal evolution that uses no eigenvectors."""
    squarings = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1] + 1)
    b = a / 2.0 ** squarings  # 1-norm below 1/2
    term = total = np.eye(len(a), dtype=complex)
    for k in range(1, 25):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


class TestCoefficientFlows:
    def test_first_order_hand_value(self):
        np.testing.assert_allclose(field("gamma1", [1.0, -1.0]), [0.5j, -0.5j],
                                   atol=1e-15)

    def test_first_order_stationary_at_hermite_zeros(self):
        for n in (2, 4, 7):
            rate = field("gamma1", hermite_zeros(n).zeros)
            assert np.abs(rate).max() < 1e-10

    def test_second_order_hand_value(self):
        np.testing.assert_allclose(acceleration("gamma2", [0.0, 1.0]), [-2.0, 1.0],
                                   atol=1e-15)

    def test_second_order_stationary_at_hermite_zeros(self):
        for n in (2, 5, 8):
            accel = acceleration("gamma2", hermite_zeros(n).zeros)
            assert np.abs(accel).max() < 1e-10

    def test_near_collision_raised(self):
        with pytest.raises(NearCollision):
            field("gamma1", [1.0, 1.0 + 1e-12])
        with pytest.raises(NearCollision):
            acceleration("gamma2", [0.5, 0.5 + 1e-11, -1.0])
        # Well-separated zeros whose derived coefficients coincide:
        # (x - 1)(x + 0.5) = x^2 - 0.5 x - 0.5.
        with pytest.raises(NearCollision, match="gamma separation 0.000e"):
            field("zeta1", [1.0, -0.5])
        with pytest.raises(NearCollision, match="gamma separation 0.000e"):
            acceleration("zeta2", [1.0, -0.5])

    def test_first_order_flow_rate_matches_short_step_oracle(self):
        # Richardson from two short integrations:
        # (4 y(h/2) - y(h) - 3 y0) / h = dy/dt + O(h^2)
        rng = np.random.default_rng(9)
        gamma0 = rng.standard_normal(4) * 1.5 + 1j * rng.standard_normal(4)
        h = 1e-4
        y_h = integrate("gamma1", gamma0, h, rel_tol=1e-12, abs_tol=1e-14).final_state
        y_h2 = integrate("gamma1", gamma0, h / 2, rel_tol=1e-12, abs_tol=1e-14).final_state
        oracle = (4.0 * y_h2 - y_h - 3.0 * gamma0) / h
        assert np.abs(oracle - field("gamma1", gamma0)).max() < 1e-6

    def test_second_order_acceleration_matches_short_step_oracle(self):
        # From rest, v(h) = h a + O(h^3); Richardson kills the cubic term:
        # (4 v(h/2) - v(h)) / h = a + O(h^2).
        gamma0 = hermite_zeros(4).zeros + 0.3 * unit_direction(4, 10)
        h = 1e-3
        start = (gamma0, np.zeros(4, dtype=complex))
        v_h = integrate("gamma2", start, h, rel_tol=1e-12, abs_tol=1e-14).final_state[4:]
        v_h2 = integrate("gamma2", start, h / 2, rel_tol=1e-12, abs_tol=1e-14).final_state[4:]
        oracle = (4.0 * v_h2 - v_h) / h
        assert np.abs(oracle - acceleration("gamma2", gamma0)).max() < 1e-5


class TestZeroFlows:
    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_first_order_stationary_at_permuted_zeros(self, rank):
        _, zeros = pipeline(4, rank)
        assert np.abs(field("zeta1", zeros.zeros)).max() < 1e-8

    def test_minimum_size_guard(self):
        with pytest.raises(ValueError):
            field("zeta1", [1.0])

    def test_coefficients_are_checked_finite_before_the_separations(self):
        with pytest.raises(NearCollision, match="zeta separation 0.000e"):
            field("zeta1", [0.5, 0.5, -1.0])
        # Coincident zeros whose coefficients overflow: the finiteness check
        # comes first, so the shared difference pass never subtracts
        # infinities, and no RuntimeWarning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients must have finite"):
                field("zeta1", [1e300, 1e300, 1.0])

    def test_chain_rule_against_coefficient_flow(self):
        # Transporting the zero velocity through the Vieta Jacobian must
        # reproduce the coefficient-flow velocity.
        rng = np.random.default_rng(11)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gamma = np.poly(z)[1:]
        via_jacobian = vieta_jacobian_reference(z) @ field("zeta1", z)
        direct = field("gamma1", gamma)
        assert np.abs(via_jacobian - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())

    def test_second_order_chain_rule(self):
        # At zero velocity the transported acceleration obeys the same
        # chain rule as the first-order velocity.
        rng = np.random.default_rng(12)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gamma = np.poly(z)[1:]
        via_jacobian = vieta_jacobian_reference(z) @ acceleration("zeta2", z)
        direct = acceleration("gamma2", gamma)
        assert np.abs(via_jacobian - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())

    @pytest.mark.parametrize("rank", [1, 4])
    def test_second_order_stationary_with_zero_velocity(self, rank):
        _, zeros = pipeline(3, rank)
        # At rest the whole packed derivative, velocity and acceleration, vanishes.
        state = np.concatenate([zeros.zeros, np.zeros(3)])
        assert np.abs(field("zeta2", state)).max() < 1e-8

    def test_velocity_coupling_sign_structure(self):
        # zeta = (a, -a), zeta_dot = (b, b): the coupling term is
        # (b^2/a, -b^2/a), i.e. antisymmetric.
        a, b = 0.8, 0.3
        coupling = acceleration("zeta2", [a, -a], [b, b]) - acceleration("zeta2", [a, -a])
        np.testing.assert_allclose(coupling, [b * b / a, -b * b / a], atol=1e-12)

    def test_every_permuted_zero_set_is_an_equilibrium(self, ordering_sweep):
        # Both zero flows must be stationary at the zeros of every
        # coefficient ordering up to order 6.
        for n in range(2, 7):
            for record in ordering_sweep(n):
                z = record.zeros.zeros
                assert np.abs(field("zeta1", z)).max() < 1e-8, record.perm.word
                assert np.abs(acceleration("zeta2", z)).max() < 1e-8, record.perm.word


class TestStates:
    def test_second_order_state_validates_lengths(self):
        # A (positions, velocities) start pairs vectors of equal length.
        with pytest.raises(DimensionMismatch, match="lengths differ"):
            integrate("gamma2", ([1.0, 2.0], [0.1]), 1.0)

    def test_integrate_rejects_unknown_system_and_bad_state(self):
        with pytest.raises(ValueError, match="unknown system 'zeta2_force'"):
            integrate("zeta2_force", [1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="initial must have finite"):
            integrate("gamma1", [1.0, np.nan], 1.0)
        with pytest.raises(ValueError, match="initial velocity must have finite"):
            integrate("zeta2", ([1.0, 2.0], [0.0, np.inf]), 1.0)
        with pytest.raises(ValueError, match="initial must be one-dimensional"):
            integrate("gamma1", [[1.0, 2.0]], 1.0)


class TestIntegrate:
    def test_equilibrium_is_fixed_point(self):
        zeros = hermite_zeros(3).zeros.astype(complex)
        record = integrate("gamma1", zeros, TWO_PI)
        assert np.abs(record.final_state - zeros).max() < 1e-9

    def test_gamma1_periodic_from_random_start(self):
        start = hermite_zeros(3).zeros + 0.5 * unit_direction(3, 13)
        record = integrate("gamma1", start, TWO_PI, rel_tol=1e-11, abs_tol=1e-13)
        assert np.abs(record.final_state - start).max() < 1e-6

    def test_zeta2_periodic_with_small_velocities(self):
        _, zeros = pipeline(3, 4)
        velocity = 1e-3 * unit_direction(3, 14)
        record = integrate("zeta2", (zeros.zeros, velocity), TWO_PI)
        assert np.abs(record.final_state[:3] - zeros.zeros).max() < 1e-5

    def test_final_sample_exactly_at_t_end(self):
        zeros = hermite_zeros(2).zeros.astype(complex)
        record = integrate("gamma1", zeros + 0.01 * unit_direction(2, 15), 1.375)
        assert record.samples[-1][0] == 1.375
        assert np.all(np.diff([t for t, _ in record.samples]) > 0)

    def test_step_stats_and_separation_tracked(self):
        start = hermite_zeros(3).zeros + 0.01 * unit_direction(3, 16)
        record = integrate("gamma1", start, TWO_PI)
        accepted, rejected = record.step_stats
        assert accepted == len(record.samples) - 1
        assert rejected >= 0
        assert 0 < record.min_separation_seen <= np.ptp(hermite_zeros(3).zeros)

    def test_coefficients_obey_their_flow_along_a_zero_trajectory(self):
        # At sampled states of a zero-flow trajectory, transporting the zero
        # velocity through the Vieta Jacobian must reproduce the
        # coefficient-flow velocity at the derived coefficients.
        _, zeros = pipeline(3, 2)
        start = zeros.zeros + 0.01 * unit_direction(3, 28)
        record = integrate("zeta1", start, TWO_PI)
        stride = max(1, len(record.samples) // 10)
        checked = 0
        for _, state in record.samples[::stride]:
            gamma = np.poly(state)[1:]
            via_jacobian = vieta_jacobian_reference(state) @ field("zeta1", state)
            direct = field("gamma1", gamma)
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(via_jacobian - direct).max() < 1e-8 * scale
            checked += 1
        assert checked >= 10

    def test_collision_at_start_aborts(self):
        with pytest.raises(CollisionAbort):
            integrate("gamma1", np.array([1.0, 1.0 + 1e-12]), 1.0)
        # The zeros are apart; their coefficients (-0.5, -0.5) collide.
        with pytest.raises(CollisionAbort, match="gamma separation"):
            integrate("zeta1", [1.0, -0.5], 1.0)
        with pytest.raises(CollisionAbort, match="gamma separation"):
            integrate("zeta2", ([1.0, -0.5], [0.0, 0.0]), 1.0)

    def test_stage_collision_rejects_the_step(self):
        # gamma1 from gamma = (d/2, -d/2): the separation obeys
        # d' = i (d - 2/d), so the first DOP853 stage point, at h a k1 with
        # h = 1e-2 and a = A[1, 0] = 0.0526..., has separation
        # d (1 + i h a) - 2 i h a / d.  Choosing d^2 = 2 i h a / (1 + i h a)
        # puts it about 5e-18 from zero: that step is rejected and halved, and
        # the run still reaches t_end.
        h, a = 1e-2, _A[1, 0]
        d = cmath.sqrt(2j * h * a / (1 + 1j * h * a))
        record = integrate("gamma1", np.array([d / 2, -d / 2]), 0.5)
        _, rejected = record.step_stats
        assert rejected >= 1
        assert record.samples[-1][0] == 0.5
        assert record.step_stats == (116, 35)

    def test_collision_pressure_aborts_at_the_step_floor(self, monkeypatch):
        # A field that collides at every evaluation after the start rejects
        # each step and halves it: from h = 1e-2, the 34th halving takes it
        # below the 1e-12 floor, before t moves.
        calls = []

        def colliding(y, n, out):
            calls.append(y)
            if len(calls) > 1:
                raise NearCollision("stubbed collision")
            out.fill(0.0)
            return 1.0

        monkeypatch.setitem(_FIELDS, "gamma1", colliding)
        with pytest.raises(CollisionAbort, match="collision pressure .* at t=0.000000"):
            integrate("gamma1", np.array([1.0, -1.0]), 1.0)
        assert len(calls) == 1 + 34

    def test_collision_at_the_new_state_rejects_the_step(self, monkeypatch):
        # Evaluation 0 is at the start, 1..11 are the first step's stages and
        # 12 is the field at its new state, which would be the next step's
        # first stage.  A collision there, raised after the stub has written
        # NaN over its row, rejects the step and halves h; the retried step
        # starts from the first stage as it was.
        kernel = _FIELDS["gamma1"]
        states, rows, first_stage = [], [], []

        def colliding_at_the_new_state(y, n, out):
            states.append(y.copy())
            rows.append(out)
            if len(states) == 13:
                out.fill(complex(math.nan, math.nan))
                raise NearCollision("stubbed collision")
            if len(states) == 14:
                first_stage.append(rows[0].tobytes())
            return kernel(y, n, out)

        monkeypatch.setitem(_FIELDS, "gamma1", colliding_at_the_new_state)
        y0 = hermite_zeros(3).zeros + 0.01 * unit_direction(3, 31)
        record = integrate("gamma1", y0, 0.1)
        assert record.step_stats[1] >= 1 and record.samples[-1][0] == 0.1
        k1 = field("gamma1", y0)
        assert first_stage == [k1.tobytes()]
        stages = np.zeros((12, 3), dtype=complex)
        stages[0] = k1
        assert states[13].tobytes() == stage_sums(y0, stages, 0.5e-2)[0].tobytes()

    def test_non_finite_stage_state_is_refused(self, monkeypatch):
        # The stub's rate is 0 but for its last component: for gamma2 an
        # acceleration, so only the velocity half of the stage state turns
        # non-finite.  Scaling a non-finite rate into the stage state makes
        # inf * 0 = nan in its other part.
        start = np.array([1.0, -1.0])
        for bad in (math.nan, math.inf, -math.inf):
            for rate in (complex(bad, 0.0), complex(0.0, bad)):
                def non_finite(y, n, out, rate=rate):
                    out.fill(0.0)
                    out[-1] = rate
                    return 1.0

                for system, initial in (("gamma1", start), ("gamma2", (start, np.zeros(2)))):
                    monkeypatch.setitem(_FIELDS, system, non_finite)
                    with np.errstate(invalid="ignore", over="ignore"), \
                            pytest.raises(ValueError, match="state must have finite components"):
                        integrate(system, initial, 1.0)

    @pytest.mark.parametrize("part", [1.0, 1j, -1.0, -1j], ids=["re", "im", "-re", "-im"])
    def test_overflowing_stage_state_is_refused(self, monkeypatch, part):
        # A finite rate that carries a finite start past the largest double
        # makes one part of the stage state infinite and leaves the other 0.
        def overflowing(y, n, out):
            out.fill(0.0)
            out[0] = 1e308 * part
            return 1.0

        monkeypatch.setitem(_FIELDS, "gamma1", overflowing)
        start = np.array([np.finfo(float).max * part, -1.0])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="state must have finite components"):
            integrate("gamma1", start, 1.0)

    def test_error_norm_of_zero_stages_is_zero(self):
        assert _error_norm(np.zeros((12, 3), dtype=complex), np.ones(3), 1e-2) == 0.0

    def test_step_budget_exhaustion(self, monkeypatch):
        start = hermite_zeros(3).zeros + 0.01 * unit_direction(3, 17)
        monkeypatch.setattr("diospec.dynamics._MAX_STEPS", 3)
        with pytest.raises(StepFloorReached):
            integrate("gamma1", start, TWO_PI)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_error_control_step_floor(self, system):
        # No step can meet a tolerance of 1e-100, so error control shrinks
        # the first step past the floor before t moves.  At 1e-200 the
        # error norm itself would overflow.
        with pytest.raises(StepFloorReached, match="error control .* at t=0.000000"):
            integrate(system, seeded_start(system, 4, 1), TWO_PI, rel_tol=1e-100,
                      abs_tol=1e-100)

    def test_argument_validation(self):
        zeros = hermite_zeros(2).zeros
        with pytest.raises(ValueError):
            integrate("gamma1", zeros, 0.0)
        with pytest.raises(ValueError):
            integrate("gamma1", zeros, 1.0, rel_tol=-1.0)
        with pytest.raises(ValueError):
            integrate("nonsense", zeros, 1.0)


# The DOP853 nodes c_0..c_11 in closed form; row i of A sums to c_i.
_SQRT6 = math.sqrt(6.0)
DOP853_NODES = (0.0, (12.0 - 2.0 * _SQRT6) / 135.0, (6.0 - _SQRT6) / 45.0,
                (6.0 - _SQRT6) / 30.0, (6.0 + _SQRT6) / 30.0, 1 / 3, 1 / 4, 4 / 13,
                127 / 195, 3 / 5, 6 / 7, 1.0)


def assert_fsum(terms, expected, what):
    """math.fsum of the terms equals expected within the rounding of the
    stored constants: 8 eps of the sum of moduli."""
    terms = [float(x) for x in terms]
    bound = 8 * np.finfo(float).eps * max(1.0, math.fsum(abs(x) for x in terms))
    assert abs(math.fsum(terms) - expected) <= bound, what


class TestTableau:
    def test_order_conditions(self):
        for i, row in enumerate(_A):
            assert_fsum(row, DOP853_NODES[i], f"row {i} of A")
        # Quadrature conditions of order 8: sum_i b_i c_i^(k-1) = 1/k.
        for k in range(1, 9):
            terms = [b * c ** (k - 1) for b, c in zip(_B, DOP853_NODES)]
            assert_fsum(terms, 1.0 / k, f"B against c^{k - 1}")
        assert_fsum(_E5, 0.0, "E5")
        assert_fsum(_E3, 0.0, "E3")

    def test_matches_scipy_bit_for_bit(self):
        pytest.importorskip("scipy")
        from scipy.integrate._ivp import dop853_coefficients as reference

        assert np.array_equal(_A, reference.A[:12, :12])
        assert np.array_equal(_B, reference.B)
        # scipy's estimates carry a thirteenth, zero weight for the
        # evaluation at the new state.
        assert np.array_equal(_E5, reference.E5[:12]) and reference.E5[12] == 0.0
        assert np.array_equal(_E3, reference.E3[:12]) and reference.E3[12] == 0.0


def gamma1_exact(gamma0, t):
    """gamma1 at time t: e^(it) times the zeros of exp(a d^2/dx^2) p0, with p0
    the monic polynomial with zeros gamma0 and a = (i/2)(1 - e^(-2it))/(2i).
    The heat-flow series ends at the (N//2)-th term."""
    a = 0.5j * (1.0 - cmath.exp(-2j * t)) / 2j
    term = np.poly(gamma0).astype(complex)
    total = term.copy()
    for k in range(1, gamma0.size // 2 + 1):
        term = np.polyder(term, 2) * (a / k)
        total[-term.size:] += term
    return cmath.exp(1j * t) * np.roots(total)


def gamma2_exact(gamma0, velocity0, t):
    """gamma2 positions at time t: the eigenvalues of
    diag(gamma0) cos t + L0 sin t, with the Lax matrix L0 = diag(velocity0)
    plus i / (gamma0_i - gamma0_j) off the diagonal."""
    diff = gamma0[:, None] - gamma0[None, :]
    np.fill_diagonal(diff, 1.0)
    lax = 1j / diff
    np.fill_diagonal(lax, velocity0)
    return np.linalg.eigvals(np.diag(gamma0) * math.cos(t) + lax * math.sin(t))


def multiset_distance(expected, got):
    """Largest distance from each expected value to its nearest value in got,
    asserting that the nearest neighbours pair the two sets one to one."""
    distance = np.abs(expected[:, None] - got[None, :])
    nearest = distance.argmin(axis=1)
    assert len(set(nearest.tolist())) == expected.size, "nearest neighbours collide"
    return float(distance.min(axis=1).max())


def far_start(n, radius, seed):
    """Hermite zeros of order n displaced by radius along a seeded direction,
    and a seeded velocity of the same size."""
    positions = hermite_zeros(n).zeros + radius * unit_direction(n, seed)
    return positions, radius * unit_direction(n, seed + 1)


class TestExactSolutions:
    """The integrator against the closed-form solutions of the coefficient
    flows, from starts far outside the radius-1e-2 neighbourhoods of the
    periodicity tests."""

    T = 1.3

    @pytest.mark.parametrize("radius", [0.1, 0.3])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_gamma1(self, n, radius):
        start, _ = far_start(n, radius, 100 * n + int(10 * radius))
        record = integrate("gamma1", start, self.T)
        assert multiset_distance(gamma1_exact(start, self.T), record.final_state) <= 1e-8

    @pytest.mark.parametrize("radius", [0.1, 0.3])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_gamma2(self, n, radius):
        start = far_start(n, radius, 200 * n + int(10 * radius))
        record = integrate("gamma2", start, self.T)
        assert multiset_distance(gamma2_exact(*start, self.T), record.final_state[:n]) <= 1e-8

    def test_exact_solutions_start_and_return_at_the_start(self):
        for n in range(3, 7):
            positions, velocity = far_start(n, 0.3, n)
            for t in (0.0, TWO_PI):
                assert multiset_distance(gamma1_exact(positions, t), positions) <= 1e-10
                assert multiset_distance(gamma2_exact(positions, velocity, t),
                                         positions) <= 1e-10


class TestFiniteDifferenceJacobian:
    def test_linear_field_recovered_exactly(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        jac = central_difference_jacobian(lambda v: a @ v, np.zeros(4), 1e-5)
        assert np.abs(jac - a).max() < 1e-10

    def test_matches_m1_closed_form_n2(self):
        poly, zeros = pipeline(2, 2)
        built = build_m1(zeros, poly.coefficients).entries
        jac = -1j * fd_jacobian("zeta1", zeros.zeros, 1e-6)
        assert np.abs(built - jac).max() <= 1e-5 * np.abs(built).max()

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_matches_m2_all_orderings_n3(self, rank):
        poly, zeros = pipeline(3, rank)
        built = build_m2(zeros, poly.coefficients).entries
        jac = -fd_jacobian("zeta2_force", zeros.zeros, 1e-6)
        assert np.abs(built - jac).max() <= 1e-4 * np.abs(built).max()

    def test_step_range_enforced(self):
        _, zeros = pipeline(2, 1)
        with pytest.raises(ValueError):
            fd_jacobian("zeta1", zeros.zeros, 1e-3)
        with pytest.raises(ValueError):
            fd_jacobian("zeta1", zeros.zeros, 1e-9)
        with pytest.raises(ValueError):
            fd_jacobian("gamma1", zeros.zeros, 1e-6)


class TestLinearEvolution:
    def test_first_order_identity_at_zero_time(self):
        poly, zeros = pipeline(3, 1)
        matrix = build_m1(zeros, poly.coefficients)
        v0 = unit_direction(3, 19)
        out = linear_evolution_first(matrix, v0, 0.0)
        assert np.abs(out - v0).max() < 1e-10

    def test_first_order_period_return(self):
        poly, zeros = pipeline(4, 9)
        matrix = build_m1(zeros, poly.coefficients)
        v0 = unit_direction(4, 20)
        out = linear_evolution_first(matrix, v0, TWO_PI)
        assert np.abs(out - v0).max() < 1e-8

    def test_first_order_superposition(self):
        poly, zeros = pipeline(3, 2)
        matrix = build_m1(zeros, poly.coefficients)
        v1, v2 = unit_direction(3, 21), unit_direction(3, 22)
        t = 1.7
        combined = linear_evolution_first(matrix, 0.3 * v1 + 2.0j * v2, t)
        split = 0.3 * linear_evolution_first(matrix, v1, t) \
            + 2.0j * linear_evolution_first(matrix, v2, t)
        assert np.abs(combined - split).max() < 1e-10

    def test_second_order_identity_at_zero_time(self):
        poly, zeros = pipeline(3, 1)
        matrix = build_m2(zeros, poly.coefficients)
        v0, vd0 = unit_direction(3, 23), unit_direction(3, 24)
        out = linear_evolution_second(matrix, v0, vd0, 0.0)
        assert np.abs(out - v0).max() < 1e-10

    def test_second_order_period_return_from_rest(self):
        poly, zeros = pipeline(3, 5)
        matrix = build_m2(zeros, poly.coefficients)
        v0 = unit_direction(3, 25)
        out = linear_evolution_second(matrix, v0, np.zeros(3), TWO_PI)
        assert np.abs(out - v0).max() < 1e-8

    def test_kind_is_enforced(self):
        poly, zeros = pipeline(2, 1)
        m1 = build_m1(zeros, poly.coefficients)
        m2 = build_m2(zeros, poly.coefficients)
        v0 = unit_direction(2, 26)
        with pytest.raises(ValueError):
            linear_evolution_first(m2, v0, 1.0)
        with pytest.raises(ValueError):
            linear_evolution_second(m1, v0, v0, 1.0)
        # The initial vectors must match the matrix order.
        for call in (lambda: linear_evolution_first(m1, np.ones(3), 1.0),
                     lambda: linear_evolution_second(m2, np.ones(3), v0, 1.0),
                     lambda: linear_evolution_second(m2, v0, np.ones(3), 1.0)):
            with pytest.raises(DimensionMismatch, match="initial vectors do not match"):
                call()

    def test_eigen_decomposition_failure_is_non_convergence(self, monkeypatch):
        poly, zeros = pipeline(3, 1)
        matrix = build_m1(zeros, poly.coefficients)

        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", unconverged)
        with pytest.raises(NonConvergence, match="eigen-decomposition failed"):
            linear_evolution_first(matrix, unit_direction(3, 19), 1.0)

    def test_degenerate_spectrum_detected(self):
        block = np.array([[1.0, 1.0], [0.0, 1.0]])
        jordan = DiophantineMatrix(KIND_M1, 2, block)
        with pytest.raises(DegenerateSpectrum):
            linear_evolution_first(jordan, np.ones(2), 1.0)
        jordan = DiophantineMatrix(KIND_M2, 2, block)
        with pytest.raises(DegenerateSpectrum):
            linear_evolution_second(jordan, np.ones(2), np.ones(2), 1.0)
        # Distinct eigenvalues, but -1 has no real frequency.
        negative = DiophantineMatrix(KIND_M2, 2, np.diag([-1.0, 4.0]))
        with pytest.raises(DegenerateSpectrum, match="non-positive real part"):
            linear_evolution_second(negative, np.ones(2), np.ones(2), 1.0)

    def test_modal_evolution_matches_taylor_exponential(self):
        # v(t) = exp(i M t) v0 for M1, and the first half of
        # exp(t [[0, I], [-M, 0]]) (v0, vdot0) for M2.
        t = 0.7
        for n in range(2, 7):
            for rank in (1, math.factorial(n)):
                poly, zeros = pipeline(n, rank)
                v0, vd0 = unit_direction(n, 10 * n + 1), unit_direction(n, 10 * n + 2)
                m1 = build_m1(zeros, poly.coefficients)
                expected = taylor_expm(1j * t * m1.entries) @ v0
                out = linear_evolution_first(m1, v0, t)
                assert np.abs(out - expected).max() <= 1e-11, (n, rank)

                m2 = build_m2(zeros, poly.coefficients)
                generator = np.zeros((2 * n, 2 * n), dtype=complex)
                generator[:n, n:] = np.eye(n)
                generator[n:, :n] = -m2.entries
                start = np.concatenate([v0, vd0])
                expected = (taylor_expm(t * generator) @ start)[:n]
                out = linear_evolution_second(m2, v0, vd0, t)
                assert np.abs(out - expected).max() <= 1e-11 * np.linalg.norm(start), (n, rank)

    def test_nonlinear_flow_tracks_linearisation(self):
        # epsilon-scale start: the nonlinear zeta flow should follow the
        # modal reconstruction to second order in epsilon
        poly, zeros = pipeline(3, 4)
        matrix = build_m1(zeros, poly.coefficients)
        eps = 1e-6
        v0 = unit_direction(3, 27)
        start = zeros.zeros + eps * v0
        t = 2.1
        record = integrate("zeta1", start, t, rel_tol=1e-12, abs_tol=1e-14)
        linear = zeros.zeros + eps * linear_evolution_first(matrix, v0, t)
        assert np.abs(record.final_state - linear).max() < 1e-4 * eps


def seeded_start(system, n, seed):
    """Radius-1e-2 start near an equilibrium of the flow: the Hermite zeros,
    or the zeros of ordering 7, with the second-order flows at rest there
    and the perturbation on the velocities."""
    if system.startswith("gamma"):
        base = hermite_zeros(n).zeros.astype(complex)
    else:
        base = pipeline(n, 7)[1].zeros
    kick = 0.01 * unit_direction(n, seed)
    return base + kick if system.endswith("1") else (base, kick)


class TestKernelPins:
    """Guards of the field kernels that ``integrate`` steps with."""

    # One period at N = 4 from ``seeded_start``: step statistics and final
    # state, recorded with the DOP853 integrator.
    PINNED = {
        "gamma1": (40, (34, 0), [
            -1.6547636810216892 - 0.0037111437960656293j,
            -0.5284710419434315 - 0.003668598501283106j,
            0.5219400449671336 - 0.0014038121112471334j,
            1.6534284651770366 + 0.004961832198061898j]),
        "zeta1": (41, (40, 0), [
            -0.9171298533842679 - 0.44577182601621546j,
            -0.9111139387831106 + 0.44489295022050585j,
            1.174482129070208 - 0.4784308062435788j,
            1.1765230239454372 + 0.4741076216271008j]),
        "gamma2": (42, (59, 10), [
            -1.6506801238863587 - 2.1446192532362934e-13j,
            -0.524647623273652 + 8.308477840999248e-13j,
            0.5246476232738171 - 9.490034405963124e-13j,
            1.650680123886191 + 3.3269684970431987e-13j,
            0.0010614793840983113 - 0.006796414670433457j,
            -0.0036227758861153733 - 0.004536131359439455j,
            0.0026141904278377827 + 0.0004453309685922698j,
            0.0032764492791177505 - 0.001101628410417745j]),
        "zeta2": (43, (57, 6), [
            -0.9121861179414982 - 0.4404465195948349j,
            -0.9121861179412213 + 0.44044651959605496j,
            1.1745099295812564 - 0.4788071257138307j,
            1.1745099295813264 + 0.47880712571497647j,
            0.0009476388295878021 - 0.00772856341178302j,
            0.0026314105857258136 + 0.003770009927204611j,
            -0.0022719219497105425 + 6.463225974008072e-05j,
            -0.0035257571686881134 + 0.0007982614939374568j]),
    }

    @classmethod
    @functools.lru_cache(maxsize=None)
    def record(cls, system):
        return integrate(system, seeded_start(system, 4, cls.PINNED[system][0]), TWO_PI)

    @pytest.mark.parametrize("system", ["gamma1", "zeta1", "gamma2", "zeta2"])
    def test_min_separation_is_the_minimum_over_samples(self, system):
        record = self.record(system)
        separations = [float(_differences(state[:4])[1]) for _, state in record.samples]
        assert record.min_separation_seen == min(separations)

    @pytest.mark.parametrize("system", ["gamma1", "zeta1", "gamma2", "zeta2"])
    def test_pinned_trajectory(self, system):
        _, step_stats, final = self.PINNED[system]
        record = self.record(system)
        assert record.step_stats == step_stats
        # The coefficient flows keep every bit; the zero flows' Vieta
        # expansion now adds in another order than np.convolve did.
        tol = 0.0 if system.startswith("gamma") else 1e-12
        assert np.abs(record.final_state - np.array(final)).max() <= tol

    @pytest.mark.parametrize("n", range(2, 9))
    def test_vieta_expansion_matches_np_poly(self, n):
        # Not at large N: expanding the zeros of these polynomials loses
        # accuracy to their conditioning under any algorithm.
        rng = np.random.default_rng(n)
        for rank in rng.integers(1, math.factorial(n) + 1, size=5):
            zeros = pipeline(n, int(rank))[1].zeros
            ours = np.array(_vieta(zeros))
            reference = np.poly(zeros)[1:]
            scale = np.abs(reference).max()
            assert np.abs(ours - reference).max() <= 1e-14 * scale
