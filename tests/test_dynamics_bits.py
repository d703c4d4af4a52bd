"""The flow kernels and the DOP853 sums keep the bits of their plain numpy
form (``dynamics_reference.py``) on whatever machine the tests run on."""

import math

import numpy as np
import pytest

import diospec.dynamics as dynamics
from diospec.dynamics import _FIELDS, SYSTEMS, _error_norm, integrate
from diospec.errors import NearCollision
from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial
from diospec.polynomials import roots
from dynamics_reference import FIELDS, error_norm, stage_sums

ORDERS = [2, 3, 4, 5, 6, 7, 8, 12, 20, 30]


def seeded_state(system, n, seed):
    """Distinct positions spread like the zeros of a degree-n polynomial,
    followed for the second-order flows by velocities of size about 0.1."""
    rng = np.random.default_rng(1000 * n + seed)
    positions = math.sqrt(n) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if system.endswith("1"):
        return positions
    return np.concatenate([positions, 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))])


def outcome(kernel, y, n):
    """(rate bytes, gap) of one evaluation of a library kernel, or the error it
    raised.  The kernel writes into a row filled with NaN beforehand, so a
    component it leaves unwritten shows in the bytes."""
    out = np.full(y.size, complex(math.nan, math.nan))
    try:
        gap = kernel(y, n, out)
    except (NearCollision, ValueError) as exc:
        return type(exc), str(exc)
    return out.tobytes(), float(gap)


def reference_outcome(field, y, n):
    """outcome of one evaluation of a reference field, which returns (rate, gap)."""
    try:
        rate, gap = field(y, n)
    except (NearCollision, ValueError) as exc:
        return type(exc), str(exc)
    return rate.tobytes(), float(gap)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_field_keeps_the_reference_bits(system, n):
    for seed in range(3):
        y = seeded_state(system, n, seed)
        expected = reference_outcome(FIELDS[system], y, n)
        assert not isinstance(expected[0], type), expected
        assert outcome(_FIELDS[system], y, n) == expected


@pytest.mark.parametrize("system, y", [
    ("gamma1", np.array([1.0, 2.0, 1.0 + 1e-12], dtype=complex)),
    ("gamma2", np.array([1.0, 1.0, 0.1, 0.2], dtype=complex)),
    ("zeta1", np.array([0.5, 2.0, 0.5], dtype=complex)),
    # zeros 1 and -1/2 have the Vieta coefficients -1/2 and -1/2
    ("zeta1", np.array([1.0, -0.5], dtype=complex)),
    ("zeta2", np.array([1.0, -0.5, 0.3, 0.1j], dtype=complex)),
    ("zeta1", np.array([1e200, -1e200, 3e200], dtype=complex)),
], ids=["gamma1-close", "gamma2-equal", "zeta1-equal", "zeta1-equal-coefficients",
        "zeta2-equal-coefficients", "zeta1-overflow"])
def test_field_raises_as_the_reference_does(system, y):
    n = y.size if system.endswith("1") else y.size // 2
    expected = reference_outcome(FIELDS[system], y, n)
    assert isinstance(expected[0], type), expected
    assert outcome(_FIELDS[system], y, n) == expected


@pytest.mark.parametrize("size", [2, 3, 5, 8, 13, 24, 60])
def test_error_norm_keeps_the_reference_bits(size):
    rng = np.random.default_rng(size)
    for h in (1e-3, 0.07, 0.5):
        stages = rng.standard_normal((12, size)) + 1j * rng.standard_normal((12, size))
        scale = 1e-12 + 1e-10 * np.abs(rng.standard_normal(size))
        assert _error_norm(stages, scale, h) == error_norm(stages, scale, h)
    zero = np.zeros((12, size), dtype=complex)
    assert _error_norm(zero, np.ones(size), 0.1) == error_norm(zero, np.ones(size), 0.1) == 0.0


def recorded_run(monkeypatch, system, y, n):
    """Integrate one period from the packed state y, recording the state of
    every field evaluation and the (stages, scale, h, err) of every error
    norm, in call order."""
    states, norms = [], []
    field = _FIELDS[system]

    def recording_field(state, n_pos, out):
        states.append(state.copy())
        return field(state, n_pos, out)

    def recording_norm(stages, scale, h):
        err = _error_norm(stages, scale, h)
        norms.append((stages.copy(), scale.copy(), h, err))
        return err

    monkeypatch.setitem(_FIELDS, system, recording_field)
    monkeypatch.setattr(dynamics, "_error_norm", recording_norm)
    initial = y if system.endswith("1") else (y[:n], y[n:])
    record = integrate(system, initial, 2.0 * math.pi)
    return record, states, norms


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("system", SYSTEMS)
def test_stage_sums_keep_the_reference_bits(monkeypatch, system, n):
    """Replays every step of one period from near an equilibrium: each stage
    state and each new state is the reference's real-weight stage sum of the
    step's y, stages and h, and each error norm is the reference's."""
    herm = hermite_zeros(n)
    base = herm.zeros if system.startswith("gamma") else roots(
        permuted_polynomial(herm, PermutationId.from_rank(n, 1))).zeros
    y = seeded_state(system, n, 0)
    y[:n] = base + 1e-2 * y[:n] / np.linalg.norm(y[:n])
    y[n:] *= 1e-2
    record, states, norms = recorded_run(monkeypatch, system, y, n)
    assert record.step_stats[0] > 10

    assert states[0].tobytes() == y.tobytes()
    current, call, accepted = y, 1, [y]
    for stages, scale, h, err in norms:
        sums = stage_sums(current, stages, h)
        for i in range(11):
            assert states[call + i].tobytes() == sums[i].tobytes(), (call, i)
        assert err == error_norm(stages, scale, h)
        call += 11
        if err <= 1.0:
            assert states[call].tobytes() == sums[11].tobytes()
            call += 1
            current = sums[11]
            accepted.append(current)
    assert call == len(states)
    assert [state.tobytes() for _, state in record.samples] == [a.tobytes() for a in accepted]
