"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configured elsewhere.
"""

import cmath
import math
import time
from itertools import combinations

import numpy as np

from conftest import sweep_records
from diospec.dynamics import fd_jacobian, integrate
from diospec.hermite import hermite_zeros, lexicographic_rank
from diospec.matrices import KIND_M1, KIND_M2, build_m1, build_m2, spectrum_check
from diospec.report import MU_WORDS_N3, RunConfig, run_verification
from linear_reference import (
    expected_determinant,
    expected_trace,
    linear_evolution_first,
    linear_evolution_second,
    permutation_similarity_check,
)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
SQRT32 = math.sqrt(1.5)

# 4-decimal reference rows for the n=3 zero tables, keyed by mu; the mu=5 row
# is a printed duplicate of mu=4 (see criterion 3).
REFERENCE_ZEROS_N3 = {
    1: [0.7090, -0.3545 - 1.2656j, -0.3545 + 1.2656j],
    2: [0.7202 - 0.5758j, 0.7202 + 0.5758j, -1.4405],
    3: [-1.0031 + 0.7492j, -1.0031 - 0.7492j, 0.7814],
    4: [0.0, -1.8772, 0.6524],
    5: [0.0, -1.8772, 0.6524],
    6: [-0.7814, 1.0031 - 0.7492j, 1.0031 + 0.7492j],
}


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def multiset_deviation(actual, expected):
    a = sorted(np.asarray(actual, dtype=complex), key=lambda z: (z.real, z.imag))
    b = sorted(np.asarray(expected, dtype=complex), key=lambda z: (z.real, z.imag))
    return max(abs(x - y) for x, y in zip(a, b))


def spectrum_sweep(kind, n):
    """Worst positional deviation of sorted eigenvalues from the expected
    integers, across every ordering at order n."""
    builder = build_m1 if kind == KIND_M1 else build_m2
    worst = 0.0
    for record in sweep_records(n):
        matrix = builder(record.zeros, record.poly.coefficients)
        report = spectrum_check(matrix, tol=1e-6)
        worst = max(worst, report.max_deviation)
    return worst


def test_criterion_1_integer_spectrum_sweep():
    # Sorted eigenvalues of the M1 matrix equal (1, ..., N) for every one of
    # the N! orderings, N = 2..7, deviation < 1e-6.
    deviations = {}
    elapsed_small = 0.0
    for n in range(2, 7):
        t0 = time.perf_counter()
        deviations[n] = spectrum_sweep(KIND_M1, n)
        elapsed_small += time.perf_counter() - t0
    t0 = time.perf_counter()
    deviations[7] = spectrum_sweep(KIND_M1, 7)
    elapsed_seven = time.perf_counter() - t0

    worst = max(deviations.values())
    ok = worst < 1e-6 and elapsed_small < 30.0 and elapsed_seven < 300.0
    report_line(1, ok,
                f"M1 spectra 1..N over all orderings, N=2..7: worst deviation "
                f"{worst:.3e} (< 1e-6); n<=6 in {elapsed_small:.1f}s (< 30s), "
                f"n=7 in {elapsed_seven:.1f}s (< 300s)")


def test_criterion_2_squared_integer_spectrum_sweep():
    # Same sweep for M2 against (1, 4, ..., N^2), deviation < 1e-6.
    worst = max(spectrum_sweep(KIND_M2, n) for n in range(2, 8))
    report_line(2, worst < 1e-6,
                f"M2 spectra 1,4,...,N^2 over all orderings, N=2..7: worst "
                f"deviation {worst:.3e} (< 1e-6)")


def closed_form_m1_n2(z1, z2):
    d = z1 - z2
    return np.array([
        [1.5 - (1 - z1 * z2) / (2 * d), -(1 - z1 ** 2) / (2 * d)],
        [(1 - z2 ** 2) / (2 * d), 1.5 + (1 - z1 * z2) / (2 * d)],
    ])


def closed_form_m2_n2(z1, z2):
    d = z1 - z2
    return np.array([
        [2.5 - 1.5 * (1 - z1 * z2) / d, -1.5 * (1 - z1 ** 2) / d],
        [1.5 * (1 - z2 ** 2) / d, 2.5 + 1.5 * (1 - z1 * z2) / d],
    ])


def test_criterion_3_reference_golden_values():
    # (a) n=2: built matrices match the closed-form entries, instantiated at
    # the closed-form zeros, to 1e-12 relative, for both orderings.
    worst_closed = 0.0
    for mu in (1, 2):
        sign = (-1.0) ** mu
        coeffs = np.array([-sign / SQRT2, sign / SQRT2])
        root = cmath.sqrt(1 - sign * 4 * SQRT2)
        z = np.array([(sign + root) / (2 * SQRT2), (sign - root) / (2 * SQRT2)])
        for builder, closed in ((build_m1, closed_form_m1_n2),
                                (build_m2, closed_form_m2_n2)):
            built = builder(z, coeffs).entries
            reference = closed(z[0], z[1])
            worst_closed = max(worst_closed,
                               float(np.abs(built - reference).max()
                                     / np.abs(reference).max()))

    # (b) n=3: recomputed zeros match the 4-decimal reference rows to 5e-4
    # for mu = 1, 2, 3, 4, 6.
    by_rank = {record.perm.ordinal: record for record in sweep_records(3)}
    worst_table = 0.0
    for mu in (1, 2, 3, 4, 6):
        rank = lexicographic_rank(MU_WORDS_N3[mu])
        dev = multiset_deviation(by_rank[rank].zeros.zeros, REFERENCE_ZEROS_N3[mu])
        worst_table = max(worst_table, dev)

    # (c) mu=5: the derived quadratic-formula oracle wins over the printed
    # row, which duplicates mu=4.
    s = SQRT32
    disc = cmath.sqrt(s * s - 4 * s)
    oracle_mu5 = [0.0, (s + disc) / 2.0, (s - disc) / 2.0]
    rank5 = lexicographic_rank(MU_WORDS_N3[5])
    recomputed_mu5 = by_rank[rank5].zeros.zeros
    oracle_dev = multiset_deviation(recomputed_mu5, oracle_mu5)
    printed_dev = multiset_deviation(recomputed_mu5, REFERENCE_ZEROS_N3[5])
    discrepancy_shown = oracle_dev < 1e-10 and printed_dev > 0.5

    # (d) the discrepancy is surfaced in n=3 verification reports.
    notes = run_verification(RunConfig(n=3, kinds=(KIND_M1,))).notes
    noted = any("mu=5" in note for note in notes)

    ok = worst_closed < 1e-12 and worst_table < 5e-4 and discrepancy_shown and noted
    report_line(3, ok,
                f"n=2 closed forms to {worst_closed:.2e} (< 1e-12 rel); n=3 "
                f"table rows mu=1,2,3,4,6 to {worst_table:.2e} (< 5e-4); mu=5 "
                f"oracle dev {oracle_dev:.2e} with printed-row mismatch "
                f"{printed_dev:.2f} reported in notes: {noted}")


def test_criterion_4_trace_and_determinant_identities():
    # tr M1 = N(N+1)/2, tr M2 = N(N+1)(2N+1)/6 to 1e-8 relative;
    # det M1 = N!, det M2 = (N!)^2 to 1e-6 relative; N <= 6, all orderings.
    worst_trace = worst_det = 0.0
    for n in range(2, 7):
        for record in sweep_records(n):
            for kind, builder in ((KIND_M1, build_m1), (KIND_M2, build_m2)):
                entries = builder(record.zeros, record.poly.coefficients).entries
                tr_ref = expected_trace(kind, n)
                det_ref = expected_determinant(kind, n)
                worst_trace = max(worst_trace,
                                  abs(np.trace(entries) - tr_ref) / tr_ref)
                worst_det = max(worst_det,
                                abs(np.linalg.det(entries) - det_ref) / det_ref)
    ok = worst_trace < 1e-8 and worst_det < 1e-6
    report_line(4, ok,
                f"trace identities to {worst_trace:.3e} (< 1e-8 rel) and "
                f"determinant identities to {worst_det:.3e} (< 1e-6 rel), "
                f"N<=6, all orderings")


def test_criterion_5_equilibrium_identities():
    # Hermite zeros satisfy both stationarity systems with residual < 1e-10
    # for all N <= 20.
    worst = 0.0
    for n in range(2, 21):
        h = hermite_zeros(n)
        worst = max(worst, h.residual_first, h.residual_second)
    report_line(5, worst < 1e-10,
                f"equilibrium residuals over N=2..20: worst {worst:.3e} (< 1e-10)")


def test_criterion_6_jacobian_oracle_equivalence():
    # Closed-form M1 agrees with -i x FD Jacobian of the first-order zero
    # flow, and M2 with -1 x FD Jacobian of the zero-velocity force, to 1e-4
    # relative, all orderings at N <= 5.
    worst1 = worst2 = 0.0
    for n in range(2, 6):
        for record in sweep_records(n):
            z = record.zeros.zeros
            c = record.poly.coefficients
            m1 = build_m1(z, c).entries
            j1 = -1j * fd_jacobian("zeta1", z, 1e-6)
            worst1 = max(worst1, float(np.abs(m1 - j1).max() / np.abs(m1).max()))
            m2 = build_m2(z, c).entries
            j2 = -fd_jacobian("zeta2_force", z, 1e-6)
            worst2 = max(worst2, float(np.abs(m2 - j2).max() / np.abs(m2).max()))
    ok = worst1 < 1e-4 and worst2 < 1e-4
    report_line(6, ok,
                f"FD-Jacobian oracle, all orderings N<=5: M1 deviation "
                f"{worst1:.3e}, M2 deviation {worst2:.3e} (both < 1e-4)")


def _perturbed(base, radius, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
    return base + radius * direction / np.linalg.norm(direction)


def test_criterion_7_isochrony_near_equilibrium():
    # For each flow, 20 seeded starts within radius 1e-2 of equilibrium
    # return to themselves at t = 2*pi within 1e-5 (rel_tol 1e-10).
    n = 3
    herm = hermite_zeros(n).zeros.astype(complex)
    zero_eq = sweep_records(n)[0].zeros.zeros
    equilibria = {
        "gamma1": herm,
        "zeta1": zero_eq,
        "gamma2": np.concatenate([herm, np.zeros(n)]),
        "zeta2": np.concatenate([zero_eq, np.zeros(n)]),
    }
    worst = {}
    for system, equilibrium in equilibria.items():
        distances = []
        for seed in range(20):
            start = _perturbed(equilibrium, 1e-2, seed)
            initial = start if start.size == n else (start[:n], start[n:])
            record = integrate(system, initial, TWO_PI,
                               rel_tol=1e-10, abs_tol=1e-12)
            distances.append(float(np.abs(record.final_state - start).max()))
        worst[system] = max(distances)
    ok = all(value < 1e-5 for value in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report_line(7, ok,
                f"20 seeded starts per flow at radius 1e-2 return at 2*pi "
                f"within 1e-5: worst {detail}")


def test_criterion_8_permutation_similarity():
    # build(P z) = P build(z) P^T elementwise within 1e-10 for every
    # transposition at N <= 5, both kinds.
    worst = 0.0
    for n in range(2, 6):
        record = sweep_records(n)[0]
        z = record.zeros.zeros
        c = record.poly.coefficients
        for kind in (KIND_M1, KIND_M2):
            for a, b in combinations(range(1, n + 1), 2):
                worst = max(worst,
                            permutation_similarity_check(z, c, kind, (a, b)))
    report_line(8, worst < 1e-10,
                f"transposition similarity, N<=5, both kinds: worst "
                f"elementwise deviation {worst:.3e} (< 1e-10)")


def _sampled_nonlinear_deviation(system, zeros, coeffs, eps, v0, vdot0=None):
    """Max deviation between the nonlinear flow from an eps-scale start and
    its modal reconstruction, over 10 evenly spaced sample times in
    (0, 2*pi]."""
    n = zeros.size
    if system == "zeta1":
        matrix = build_m1(zeros, coeffs)
        state = zeros + eps * v0
    else:
        matrix = build_m2(zeros, coeffs)
        state = np.concatenate([zeros + eps * v0, eps * vdot0])
    worst = 0.0
    t_prev = 0.0
    for k in range(1, 11):
        t_k = TWO_PI * k / 10.0
        initial = state if system == "zeta1" else (state[:n], state[n:])
        record = integrate(system if system == "zeta1" else "zeta2",
                           initial, t_k - t_prev, rel_tol=1e-12, abs_tol=1e-14)
        state = record.final_state
        t_prev = t_k
        if system == "zeta1":
            linear = zeros + eps * linear_evolution_first(matrix, v0, t_k)
            worst = max(worst, float(np.abs(state - linear).max()))
        else:
            linear = zeros + eps * linear_evolution_second(matrix, v0, vdot0, t_k)
            worst = max(worst, float(np.abs(state[:n] - linear).max()))
    return worst


def test_criterion_9_linear_nonlinear_consistency():
    # An eps = 1e-6 perturbation evolved nonlinearly over [0, 2*pi] matches
    # the modal reconstruction within 1e-4 * eps at 10 sample times, N <= 4.
    eps = 1e-6
    worst_first = worst_second = 0.0
    for n in (3, 4):
        record = sweep_records(n)[0]
        zeros = record.zeros.zeros
        coeffs = record.poly.coefficients
        rng = np.random.default_rng(n)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        vdot0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vdot0 /= np.linalg.norm(vdot0)
        worst_first = max(worst_first, _sampled_nonlinear_deviation(
            "zeta1", zeros, coeffs, eps, v0))
        worst_second = max(worst_second, _sampled_nonlinear_deviation(
            "zeta2", zeros, coeffs, eps, v0, vdot0))
    bound = 1e-4 * eps
    ok = worst_first < bound and worst_second < bound
    report_line(9, ok,
                f"eps=1e-6 nonlinear flows track the modal reconstruction at "
                f"10 sample times, N<=4: first-order {worst_first:.2e}, "
                f"second-order {worst_second:.2e} (both < {bound:.0e})")
