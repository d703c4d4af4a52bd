"""The three workloads: seeded inputs, the timed library calls, and the
correctness gate applied to every output.

A pass is one round over a workload's seeded inputs; a run repeats passes
until its time is up, so per-pass counts repeat exactly for a fixed seed.
Library functions are looked up on their modules at call time, which is
where the tracer patches them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import diospec.dynamics as dynamics
import diospec.report as report
from diospec import PermutationId, hermite_zeros, permuted_polynomial, roots
from diospec.errors import NumericalError
from reference import clock

TWO_PI = 2.0 * math.pi
RETURN_TOL = 1e-5  # the `simulate` pass threshold on the return distance


@dataclass
class Outcome:
    """What one timed call produced, as the gate judged it."""

    start: float  # reference.clock() when the call began
    seconds: float
    completed: int
    failed: int
    error: Optional[str] = None      # the call raised (a known failure mode)
    violation: Optional[str] = None  # the call returned a wrong output
    note: Optional[str] = None       # correct, but worth logging


@dataclass
class Op:
    label: str
    checks: int
    call: Callable[[], object]
    judge: Callable[[object], tuple]  # output -> (violation, note)

    def run(self) -> Outcome:
        start = clock()
        try:
            output = self.call()
        except NumericalError as exc:
            seconds = clock() - start
            return Outcome(start, seconds, 0, self.checks,
                           error=f"{type(exc).__name__}: {exc}")
        seconds = clock() - start
        violation, note = self.judge(output)
        if violation is not None:
            return Outcome(start, seconds, 0, self.checks, violation=violation)
        return Outcome(start, seconds, self.checks, 0, note=note)


def _stratified_ranks(rng, n, count):
    """``count`` ordering ranks of 1..n!, one drawn uniformly from each of
    ``count`` equal slices, so that a seed's draws cover the orderings evenly
    and seeds differ less than with independent draws."""
    total = math.factorial(n)
    width = total / count
    return [min(total, 1 + int((j + rng.random()) * width)) for j in range(count)]


def _statuses_violation(statuses, label) -> Optional[str]:
    bad = [s for s in statuses if s != "pass"]
    return f"{label}: statuses {sorted(set(bad))}" if bad else None


class SweepN6:
    """Full N = 6 sweeps, both kinds, each rendered as a JSON report."""

    name = "sweep_n6"
    rate_name, call_name = "checks_per_s", "sweep"
    ns = (6,)
    n = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = 2 * math.factorial(self.n)
        self.digest = None  # determinism_sha256 of the first sweep

    def _call(self):
        config = report.RunConfig(self.n, seed=self.seed, jobs=1)
        return report.report_to_json(report.run_verification(config))

    def _judge(self, text):
        payload = json.loads(text)
        statuses = [r["status"] for r in payload["results"]]
        if len(statuses) != self.checks:
            return f"sweep returned {len(statuses)} checks, expected {self.checks}", None
        violation = _statuses_violation(statuses, f"N={self.n} sweep")
        if violation:
            return violation, None
        digest = payload["determinism_sha256"]
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return f"determinism_sha256 {digest} differs from {self.digest}", None
        return None, None

    def ops(self):
        return [Op(f"N={self.n} full sweep", self.checks, self._call, self._judge)]


class SampledLargeN:
    """Single-ordering verify calls at N = 9..12, each rendered as CSV.

    Every drawn ordering stays in, including those where the roots iteration
    raises NonConvergence: they are the failures this workload measures.
    """

    name = "sampled_large_n"
    rate_name, call_name = "checks_per_s", "verify"
    ns = (9, 10, 11, 12)
    per_n = 250

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ranks = {n: _stratified_ranks(rng, n, self.per_n) for n in self.ns}
        self.inputs = [(n, ranks[n][j]) for j in range(self.per_n) for n in self.ns]
        self.seed = seed

    def _call(self, n, rank):
        config = report.RunConfig(n, orderings=(rank,), output_format="csv",
                                  seed=self.seed, jobs=1)
        return report.report_to_csv(report.run_verification(config))

    @staticmethod
    def _judge(label, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 2:
            return f"{label}: {len(rows)} CSV rows, expected 2", None
        return _statuses_violation([r["status"] for r in rows], label), None

    def ops(self):
        ops = []
        for n, rank in self.inputs:
            label = f"N={n} rank={rank}"
            ops.append(Op(label, 2, lambda n=n, rank=rank: self._call(n, rank),
                          lambda text, label=label: self._judge(label, text)))
        return ops


def _relabelled_distance(final, start, n):
    """Return distance minimised over relabellings of the N zeros (applied to
    positions and velocities alike)."""
    blocks = start.size // n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        index = np.concatenate([np.asarray(perm) + k * n for k in range(blocks)])
        best = min(best, float(np.max(np.abs(final[index] - start))))
    return best


class Flows:
    """Integrations of the four flows over one period from radius 1e-2 of an
    equilibrium, N cycling through 3..5."""

    name = "flows"
    rate_name, call_name = "trajectories_per_s", "integrate"
    ns = (3, 4, 5)
    per_combo = 6
    radius = 1e-2

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        draws = random.Random(seed)
        self.inputs = []
        for n in self.ns:
            for system in dynamics.SYSTEMS:
                for rank in _stratified_ranks(draws, n, self.per_combo):
                    poly = permuted_polynomial(hermite_zeros(n),
                                               PermutationId.from_rank(n, rank))
                    base = (poly.coefficients if system.startswith("gamma")
                            else roots(poly).zeros)
                    if system.endswith("2"):
                        base = np.concatenate([base, np.zeros(n, dtype=complex)])
                    direction = (rng.standard_normal(base.size)
                                 + 1j * rng.standard_normal(base.size))
                    start = base + self.radius * direction / np.linalg.norm(direction)
                    self.inputs.append((system, n, rank, start))

    @staticmethod
    def _call(system, n, start):
        initial = start if start.size == n else (start[:n], start[n:])
        return dynamics.integrate(system, initial, TWO_PI, rel_tol=1e-10, abs_tol=1e-12)

    @staticmethod
    def _judge(label, system, n, start, record):
        distance = float(np.max(np.abs(record.final_state - start)))
        if distance <= RETURN_TOL:
            return None, None
        # Zeros of a 2*pi-periodic polynomial may return permuted: the
        # coefficients come back, the labels need not.
        if system.startswith("zeta"):
            relabelled = _relabelled_distance(record.final_state, start, n)
            if relabelled <= RETURN_TOL:
                return None, (f"{label}: zeros exchanged; return distance "
                              f"{distance:.3e}, {relabelled:.3e} after relabelling")
        return f"{label}: return distance {distance:.3e} > {RETURN_TOL}", None

    def ops(self):
        ops = []
        for system, n, rank, start in self.inputs:
            label = f"{system} N={n} rank={rank}"
            ops.append(Op(
                label, 1,
                lambda system=system, n=n, start=start: self._call(system, n, start),
                lambda record, label=label, system=system, n=n, start=start:
                    self._judge(label, system, n, start, record)))
        return ops


WORKLOADS = {w.name: w for w in (SweepN6, SampledLargeN, Flows)}
