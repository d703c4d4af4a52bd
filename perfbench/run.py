"""Benchmark of diospec, end to end and split per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.  One
process, one closed-loop client, ``jobs=1``.  Passes over the workload's
seeded inputs repeat until ``--seconds`` have passed.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates plain and traced passes and
reports the per-layer split.  Lines starting with ``#`` describe the run; the
last line is the JSON result.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
SETUP_CODE = """
import json, time
start = time.perf_counter()
import diospec
imported = time.perf_counter()
for n in {ns!r}:
    diospec.hermite_zeros(n)
print(json.dumps([imported - start, time.perf_counter() - imported]))
"""

def cap_blas_threads():
    """Let BLAS use at most one thread per CPU this process may run on."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else ncpu
        os.environ[var] = str(min(limit, ncpu))


def measure_setup(ns, reference):
    """Median over fresh interpreters of importing diospec and computing the
    (cached) Hermite zeros the workload needs, each scaled to the reference
    speed measured just before and after it: (total, import, hermite)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, hermite = [], []
    before = reference.measure_median()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(ns=tuple(ns))],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        after = reference.measure_median()
        scale = reference.REFERENCE_S / (0.5 * (before + after))
        before = after
        first, second = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(first * scale)
        hermite.append(second * scale)
    total = statistics.median(a + b for a, b in zip(imports, hermite))
    return total, statistics.median(imports), statistics.median(hermite)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, which is
    the eleventh-highest sample, and that percentile.  Below twenty samples
    no percentile from the median up has ten beyond it; there the 75th
    percentile, interpolated, stands in, so that it does not jump with the
    number of samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return ordered[0], 100.0
    return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0


def metadata(workload, args):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "src_lines": src_lines,
    }


class Tally:
    """Outcomes of every timed call in a run, kept per input.

    Every input runs once per pass, and the library is deterministic, so an
    input fails in every pass or in none: ``attempted`` and ``failed`` count
    the checks of the seed's inputs once, and an input whose outcome changes
    between passes is a wrong output.
    """

    def __init__(self, ops):
        self.ops = ops
        self.outcomes = [None for _ in ops]  # (completed, failed) of the first pass
        self.errors, self.violations, self.notes = {}, {}, {}
        self.passes = []  # per pass: (traced, [(input, start, seconds), ...])

    @property
    def attempted(self):
        return sum(op.checks for op in self.ops)

    @property
    def failed(self):
        return sum(failed for _, failed in self.outcomes)

    @property
    def completed(self):
        return sum(completed for completed, _ in self.outcomes)

    def run_pass(self, traced=False):
        """Run every input once and record its outcome and timing."""
        calls = []
        for i, op in enumerate(self.ops):
            outcome = op.run()
            calls.append((i, outcome.start, outcome.seconds))
            result = (outcome.completed, outcome.failed)
            if self.outcomes[i] is None:
                self.outcomes[i] = result
            elif self.outcomes[i] != result and op.label not in self.violations:
                self.violations[op.label] = (
                    f"{op.label}: (completed, failed) checks {result} in pass "
                    f"{len(self.passes) + 1}, {self.outcomes[i]} in pass 1")
            for log, text in ((self.errors, outcome.error),
                              (self.violations, outcome.violation),
                              (self.notes, outcome.note)):
                if text is not None:
                    log.setdefault(op.label, text)
        self.passes.append((traced, calls))

    def pass_seconds(self, traced, sampler=None):
        """Library time of each plain (or traced) pass, as measured or, given
        the sampler, scaled to the reference speed."""
        return [sum(seconds * (sampler.scale(start, start + seconds) if sampler else 1.0)
                    for _, start, seconds in calls)
                for was_traced, calls in self.passes if was_traced == traced]

    def scaled_times(self, sampler):
        """Scaled seconds of each plain repeat, per input."""
        times = [[] for _ in self.ops]
        for traced, calls in self.passes:
            if not traced:
                for i, start, seconds in calls:
                    times[i].append(seconds * sampler.scale(start, start + seconds))
        return times


def per_layer(tracer, tally, sampler, setup):
    traced_walls = tally.pass_seconds(traced=True)
    passes = len(traced_walls)
    self_s = {k: v / passes for k, v in tracer.self_s.items()}
    calls = {k: v / passes for k, v in tracer.calls.items()}
    counts = {k: v / passes for k, v in tracer.counts.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    roots_calls = calls.get("polynomials.roots", 0.0)
    retries = counts.get("roots_retries", 0.0)
    eig_calls = calls.get("eig.eigenvalues", 0.0)
    rhs_calls = calls.get("dynamics.rhs", 0.0)
    accepted = counts.get("steps_accepted", 0.0)
    rejected = counts.get("steps_rejected", 0.0)
    wall = sum(traced_walls) / passes
    return {
        "hermite.zeros_s": (setup[2], "s"),
        "setup.import_s": (setup[1], "s"),
        "polynomials.roots_calls": (roots_calls, "count"),
        "polynomials.roots_s": (self_s.get("polynomials.roots", 0.0), "s"),
        "polynomials.roots_retry_ratio": (ratio(retries, roots_calls - retries), "ratio"),
        "polynomials.roots_error_ratio": (
            ratio(counts.get("roots_raised", 0.0), roots_calls), "ratio"),
        "polynomials.root_backward_error_max": (
            tracer.maxima.get("root_backward_error", 0.0), "1"),
        "matrices.build_s": (self_s.get("matrices.build", 0.0), "s"),
        "matrices.spectrum_check_self_s": (self_s.get("matrices.spectrum_check", 0.0), "s"),
        "matrices.max_deviation": (tracer.maxima.get("max_deviation", 0.0), "1"),
        "eig.eigenvalues_calls": (eig_calls, "count"),
        "eig.eigenvalues_s": (self_s.get("eig.eigenvalues", 0.0), "s"),
        "eig.qr_steps_per_matrix": (ratio(counts.get("qr_steps", 0.0), eig_calls), "count"),
        "report.run_verification_self_s": (self_s.get("report.run_verification", 0.0), "s"),
        "report.serialize_s": (self_s.get("report.serialize", 0.0), "s"),
        "report.bytes_out": (counts.get("bytes_out", 0.0), "bytes"),
        "dynamics.integrate_self_s": (self_s.get("dynamics.integrate", 0.0), "s"),
        "dynamics.rhs_calls": (rhs_calls, "count"),
        "dynamics.rhs_s": (self_s.get("dynamics.rhs", 0.0), "s"),
        "dynamics.us_per_rhs_call": (
            ratio(1e6 * self_s.get("dynamics.rhs", 0.0), rhs_calls), "us"),
        "dynamics.steps_accepted": (accepted, "count"),
        "dynamics.step_reject_ratio": (ratio(rejected, accepted + rejected), "ratio"),
        "dynamics.zero_exchanges": (len(tally.notes), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.probe_s": (self_s.get("trace.probe", 0.0), "s"),
        "trace.unattributed_s": (wall - sum(self_s.values()), "s"),
        "trace_overhead_ratio": (
            statistics.median(tally.pass_seconds(traced=True, sampler=sampler))
            / statistics.median(tally.pass_seconds(traced=False, sampler=sampler)), "ratio"),
        "error_ratio": (ratio(tally.failed, tally.attempted), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "diospec" / "__init__.py").is_file():
        print(f"error: no diospec package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import reference
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print("# meta " + json.dumps(metadata(workload, args)))
    reference.measure()  # untimed warm-up of the reference kernel
    setup = measure_setup(workload.ns, reference)

    tally = Tally(workload.ops())
    tally.ops[0].run()  # untimed: first-call costs are not what a run measures
    tracer = Tracer()
    started = perf_counter()
    deadline = started + args.seconds
    with reference.Sampler() as sampler:
        while True:
            tally.run_pass()
            if args.trace:
                with tracer.install():
                    tally.run_pass(traced=True)
            # Whole passes only; stop when the next pass would end further
            # past the deadline than this one ends before it.
            now = perf_counter()
            if now + 0.5 * (now - started) / len(tally.passes) >= deadline:
                break

    for heading, log in (("failure", tally.errors), ("violation", tally.violations),
                         ("note", tally.notes)):
        for label, text in log.items():
            print(f"# {heading} {workload.name} {label}: {text}")

    error_ratio = tally.failed / tally.attempted
    if args.trace:
        metrics = per_layer(tracer, tally, sampler, setup)
    else:
        times = tally.scaled_times(sampler)
        typical = [statistics.median(t) for t in times]  # per input
        rate = tally.completed / sum(typical)
        # One sample per input, so the tail's percentile does not depend on
        # how many passes fit in the run; a sweep is a single input, so
        # there its calls are the samples.
        tail_samples = (typical if len(typical) >= 20
                        else [t for repeats in times for t in repeats])
        tail_value, tail_pct = tail(tail_samples)
        p50_ms = 1e3 * statistics.median(typical)
        metrics = {
            "setup_s": (setup[0], "s"),
            "ops_per_s": (rate, "1/s"),
            "call_p50_ms": (p50_ms, "ms"),
            "call_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        summary = {
            workload.rate_name: rate,
            f"{workload.call_name}_p50_ms": p50_ms,
            f"{workload.call_name}_tail_ms": 1e3 * tail_value,
            "tail_percentile": tail_pct,
            "tail_samples": len(tail_samples),
            "calls": len(tally.passes) * len(tally.ops),
            "passes": len(tally.passes),
            "error_ratio": error_ratio,
            "library_s_measured": sum(tally.pass_seconds(traced=False)),
            "library_s_scaled": sum(tally.pass_seconds(traced=False, sampler=sampler)),
            "reference_samples": len(sampler.seconds),
            "reference_slowdown": sampler.slowdown(),
        }
        print("# summary " + json.dumps(summary))

    print(f"# error_ratio {tally.failed}/{tally.attempted} = {error_ratio:.6g}; "
          f"{len(tally.errors)} failing inputs, {len(tally.violations)} wrong outputs")
    result = {
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
