"""Command-line interface.

Subcommands: ``hermite-zeros`` (zero tables with equilibrium residuals),
``verify`` (spectrum sweeps over coefficient orderings), ``simulate``
(periodicity of the four flows from seeded near-equilibrium starts), and
``oracle`` (closed-form matrices against finite-difference Jacobians).

Exit codes: 0 success, 1 spectral failure, 2 usage error (an ``--out`` file
that cannot be written is one), 3 numerical non-convergence, 4 dynamics
collision.  A command returns 0 or 1 and raises on any other outcome;
``main`` writes the exception as one ``error:`` line and returns the code of
the first entry of ``_FAILURES`` it matches.  Other exceptions propagate, so
a bug is never reported as a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys

import numpy as np

from . import dynamics
from .errors import CollisionAbort, NearCollision, NumericalError
from .hermite import PermutationId, hermite_zeros, permuted_polynomial
from .matrices import KIND_M1, KIND_M2, build_m1, build_m2
from .polynomials import check_positive, roots
from .report import (
    RunConfig,
    csv_slices,
    json_slices,
    mu_assignment_table,
    run_verification,
    to_json,
)

__all__ = [
    "EXIT_OK",
    "EXIT_SPECTRAL_FAIL",
    "EXIT_USAGE",
    "EXIT_NUMERICAL",
    "EXIT_COLLISION",
    "build_parser",
    "main",
    "console_entry",
]

EXIT_OK = 0
EXIT_SPECTRAL_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_COLLISION = 4


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int, required=True, help="problem size")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the output to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diospec",
        description="Integer and squared-integer spectra of matrices built from "
                    "the zeros of Hermite-seeded monic polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    hz = sub.add_parser("hermite-zeros",
                        help="ascending Hermite zeros plus equilibrium residuals")
    _add_common(hz)

    ver = sub.add_parser("verify", help="spectrum sweep over coefficient orderings")
    _add_common(ver)
    ver.add_argument("--seed", type=int, default=42, help="seed of sample:K orderings")
    ver.add_argument("--jobs", type=int, default=1, help="worker processes")
    ver.add_argument("--tol-root", type=float, default=1e-12)
    ver.add_argument("--tol-pass", type=float, default=1e-6)
    ver.add_argument("--kinds", default="M1,M2",
                     help="comma-separated subset of M1,M2")
    ver.add_argument("--orderings", default="all",
                     help='"all", comma-separated ranks, or "sample:K"')
    ver.add_argument("--force", action="store_true",
                     help="allow a full sweep beyond n=8")
    ver.add_argument("--mu-table", action="store_true",
                     help="print the n=3 rank/word table for the six "
                          "mu-numbered assignments and exit")

    sim = sub.add_parser("simulate",
                         help="integrate one flow from a seeded near-equilibrium start")
    _add_common(sim)
    sim.add_argument("--seed", type=int, default=42, help="seed of the perturbation")
    sim.add_argument("--tol-root", type=float, default=1e-12)
    sim.add_argument("--tol-ode-rel", type=float, default=1e-10)
    sim.add_argument("--tol-ode-abs", type=float, default=1e-12)
    sim.add_argument("--system", choices=dynamics.SYSTEMS, required=True)
    sim.add_argument("--ordering-rank", type=int, default=1,
                     help="coefficient ordering for the zeta systems")
    sim.add_argument("--t-end", type=float, default=2.0 * math.pi)
    sim.add_argument("--radius", type=float, default=1e-2,
                     help="perturbation radius around equilibrium")
    sim.add_argument("--return-tol", type=float, default=1e-5,
                     help="pass threshold on the return distance")

    orc = sub.add_parser("oracle",
                         help="closed-form matrix versus finite-difference Jacobian")
    _add_common(orc)
    orc.add_argument("--tol-root", type=float, default=1e-12)
    orc.add_argument("--kind", choices=(KIND_M1, KIND_M2), default=KIND_M1)
    orc.add_argument("--ordering-rank", type=int, default=1)
    orc.add_argument("--h", type=float, default=1e-6, help="central-difference step")
    orc.add_argument("--self-test", action="store_true",
                     help="differentiate a hand-built linear field instead")
    return parser


def _emit(args, payload, rows=None) -> int:
    """Write one result to the ``--out`` file, if given, and to stdout, and
    return EXIT_OK.  The file is opened first, so one that cannot be opened
    raises before stdout gets anything.  A dict payload is rendered whole:
    JSON through ``to_json``, and CSV as ``rows``, by default the flat
    payload's keys and then its values.  Any other payload is an iterable
    of text slices, each written to both in turn."""
    if not isinstance(payload, dict):
        slices = payload
    elif args.format == "json":
        slices = [to_json(payload)]
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            rows or [list(payload), list(payload.values())])
        slices = [buffer.getvalue()]
    with (open(args.out, "w") if args.out else contextlib.nullcontext()) as fh:
        for text in slices:
            if fh:
                fh.write(text)
            sys.stdout.write(text)
    return EXIT_OK


def _hermite_zeros(args) -> int:
    """Ascending zeros of the degree-n Hermite polynomial and the residuals
    of the two equilibrium identities they satisfy."""
    herm = hermite_zeros(args.n)
    zeros = [float(z) for z in herm.zeros]
    residuals = [f"{herm.residual_first:.17g}", f"{herm.residual_second:.17g}"]
    rows = [["n", "index", "zero", "residual_first", "residual_second"]]
    rows += [[herm.order, i, f"{z:.17g}", *residuals] for i, z in enumerate(zeros, start=1)]
    return _emit(args, {"n": herm.order, "zeros": zeros,
                        "residual_first": herm.residual_first,
                        "residual_second": herm.residual_second}, rows)


def _parse_orderings(text: str):
    if text == "all":
        return "all"
    if text.startswith("sample:"):
        return ("sample", int(text.split(":", 1)[1]))
    return tuple(int(part) for part in text.split(",") if part)


def _verify(args) -> int:
    """Run the sweep and print the report; exit 0 only with zero failures
    (inconclusive rows are listed but do not fail the run)."""
    if args.mu_table and args.n != 3:
        raise ValueError(f"the mu table is defined for n=3, got {args.n}")
    config = RunConfig(
        n=args.n,
        kinds=tuple(k for k in args.kinds.split(",") if k),
        orderings=_parse_orderings(args.orderings),
        root_tol=args.tol_root,
        pass_tol=args.tol_pass,
        output_format=args.format,
        seed=args.seed,
        jobs=args.jobs,
        force=args.force,
    )
    if args.mu_table:
        table = mu_assignment_table()
        return _emit(args, table, [["mu", "word", "rank"]] + [
            [row["mu"], " ".join(map(str, row["word"])), row["rank"]]
            for row in table["assignments"]])
    report = run_verification(config)
    _emit(args, (json_slices if args.format == "json" else csv_slices)(report))
    return EXIT_OK if report.aggregate["fail"] == 0 else EXIT_SPECTRAL_FAIL


def _start(args) -> np.ndarray:
    """The equilibrium of the flow, at rest for the second-order ones, plus a
    seeded perturbation of norm ``--radius``."""
    herm = hermite_zeros(args.n)
    # Every system checks the rank, though only the zeta flows read it.
    perm = PermutationId.from_rank(args.n, args.ordering_rank)
    if args.system.startswith("gamma"):
        base = herm.zeros.astype(complex)
    else:
        base = roots(permuted_polynomial(herm, perm), tol=args.tol_root).zeros
    if args.system.endswith("2"):
        base = np.concatenate([base, np.zeros(args.n, dtype=complex)])
    rng = np.random.default_rng(args.seed)
    direction = rng.standard_normal(base.size) + 1j * rng.standard_normal(base.size)
    return base + args.radius * direction / np.linalg.norm(direction)


def _simulate(args) -> int:
    """Integrate one flow from a seeded perturbation of its equilibrium and
    report the distance between start and state at t_end.  Every value is
    checked for every system, also when a zero horizon skips integrating."""
    for name in ("return_tol", "tol_root", "tol_ode_rel", "tol_ode_abs"):
        check_positive(name, getattr(args, name))
    if not 0 <= args.radius < math.inf:
        raise ValueError("radius must be non-negative and finite")
    start = _start(args)
    # A zero horizon is reported without integrating.
    t_end, distance, steps, min_sep = 0.0, 0.0, (0, 0), math.inf
    if args.t_end != 0.0:
        n = args.n
        initial = start if args.system.endswith("1") else (start[:n], start[n:])
        record = dynamics.integrate(args.system, initial, args.t_end,
                                    rel_tol=args.tol_ode_rel, abs_tol=args.tol_ode_abs)
        t_end, distance = args.t_end, float(np.max(np.abs(record.final_state - start)))
        steps, min_sep = record.step_stats, record.min_separation_seen
    return _emit(args, {
        "system": args.system,
        "n": args.n,
        "ordering_rank": args.ordering_rank,
        "seed": args.seed,
        "radius": args.radius,
        "t_end": t_end,
        "return_distance": distance,
        "return_tol": args.return_tol,
        "verdict": "pass" if distance <= args.return_tol else "fail",
        "steps_accepted": steps[0],
        "steps_rejected": steps[1],
        "min_separation_seen": (None if math.isinf(min_sep) else min_sep),
    })


def _oracle(args) -> int:
    """Compare a closed-form matrix with the finite-difference Jacobian of the
    matching flow, or run the linear-field self-test of the differencer."""
    n, h = args.n, args.h
    # Both paths check the step, the order, the rank and the root tolerance.
    dynamics.check_fd_step(h)
    herm = hermite_zeros(n)
    perm = PermutationId.from_rank(n, args.ordering_rank)
    check_positive("tol_root", args.tol_root)
    if args.self_test:
        rng = np.random.default_rng(0)
        reference = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        jac = dynamics.central_difference_jacobian(lambda v: reference @ v,
                                                   np.zeros(n, dtype=complex), h)
        payload = {"n": n, "kind": "linear-field-self-test", "h": h}
    else:
        poly = permuted_polynomial(herm, perm)
        zeros = roots(poly, tol=args.tol_root)
        if args.kind == KIND_M1:
            jac, builder = -1j * dynamics.fd_jacobian("zeta1", zeros.zeros, h), build_m1
        else:
            jac, builder = -dynamics.fd_jacobian("zeta2_force", zeros.zeros, h), build_m2
        reference = builder(zeros, poly.coefficients).entries
        payload = {"n": n, "ordering_rank": args.ordering_rank, "kind": args.kind, "h": h}
    payload["max_relative_deviation"] = float(
        np.max(np.abs(reference - jac)) / np.max(np.abs(reference)))
    return _emit(args, payload)


_COMMANDS = {"hermite-zeros": _hermite_zeros, "verify": _verify,
             "simulate": _simulate, "oracle": _oracle}

# Exit code of a command's failure: the first entry its exception matches.
_FAILURES = ((CollisionAbort, EXIT_COLLISION), (NearCollision, EXIT_COLLISION),
             (NumericalError, EXIT_NUMERICAL), (ValueError, EXIT_USAGE),
             (OSError, EXIT_USAGE))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(kind for kind, _ in _FAILURES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _FAILURES if isinstance(exc, kind))


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
