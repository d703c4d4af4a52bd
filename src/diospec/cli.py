"""Command-line interface.

Subcommands: ``hermite-zeros`` (zero tables with equilibrium residuals),
``verify`` (spectrum sweeps over coefficient orderings), ``simulate``
(periodicity of the four flows from seeded near-equilibrium starts), and
``oracle`` (closed-form matrices against finite-difference Jacobians).

Exit codes: 0 success, 1 spectral failure, 2 usage error, 3 numerical
non-convergence, 4 dynamics collision.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from typing import Optional

import numpy as np

from . import dynamics
from .errors import CollisionAbort, NearCollision, NonConvergence, StepFloorReached
from .hermite import PermutationId, hermite_zeros, permuted_polynomial
from .matrices import KIND_M1, KIND_M2, build_m1, build_m2
from .polynomials import roots
from .report import (
    RunConfig,
    mu_assignment_table,
    report_to_csv,
    report_to_json,
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
    "cmd_hermite_zeros",
    "cmd_verify",
    "cmd_simulate",
    "cmd_oracle",
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


def _emit(text: str, out: Optional[str]):
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _zeros_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "index", "zero", "residual_first", "residual_second"])
    for i, zero in enumerate(payload["zeros"], start=1):
        writer.writerow([payload["n"], i, f"{zero:.17g}",
                         f"{payload['residual_first']:.17g}",
                         f"{payload['residual_second']:.17g}"])
    return buffer.getvalue()


def cmd_hermite_zeros(n: int, fmt: str = "json", out: Optional[str] = None) -> int:
    """Print ascending zeros of the degree-n Hermite polynomial and the
    residuals of the two equilibrium identities they satisfy."""
    try:
        herm = hermite_zeros(n)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NonConvergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    payload = {
        "n": herm.order,
        "zeros": [float(z) for z in herm.zeros],
        "residual_first": herm.residual_first,
        "residual_second": herm.residual_second,
    }
    _emit(to_json(payload) if fmt == "json" else _zeros_csv(payload), out)
    return EXIT_OK


def _parse_orderings(text: str):
    if text == "all":
        return "all"
    if text.startswith("sample:"):
        return ("sample", int(text.split(":", 1)[1]))
    return tuple(int(part) for part in text.split(",") if part)


def cmd_verify(config: RunConfig, out: Optional[str] = None) -> int:
    """Run the sweep and print the report; exit 0 only with zero failures
    (inconclusive rows are listed but do not fail the run)."""
    try:
        report = run_verification(config)
    except NonConvergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    text = report_to_json(report) if config.output_format == "json" \
        else report_to_csv(report)
    _emit(text, out)
    return EXIT_OK if report.aggregate["fail"] == 0 else EXIT_SPECTRAL_FAIL


def _equilibrium_state(system: str, n: int, rank: int, root_tol: float):
    if system in ("gamma1", "gamma2"):
        base = hermite_zeros(n).zeros.astype(complex)
    else:
        perm = PermutationId.from_rank(n, rank)
        poly = permuted_polynomial(hermite_zeros(n), perm)
        base = roots(poly, tol=root_tol).zeros
    if system in ("gamma1", "zeta1"):
        return base
    return np.concatenate([base, np.zeros(n, dtype=complex)])


def _seeded_perturbation(dim: int, radius: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return radius * direction / np.linalg.norm(direction)


def cmd_simulate(system: str, n: int, ordering_rank: int = 1,
                 t_end: float = 2.0 * math.pi, radius: float = 1e-2,
                 seed: int = 42, return_tol: float = 1e-5,
                 rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                 root_tol: float = 1e-12, fmt: str = "json",
                 out: Optional[str] = None) -> int:
    """Integrate one flow from a seeded perturbation of its equilibrium and
    report the distance between start and state at t_end."""
    if not 0 < return_tol < math.inf:
        sys.stderr.write("error: return_tol must be positive and finite\n")
        return EXIT_USAGE
    if not 0 <= radius < math.inf:
        sys.stderr.write("error: radius must be non-negative and finite\n")
        return EXIT_USAGE
    try:
        equilibrium = _equilibrium_state(system, n, ordering_rank, root_tol)
    except (ValueError, NonConvergence) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_NUMERICAL

    start = equilibrium + _seeded_perturbation(equilibrium.size, radius, seed)
    size = n if system in ("gamma1", "zeta1") else 2 * n

    if t_end == 0.0:
        payload = _simulate_payload(system, n, ordering_rank, seed, radius, 0.0,
                                    0.0, (0, 0), math.inf, return_tol)
        _emit(to_json(payload) if fmt == "json" else _simulate_csv(payload), out)
        return EXIT_OK

    initial = start if size == n else (start[:n], start[n:])
    try:
        record = dynamics.integrate(system, initial, t_end,
                                    rel_tol=rel_tol, abs_tol=abs_tol)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (CollisionAbort, NearCollision) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COLLISION
    except StepFloorReached as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL

    distance = float(np.max(np.abs(record.final_state - start)))
    payload = _simulate_payload(system, n, ordering_rank, seed, radius, t_end,
                                distance, record.step_stats,
                                record.min_separation_seen, return_tol)
    _emit(to_json(payload) if fmt == "json" else _simulate_csv(payload), out)
    return EXIT_OK


def _simulate_payload(system, n, rank, seed, radius, t_end, distance,
                      step_stats, min_sep, return_tol) -> dict:
    return {
        "system": system,
        "n": n,
        "ordering_rank": rank,
        "seed": seed,
        "radius": radius,
        "t_end": t_end,
        "return_distance": distance,
        "return_tol": return_tol,
        "verdict": "pass" if distance <= return_tol else "fail",
        "steps_accepted": step_stats[0],
        "steps_rejected": step_stats[1],
        "min_separation_seen": (None if math.isinf(min_sep) else min_sep),
    }


def _simulate_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    keys = list(payload.keys())
    writer.writerow(keys)
    writer.writerow([payload[k] for k in keys])
    return buffer.getvalue()


def cmd_oracle(n: int, ordering_rank: int = 1, kind: str = KIND_M1,
               h: float = 1e-6, self_test: bool = False,
               root_tol: float = 1e-12, fmt: str = "json",
               out: Optional[str] = None) -> int:
    """Compare a closed-form matrix with the finite-difference Jacobian of the
    matching flow, or run the linear-field self-test of the differencer."""
    try:
        dynamics.check_fd_step(h)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if self_test:
        rng = np.random.default_rng(0)
        linear = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        jac = dynamics.central_difference_jacobian(lambda v: linear @ v,
                                                   np.zeros(n, dtype=complex), h)
        deviation = float(np.max(np.abs(jac - linear)) / np.max(np.abs(linear)))
        payload = {"n": n, "kind": "linear-field-self-test", "h": h,
                   "max_relative_deviation": deviation}
        _emit(to_json(payload) if fmt == "json" else _simulate_csv(payload), out)
        return EXIT_OK

    try:
        perm = PermutationId.from_rank(n, ordering_rank)
        poly = permuted_polynomial(hermite_zeros(n), perm)
        zeros = roots(poly, tol=root_tol)
        if kind == KIND_M1:
            jac = -1j * dynamics.fd_jacobian("zeta1", zeros.zeros, h)
        else:
            jac = -dynamics.fd_jacobian("zeta2_force", zeros.zeros, h)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NonConvergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL

    builder = build_m1 if kind == KIND_M1 else build_m2
    matrix = builder(zeros, poly.coefficients, source_perm=perm).entries
    deviation = float(np.max(np.abs(matrix - jac)) / np.max(np.abs(matrix)))
    payload = {"n": n, "ordering_rank": ordering_rank, "kind": kind, "h": h,
               "max_relative_deviation": deviation}
    _emit(to_json(payload) if fmt == "json" else _simulate_csv(payload), out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "hermite-zeros":
        return cmd_hermite_zeros(args.n, fmt=args.format, out=args.out)

    if args.command == "verify":
        if args.mu_table:
            _emit(to_json(mu_assignment_table()), args.out)
            return EXIT_OK
        try:
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
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        return cmd_verify(config, out=args.out)

    if args.command == "simulate":
        return cmd_simulate(
            args.system, args.n, ordering_rank=args.ordering_rank,
            t_end=args.t_end, radius=args.radius, seed=args.seed,
            return_tol=args.return_tol, rel_tol=args.tol_ode_rel,
            abs_tol=args.tol_ode_abs, root_tol=args.tol_root,
            fmt=args.format, out=args.out)

    if args.command == "oracle":
        return cmd_oracle(
            args.n, ordering_rank=args.ordering_rank, kind=args.kind,
            h=args.h, self_test=args.self_test, root_tol=args.tol_root,
            fmt=args.format, out=args.out)

    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
