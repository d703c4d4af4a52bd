"""Run configuration, the batch verification pipeline, and deterministic
serialization of its reports.

JSON payloads are rendered by a small writer of our own so that floats always
carry 17 significant digits and complex numbers become {"re": ..., "im": ...}
objects; identical configuration and seed therefore produce byte-identical
output, except for the wall-clock ``timing`` field, which is excluded from
the determinism hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from . import __version__
from .errors import NonConvergence
from .hermite import hermite_zeros, word_from_rank
from .matrices import (
    CONDITIONING_FLOOR,
    KIND_M1,
    KIND_M2,
    build_stack,
    expected_spectrum,
    spectrum_stack,
)
from .polynomials import roots_stack

__all__ = [
    "MU_WORDS_N3",
    "RunConfig",
    "OrderingOutcome",
    "VerificationReport",
    "run_verification",
    "mu_assignment_table",
    "to_json",
    "determinism_hash",
    "report_to_dict",
    "report_to_json",
    "report_to_csv",
]

# The six mu-numbered coefficient assignments commonly quoted for n = 3,
# expressed as permutation words over the ascending zeros (-sqrt(3/2), 0,
# +sqrt(3/2)).  Lexicographic rank order and mu order disagree, hence the
# explicit table.
MU_WORDS_N3 = {
    1: (2, 3, 1),
    2: (2, 1, 3),
    3: (3, 2, 1),
    4: (3, 1, 2),
    5: (1, 3, 2),
    6: (1, 2, 3),
}

_MU5_NOTE = (
    "n=3 zero-table discrepancy: the mu=5 assignment (word (1,3,2)) has zeros "
    "{0, 0.6124+0.9219i, 0.6124-0.9219i}; the real triple {0, -1.8772, 0.6524} "
    "sometimes quoted for mu=5 duplicates the mu=4 row (word (3,1,2)). "
    "Recomputed values take precedence."
)

_FREQUENCY_NOTE = (
    "second-order modal frequencies are the positive square roots of the "
    "matrix eigenvalues (eigenvalue = frequency^2), so squared-integer "
    "eigenvalues give integer frequencies and 2*pi-periodic modes."
)

_ALL_KINDS = (KIND_M1, KIND_M2)

# Aberth start phases: the second is tried on the orderings the first leaves
# unconverged.
_START_PHASES = (0.4, 1.9)

# Matrix entries per chunk of orderings, so that chunk boundaries depend on
# n and the ranks alone (a full n = 6 sweep is one chunk, n = 8 chunks hold
# 1,024 orderings).
_CHUNK_ENTRIES = 2 ** 16


@dataclass
class RunConfig:
    """Configuration of one verification sweep."""

    n: int
    kinds: tuple = _ALL_KINDS
    orderings: Union[str, Sequence[int], tuple] = "all"
    root_tol: float = 1e-12
    eig_tol: float = 1e-13
    pass_tol: float = 1e-6
    ode_rel_tol: float = 1e-10
    ode_abs_tol: float = 1e-12
    output_format: str = "json"
    seed: int = 42
    jobs: int = 1
    force: bool = False

    def __post_init__(self):
        self.kinds = tuple(self.kinds)
        self.validate()

    def validate(self):
        if not 2 <= self.n <= 30:
            raise ValueError(f"n must be in 2..30, got {self.n}")
        for kind in self.kinds:
            if kind not in _ALL_KINDS:
                raise ValueError(f"unknown kind {kind!r}")
        if not self.kinds:
            raise ValueError("at least one kind required")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.orderings == "all" and self.n > 8 and not self.force:
            raise ValueError(
                f"a full sweep of {self.n}! orderings needs force=True beyond n=8")
        for name in ("root_tol", "eig_tol", "pass_tol", "ode_rel_tol", "ode_abs_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.orderings != "all" and not self._is_sample_spec():
            total = math.factorial(self.n)
            ranks = [int(r) for r in self.orderings]
            if not ranks or min(ranks) < 1 or max(ranks) > total:
                raise ValueError(f"ordering ranks must lie in 1..{total}")

    def _is_sample_spec(self) -> bool:
        return (isinstance(self.orderings, tuple) and len(self.orderings) == 2
                and self.orderings[0] == "sample")

    def ordering_ranks(self) -> list:
        """Resolve the orderings field to an explicit list of 1-based ranks."""
        total = math.factorial(self.n)
        if self.orderings == "all":
            return list(range(1, total + 1))
        if self._is_sample_spec():
            k = int(self.orderings[1])
            if k > total:
                raise ValueError(f"cannot sample {k} from {total} orderings")
            return sorted(random.Random(self.seed).sample(range(1, total + 1), k))
        return sorted(set(int(r) for r in self.orderings))

    def _orderings_payload(self):
        if self.orderings == "all":
            return "all"
        if self._is_sample_spec():
            return {"sample": int(self.orderings[1])}
        return [int(r) for r in self.orderings]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "kinds": list(self.kinds),
            "orderings": self._orderings_payload(),
            "tolerances": {
                "root_tol": self.root_tol,
                "eig_tol": self.eig_tol,
                "pass_tol": self.pass_tol,
                "ode_rel_tol": self.ode_rel_tol,
                "ode_abs_tol": self.ode_abs_tol,
            },
            "output_format": self.output_format,
            "seed": self.seed,
            "jobs": self.jobs,
            "force": self.force,
        }


@dataclass
class OrderingOutcome:
    """Spectrum-check result of one (ordering, kind) pair."""

    rank: int
    word: tuple
    kind: str
    eigenvalues: np.ndarray
    expected: tuple
    max_deviation: float
    status: str  # pass | fail | inconclusive
    zero_separation: float
    coeff_separation: float

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "word": list(self.word),
            "kind": self.kind,
            "eigenvalues": [complex(v) for v in self.eigenvalues],
            "expected": list(self.expected),
            "max_deviation": self.max_deviation,
            "status": self.status,
            "zero_separation": self.zero_separation,
            "coeff_separation": self.coeff_separation,
        }


@dataclass
class VerificationReport:
    """Everything one verification sweep produced."""

    config: RunConfig
    results: list
    aggregate: dict
    notes: list
    version: str = __version__
    timing_seconds: float = 0.0


def _verify_chunk(n: int, ranks: list, kinds: tuple, root_tol: float,
                  pass_tol: float) -> list:
    """The batched pipeline on one chunk of orderings: permute the Hermite
    zeros into coefficient rows, solve for all zeros at once, build each
    requested matrix stack and check its spectra.  Returns one
    OrderingOutcome per (ordering, kind), ordering-major."""
    words = [word_from_rank(n, rank) for rank in ranks]
    coeffs = hermite_zeros(n).zeros[np.array(words) - 1].astype(complex)
    zeros, failed = roots_stack(coeffs, tol=root_tol, start_phases=_START_PHASES)
    if failed.any():
        bad = [rank for rank, f in zip(ranks, failed) if f]
        more = f" (and {len(bad) - 1} more in its chunk)" if len(bad) > 1 else ""
        raise NonConvergence(
            f"Aberth iteration did not converge from start phases {_START_PHASES} "
            f"at n={n} rank={bad[0]}{more}")

    entries, zero_sep, coeff_sep = build_stack(zeros, coeffs, kinds)
    warned = np.minimum(zero_sep, coeff_sep) < CONDITIONING_FLOOR
    columns = []
    for kind in kinds:
        lam, deviation = spectrum_stack(entries[kind], kind)
        status = np.where(deviation <= pass_tol, "pass",
                          np.where(warned, "inconclusive", "fail"))
        columns.append((kind, tuple(expected_spectrum(kind, n).tolist()), lam,
                        deviation.tolist(), status.tolist()))
    zero_sep, coeff_sep = zero_sep.tolist(), coeff_sep.tolist()
    return [
        OrderingOutcome(rank, word, kind, lam[i], expected, deviation[i],
                        status[i], zero_sep[i], coeff_sep[i])
        for i, (rank, word) in enumerate(zip(ranks, words))
        for kind, expected, lam, deviation, status in columns
    ]


def run_verification(config: RunConfig) -> VerificationReport:
    """Run the sweep described by ``config`` and aggregate the outcomes.

    The orderings are checked in fixed chunks; with jobs > 1 the chunks are
    mapped over a process pool.  Reduction is order-preserving and a chunk's
    arithmetic does not depend on where it runs, so reports are identical
    either way.
    """
    config.validate()
    ranks = config.ordering_ranks()
    started = time.perf_counter()

    size = max(1, _CHUNK_ENTRIES // config.n ** 2)
    chunks = [ranks[i:i + size] for i in range(0, len(ranks), size)]
    verify = partial(_verify_chunk, config.n, kinds=config.kinds,
                     root_tol=config.root_tol, pass_tol=config.pass_tol)
    if config.jobs > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            grouped = list(pool.map(verify, chunks))
    else:
        grouped = [verify(chunk) for chunk in chunks]

    results = [outcome for group in grouped for outcome in group]
    deviations = [r.max_deviation for r in results]
    aggregate = {
        "checks": len(results),
        "pass": sum(r.status == "pass" for r in results),
        "fail": sum(r.status == "fail" for r in results),
        "inconclusive": sum(r.status == "inconclusive" for r in results),
        "max_deviation": max(deviations) if deviations else 0.0,
        "conditioning_floor": CONDITIONING_FLOOR,
    }
    notes = []
    if config.n == 3:
        notes.append(_MU5_NOTE)
    if KIND_M2 in config.kinds:
        notes.append(_FREQUENCY_NOTE)

    report = VerificationReport(
        config=config,
        results=results,
        aggregate=aggregate,
        notes=notes,
        timing_seconds=time.perf_counter() - started,
    )
    return report


def mu_assignment_table() -> dict:
    """Rank/word rows for the six commonly quoted mu assignments at n = 3."""
    from .hermite import lexicographic_rank

    rows = []
    for mu, word in sorted(MU_WORDS_N3.items()):
        rows.append({
            "mu": mu,
            "word": list(word),
            "rank": lexicographic_rank(word),
        })
    return {"n": 3, "assignments": rows, "notes": [_MU5_NOTE]}


# --- serialization -----------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise non-finite float {x}")
    text = f"{x:.17g}"
    # Keep a float-typed token so the round trip preserves types.
    return text if "." in text or "e" in text else text + ".0"


def _scalar_token(obj):
    """The JSON token of a scalar, or None for a container."""
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return '{"re": ' + _format_float(c.real) + ', "im": ' + _format_float(c.imag) + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if obj is None:
        return "null"
    return None


def _write_json(obj, out: list, indent: int, level: int):
    token = _scalar_token(obj)
    if token is not None:
        out.append(token)
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        opener, closer, prefixes = "{", "}", (f'"{key}": ' for key in obj)
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        opener, closer, prefixes = "[", "]", None
        values = obj
    else:
        raise TypeError(f"cannot serialise {type(obj)!r}")
    if not values:
        out.append(opener + closer)
        return
    # Scalars, the bulk of a report, are written here without recursing.
    # Every element after the first shares one separator string, so the
    # pieces list holds no per-element copy of it.
    pad_in = "\n" + " " * (indent * (level + 1))
    separator, following = opener + pad_in, "," + pad_in
    for value in values:
        out.append(separator)
        if prefixes is not None:
            out.append(next(prefixes))
        token = _scalar_token(value)
        if token is None:
            _write_json(value, out, indent, level + 1)
        else:
            out.append(token)
        separator = following
    out.append("\n" + " " * (indent * level) + closer)


def to_json(obj, indent: int = 2) -> str:
    """Deterministic JSON with 17-significant-digit floats and complex values
    rendered as {"re": ..., "im": ...}."""
    out: list = []
    _write_json(obj, out, indent, 0)
    return "".join(out) + "\n"


def determinism_hash(payload: dict) -> str:
    """SHA-256 over the JSON payload with the timing field removed."""
    filtered = {k: v for k, v in payload.items() if k != "timing"}
    return hashlib.sha256(to_json(filtered).encode()).hexdigest()


def _hashed_payload(report: VerificationReport) -> dict:
    """The report entries the determinism hash covers."""
    return {
        "version": report.version,
        "config": report.config.to_dict(),
        "results": [r.to_dict() for r in report.results],
        "aggregate": report.aggregate,
        "notes": list(report.notes),
    }


def report_to_dict(report: VerificationReport) -> dict:
    payload = _hashed_payload(report)
    payload["determinism_sha256"] = determinism_hash(payload)
    payload["timing"] = {"seconds": report.timing_seconds}
    return payload


def report_to_json(report: VerificationReport) -> str:
    """``to_json(report_to_dict(report))``, rendering the payload once: the
    hash is taken over the rendered hash-free payload, whose closing brace
    is then replaced by the hash and timing entries."""
    body = to_json(_hashed_payload(report))
    tail = to_json({
        "determinism_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "timing": {"seconds": report.timing_seconds},
    })
    # body ends with "\n}\n" and tail starts with "{\n": splice at the
    # shared nesting level.
    return body[:-3] + ",\n" + tail[2:]


def _complex_token(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}j"


def report_to_csv(report: VerificationReport) -> str:
    """One row per (ordering, kind); eigenvalues joined with semicolons."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "rank", "word", "kind", "status", "max_deviation",
                     "zero_separation", "coeff_separation", "eigenvalues", "expected"])
    for r in report.results:
        writer.writerow([
            report.config.n,
            r.rank,
            " ".join(str(w) for w in r.word),
            r.kind,
            r.status,
            f"{r.max_deviation:.17g}",
            f"{r.zero_separation:.17g}",
            f"{r.coeff_separation:.17g}",
            ";".join(_complex_token(complex(v)) for v in r.eigenvalues),
            ";".join(str(e) for e in r.expected),
        ])
    return buffer.getvalue()
