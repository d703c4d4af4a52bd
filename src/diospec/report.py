"""Run configuration, the batch verification pipeline, and deterministic
serialization of its reports.

A report holds its checks as columns, one array per field, with one row per
ordering and, where a field depends on the kind, one column per kind: check
j of the ``results`` array is ordering j // K and kind j % K, for K kinds.
No per-check object is built between the sweep and the renderers.

JSON payloads are rendered by a small writer of our own so that floats always
carry 17 significant digits and complex numbers become {"re": ..., "im": ...}
objects; identical configuration and seed therefore produce byte-identical
output, except for the wall-clock ``timing`` field, which is excluded from
the determinism hash.

``json_slices`` and ``csv_slices`` render a report as a stream of text
slices, the checks cut into the sweep's own chunks of orderings, so a large
sweep is written without its whole text in memory; ``report_to_json`` and
``report_to_csv`` join them.  A JSON slice is filled by columns: each slot of
a check (an eigenvalue's real or imaginary part, the deviation, the status,
an ordering's rank and word) takes a whole column by one extended-slice
assignment, with the floats of the slice formatted in one pass.  The
generic writer (``to_json``) renders everything else; the tests hold the
whole text to its rendering of the report built as nested dicts, byte for
byte.
"""

from __future__ import annotations

import math
import operator
import random
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Sequence, Union

import numpy as np

from . import __version__
from .errors import NonConvergence
from .hermite import (
    MAX_ORDER,
    hermite_zeros,
    lexicographic_rank,
    rank_ordered_words,
    word_from_rank,
)
from .matrices import (
    CONDITIONING_FLOOR,
    KIND_M1,
    KIND_M2,
    _expected_stack,
    _profile,
    build_stack,
    coupling_stack,
    spectrum_stack,
)
from .polynomials import _frozen, check_positive, roots_stack

__all__ = [
    "MU_WORDS_N3",
    "RunConfig",
    "VerificationReport",
    "run_verification",
    "mu_assignment_table",
    "to_json",
    "report_to_json",
    "report_to_csv",
    "json_slices",
    "csv_slices",
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

# Matrix entries per chunk of orderings, so that chunk boundaries depend on
# n and the ranks alone (a full n = 6 sweep is one chunk, n = 8 chunks hold
# 1,024 orderings).
_CHUNK_ENTRIES = 2 ** 16


def _integer(name: str, value) -> int:
    """value as an int, or ValueError naming ``name`` unless it is integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one verification sweep.  ``jobs`` only sets how many
    processes check the chunks, so it is left out of the hashed ``to_dict``."""

    n: int
    kinds: tuple = (KIND_M1, KIND_M2)
    orderings: Union[str, Sequence[int], tuple] = "all"
    root_tol: float = 1e-12
    pass_tol: float = 1e-6
    output_format: str = "json"
    seed: int = 42
    jobs: int = 1
    force: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not 2 <= _integer("n", self.n) <= MAX_ORDER:
            raise ValueError(f"n must be in 2..{MAX_ORDER}, got {self.n}")
        if not self.kinds:
            raise ValueError("at least one kind required")
        for kind in self.kinds:
            _profile(kind)
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError(f"kinds must not repeat, got {','.join(self.kinds)}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        # Each hashed field holds one normal form, so equal configs hash equal.
        for name in ("root_tol", "pass_tol"):
            check_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if not isinstance(self.force, bool):
            raise ValueError(f"force must be a bool, got {self.force!r}")
        if _integer("jobs", self.jobs) < 1:
            raise ValueError("jobs must be >= 1")
        # The orderings: "all", ("sample", k) or a tuple of the int ranks as given.
        total, spec = math.factorial(self.n), self.orderings
        if isinstance(spec, str) and spec == "all":
            if self.n > 8 and not self.force:
                raise ValueError(
                    f"a full sweep of {self.n}! orderings needs force=True beyond n=8")
        elif isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "sample":
            spec = ("sample", _integer("sample size", spec[1]))
            if not 1 <= spec[1] <= total:
                raise ValueError(f"a sample of orderings must number 1..{total}")
        else:
            spec = tuple(_integer("ordering rank", rank) for rank in spec)
            if not spec or min(spec) < 1 or max(spec) > total:
                raise ValueError(f"ordering ranks must lie in 1..{total}")
        object.__setattr__(self, "orderings", spec)

    def ordering_ranks(self) -> list:
        """Resolve the orderings field to an explicit list of 1-based ranks."""
        total, spec = math.factorial(self.n), self.orderings
        if spec == "all":
            return list(range(1, total + 1))
        if spec[0] != "sample":
            return sorted(set(spec))
        k, rng = spec[1], random.Random(self.seed)
        if total <= sys.maxsize:
            return sorted(rng.sample(range(1, total + 1), k))
        # random.sample cannot take len() of a range this large.  Its own
        # rule for populations above its pooling threshold (every one this
        # large) is randrange(total) with repeats redrawn, so use that.
        ranks = set()
        while len(ranks) < k:
            ranks.add(rng.randrange(total) + 1)
        return sorted(ranks)

    def to_dict(self) -> dict:
        """The hashed config: orderings as "all", {"sample": k} or a list of ranks."""
        spec = self.orderings
        if spec != "all":
            spec = {"sample": spec[1]} if spec[0] == "sample" else list(spec)
        return {
            "n": self.n,
            "kinds": list(self.kinds),
            "orderings": spec,
            "tolerances": {
                "root_tol": self.root_tol,
                "pass_tol": self.pass_tol,
            },
            "output_format": self.output_format,
            "seed": self.seed,
            "force": self.force,
        }


@dataclass
class VerificationReport:
    """Everything one verification sweep produced.

    The checks are held as columns over the B orderings and the K kinds of
    ``config.kinds``: ``rank`` is a list of B ints (ranks beyond N = 20
    overflow int64), ``word`` is (B, N), ``eigenvalues`` (B, K, N),
    ``max_deviation`` and ``status`` are (B, K), and the separations are
    (B,), since they belong to the ordering and not to the kind."""

    config: RunConfig
    rank: list
    word: np.ndarray
    eigenvalues: np.ndarray
    max_deviation: np.ndarray
    status: np.ndarray  # pass | fail | inconclusive
    zero_separation: np.ndarray
    coeff_separation: np.ndarray
    aggregate: dict
    notes: list
    version: str = __version__
    timing_seconds: float = 0.0


def _chunks(n: int, count: int) -> list:
    """The sweep's chunks of ``count`` orderings at order n, as slices of
    ``_CHUNK_ENTRIES // n**2`` orderings: they cut the checks and the text."""
    size = max(1, _CHUNK_ENTRIES // n ** 2)
    return [slice(i, i + size) for i in range(0, count, size)]


@lru_cache(maxsize=None)
def _sorted_coupling(n: int, kinds: tuple) -> tuple:
    """``coupling_stack`` of the ascending Hermite zeros, as one read-only
    (K, N * N) array; their separation, which is every ordering's: the
    minimum over the same set of differences; and the read-only zeros
    themselves.  Every sweep chunk asks again."""
    zeros = hermite_zeros(n).zeros
    coupling, separation = coupling_stack(zeros[None], kinds)
    return _frozen(coupling[0].reshape(len(kinds), n * n), float), float(separation[0]), zeros


def _ordering_coupling(coupling: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Each ordering's coupling A_pi = P A P^T as a (B, K, N, N) stack, by
    one gather from the sorted zeros' A (``_sorted_coupling``'s table) for
    the (B, N) words.  Off the diagonal an entry depends on one coefficient
    difference, so it has the bits of A_pi built from the ordering's
    coefficients; the diagonal sums a row in another order."""
    n = word.shape[1]
    index = (word - 1)[:, :, None] * n + (word - 1)[:, None, :]
    return coupling.take(index, axis=1).transpose(1, 0, 2, 3)


def _verify_chunk(n: int, ranks: list, word: np.ndarray, kinds: tuple, root_tol: float,
                  pass_tol: float) -> tuple:
    """The batched pipeline on one chunk of orderings, given their ranks and
    (B, N) words, of any integer dtype: permute the Hermite zeros into
    coefficient rows, solve for all zeros at once, build each requested
    matrix stack from the permuted couplings and check its spectra.  Returns
    the columns (word, eigenvalues, max_deviation, status, zero_separation,
    coeff_separation) laid out as ``VerificationReport`` holds them."""
    coupling, coeff_sep, hermite = _sorted_coupling(n, kinds)
    word = word.astype(np.intp, copy=False)
    zeros, failed = roots_stack(hermite[word - 1], tol=root_tol)
    if failed.any():
        bad = [rank for rank, f in zip(ranks, failed) if f]
        more = f" (and {len(bad) - 1} more in its chunk)" if len(bad) > 1 else ""
        raise NonConvergence(
            f"polynomial zeros missed their backward-error bound at n={n} "
            f"rank={bad[0]}{more}")

    entries, zero_sep = build_stack(zeros, _ordering_coupling(coupling, word))
    eigenvalues, deviation = spectrum_stack(entries, kinds)
    warned = np.minimum(zero_sep, coeff_sep) < CONDITIONING_FLOOR
    status = np.where(deviation <= pass_tol, "pass",
                      np.where(warned[:, None], "inconclusive", "fail"))
    return word, eigenvalues, deviation, status, zero_sep, np.full(len(ranks), coeff_sep)


def run_verification(config: RunConfig) -> VerificationReport:
    """Run the sweep described by ``config`` and aggregate the outcomes.

    The orderings are checked in fixed chunks; with jobs > 1 the chunks are
    mapped over a process pool of at most one worker per chunk.  Reduction
    is order-preserving and a chunk's arithmetic does not depend on where it
    runs, so reports are identical either way.
    """
    ranks = config.ordering_ranks()
    started = time.perf_counter()

    chunks = [ranks[part] for part in _chunks(config.n, len(ranks))]
    # A full sweep takes its words in rank order, a chunk at a time; other
    # ranks are decoded one by one.
    if config.orderings == "all":
        words = rank_ordered_words(config.n, map(len, chunks))
    else:
        words = (np.array([word_from_rank(config.n, rank) for rank in chunk])
                 for chunk in chunks)
    verify = partial(_verify_chunk, config.n, kinds=config.kinds,
                     root_tol=config.root_tol, pass_tol=config.pass_tol)
    # A fork-started pool launches all its workers at the first submit.
    workers = min(config.jobs, len(chunks))
    if workers > 1:
        # Imported here: only a pooled sweep loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(verify, chunks, words))
    else:
        grouped = list(map(verify, chunks, words))

    # A single chunk's columns are used as they are: copying them costs a
    # single-ordering call about 1 % of its time.
    columns = grouped[0] if len(grouped) == 1 else [
        np.concatenate(column) for column in zip(*grouped)]
    deviation, status = columns[2], columns[3]
    aggregate = {
        "checks": status.size,
        **{name: np.count_nonzero(status == name) for name in ("pass", "fail", "inconclusive")},
        "max_deviation": float(deviation.max()),
        "conditioning_floor": CONDITIONING_FLOOR,
    }
    notes = []
    if config.n == 3:
        notes.append(_MU5_NOTE)
    if KIND_M2 in config.kinds:
        notes.append(_FREQUENCY_NOTE)
    return VerificationReport(config, ranks, *columns, aggregate=aggregate,
                              notes=notes, timing_seconds=time.perf_counter() - started)


def mu_assignment_table() -> dict:
    """Rank/word rows for the six commonly quoted mu assignments at n = 3."""
    rows = [{"mu": mu, "word": list(word), "rank": lexicographic_rank(word)}
            for mu, word in sorted(MU_WORDS_N3.items())]
    return {"n": 3, "assignments": rows, "notes": [_MU5_NOTE]}


# --- serialization -----------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise non-finite float {x}")
    text = f"{x:.17g}"
    # Keep a float-typed token so the round trip preserves types.
    return text if "." in text or "e" in text else text + ".0"


def _write_json(obj, level: int) -> str:
    """The JSON text of obj, nested ``level`` deep, at two spaces a level."""
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
    if isinstance(obj, dict):
        items = [f'"{key}": ' + _write_json(value, level + 1) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [_write_json(value, level + 1) for value in obj]
    else:
        raise TypeError(f"cannot serialise {type(obj)!r}")
    opener, closer = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return opener + closer
    pad = "\n" + "  " * level
    return opener + pad + "  " + ("," + pad + "  ").join(items) + pad + closer


def to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats and complex values
    rendered as {"re": ..., "im": ...}."""
    return _write_json(obj, 0) + "\n"


def _float_tokens(values: np.ndarray) -> list:
    """``_format_float`` of every element of a float64 array, called once per
    distinct bit pattern: equal bits give equal tokens, -0.0 and 0.0 differ."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    tokens = np.array([_format_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return tokens[where].tolist()


def _inner_list(items) -> str:
    """A list nested in a result: its items sit at nesting level 4."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


@lru_cache(maxsize=None)
def _layout(n: int, kinds: tuple) -> tuple:
    """What every report of order n and these kinds shares: the JSON check
    template, the ``%`` format of one CSV row and each kind's CSV expected
    column.  The template is one ordering's K checks as ``to_json`` renders
    them in ``results``, as S = 4n + 7 slots a check: the fixed text, and
    None where a column goes.  Slot 0 is the ordering's head (rank and
    word), 2 + 2t its t-th eigenvalue token, 4n + 2 the deviation, 4n + 4
    the status and 4n + 5 the ordering's tail (the separations); the last
    slot is the separator."""
    expected, template = _expected_stack(n, kinds).tolist(), []
    for kind, values in zip(kinds, expected):
        template += [None, kind + '",\n      "eigenvalues": [\n        {"re": ']
        for _ in range(n):
            template += [None, ', "im": ', None, '},\n        {"re": ']
        template[-1] = ('}\n      ],\n      "expected": ' + _inner_list(map(str, values))
                        + ',\n      "max_deviation": ')
        template += [None, ',\n      "status": "', None, None, ",\n    "]
    row = (f"{n},%s,%s,%s,%s,%.17g,%.17g,%.17g," + ";".join(["%.17g%+.17gj"] * n) + ",%s")
    return tuple(template), row, tuple(";".join(map(str, values)) for values in expected)


def _render_checks(report: VerificationReport, part: slice) -> str:
    """The checks of the orderings in ``part``, each followed by its separator
    but the report's last, filled in by columns: each column of the slice
    goes into its slot of every check by one extended-slice assignment, and
    one join makes the text.  The floats are formatted together, each bit
    pattern once."""
    n, kinds = report.config.n, len(report.config.kinds)
    width = 4 * n + 7
    ranks, status = report.rank[part], report.status[part].ravel().tolist()
    checks, end = len(status), 2 * n * len(status)
    tokens = _float_tokens(np.concatenate([
        report.eigenvalues[part].view(np.float64).ravel(), report.max_deviation[part].ravel(),
        report.zero_separation[part], report.coeff_separation[part]]))
    separations = zip(tokens[end + checks:end + checks + len(ranks)],
                      tokens[end + checks + len(ranks):])
    head = '{\n      "rank": %d,\n      "word": ' + _inner_list(["%d"] * n) + ',\n      "kind": "'
    heads = [head % (rank, *word) for rank, word in zip(ranks, report.word[part].tolist())]
    tails = ['",\n      "zero_separation": %s,\n      "coeff_separation": %s\n    }' % pair
             for pair in separations]
    parts = list(_layout(n, report.config.kinds)[0]) * len(ranks)
    for t in range(2 * n):
        parts[2 + 2 * t::width] = tokens[t:end:2 * n]
    parts[4 * n + 2::width] = tokens[end:end + checks]
    parts[4 * n + 4::width] = status
    for k in range(kinds):
        parts[k * width::width * kinds] = heads
        parts[k * width + 4 * n + 5::width * kinds] = tails
    if part.stop >= len(report.rank):
        parts[-1] = ""
    return "".join(parts)


def _check_finite(report: VerificationReport) -> None:
    """Raise ValueError for a non-finite value in any float column."""
    for values in (report.eigenvalues.view(np.float64), report.max_deviation,
                   report.zero_separation, report.coeff_separation):
        if not np.isfinite(values).all():
            raise ValueError("cannot serialise non-finite float "
                             f"{values[~np.isfinite(values)][0]}")


def _rendered_chunks(report: VerificationReport, render):
    """``render(report, part)`` lazily over the sweep's chunks of orderings,
    after ``_check_finite`` has run, when called: so neither format writes a
    byte of a report it cannot finish."""
    _check_finite(report)
    return map(partial(render, report), _chunks(report.config.n, len(report.rank)))


def json_slices(report: VerificationReport):
    """The text of ``report_to_json`` as an iterator of slices: the head, the
    ``results`` cut into the sweep's chunks of orderings, and the tail."""
    results = _rendered_chunks(report, _render_checks)
    head = ('{\n  "version": ' + _write_json(report.version, 1)
            + ',\n  "config": ' + _write_json(report.config.to_dict(), 1)
            + ',\n  "results": [\n    ')
    tail = ('\n  ],\n  "aggregate": ' + _write_json(report.aggregate, 1)
            + ',\n  "notes": ' + _write_json(report.notes, 1))
    return _hashed_json(report, chain([head], results), tail)


def _hashed_json(report: VerificationReport, texts, tail: str):
    """Yield the texts and tail, hashing the same bytes, then the hash and
    the timing that close the object."""
    import hashlib  # here, so only a JSON report maps OpenSSL's libcrypto
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        yield text
    digest.update((tail + "\n}\n").encode())
    yield (tail + ',\n  "determinism_sha256": ' + _write_json(digest.hexdigest(), 1)
           + ',\n  "timing": ' + _write_json({"seconds": report.timing_seconds}, 1) + "\n}\n")


def report_to_json(report: VerificationReport) -> str:
    """The report as ``to_json`` renders its entries: ``version``, ``config``,
    ``results``, ``aggregate``, ``notes``, ``determinism_sha256`` and
    ``timing``.  The hash is the SHA-256 of the first five entries rendered
    as a top-level object of their own: it covers all but itself and the
    wall clock.  The text is the join of ``json_slices``."""
    return "".join(json_slices(report))


def csv_slices(report: VerificationReport):
    """The text of ``report_to_csv`` as slices of one chunk of orderings each,
    the first led by the header."""
    return _rendered_chunks(report, _csv_rows)


def _csv_rows(report: VerificationReport, part: slice) -> str:
    """The rows of the orderings in ``part``, under the header if they are
    the first.  Each row is one format; eigenvalues are joined with
    semicolons.  No field holds a comma, quote or newline to quote."""
    n, kinds = report.config.n, report.config.kinds
    _, row, expected = _layout(n, kinds)
    lines = [] if part.start else [
        "n,rank,word,kind,status,max_deviation,zero_separation,coeff_separation,"
        "eigenvalues,expected"]
    spectra = report.eigenvalues[part].view(np.float64).reshape(-1, 2 * n).tolist()
    deviation = report.max_deviation[part].ravel().tolist()
    status = report.status[part].ravel().tolist()
    words = [" ".join(map(str, word)) for word in report.word[part].tolist()]
    zero_sep = report.zero_separation[part].tolist()
    coeff_sep = report.coeff_separation[part].tolist()
    ranks = report.rank[part]
    for j, values in enumerate(spectra):
        i, k = divmod(j, len(kinds))
        lines.append(row % (ranks[i], words[i], kinds[k], status[j], deviation[j],
                            zero_sep[i], coeff_sep[i], *values, expected[k]))
    lines.append("")
    return "\n".join(lines)


def report_to_csv(report: VerificationReport) -> str:
    """One row per (ordering, kind) under a header: the join of ``csv_slices``."""
    return "".join(csv_slices(report))
