import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from diospec import cli
from diospec.cli import (
    EXIT_COLLISION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SPECTRAL_FAIL,
    EXIT_USAGE,
    main,
)
from diospec.errors import (
    CollisionAbort,
    DegenerateSpectrum,
    DimensionMismatch,
    NearCollision,
    NonConvergence,
    SingularConfiguration,
    StepFloorReached,
)
from diospec.hermite import word_from_rank
from diospec.matrices import expected_spectrum, spectrum_stack
from diospec.report import (
    RunConfig,
    _chunks,
    _float_tokens,
    _format_float,
    csv_slices,
    json_slices,
    report_to_csv,
    report_to_json,
    run_verification,
    to_json,
)

_RESULT_FIELDS = ("rank", "word", "kind", "eigenvalues", "expected", "max_deviation",
                  "status", "zero_separation", "coeff_separation")

# Full sweeps, as (n, kinds), that both renderings are held to the oracle on.
_ORACLE_CASES = [(2, ("M1", "M2")), (3, ("M1",)), (6, ("M1", "M2")), (7, ("M1",))]

# ``determinism_sha256`` of the full ``verify`` sweep at n = 6 and 7, both
# kinds, default config (ROADMAP "Pinned hashes"; CI checks n = 8).
_PINNED_HASHES = {
    6: "cb9a12b9af104383b84e0c4f6675adc02f692468c3c8710ea408457048d4fa19",
    7: "71e32a8493bedff04f2c6a28cf835b4aeb20a75679ef780499e05ccecdbf24cf",
}

# A ``_CHUNK_ENTRIES`` that cuts the 120 orderings at n = 5 into chunks of 37,
# 37, 37 and 9, so a sweep's text comes in four slices.
_N5_IN_FOUR = 37 * 5 ** 2


def determinism_hash(payload: dict) -> str:
    """SHA-256 of the generic writer's rendering of payload without ``timing``."""
    hashed = {key: value for key, value in payload.items() if key != "timing"}
    return hashlib.sha256(to_json(hashed).encode()).hexdigest()


def report_checks(report):
    """Each check's fields as Python values, ordering-major, in the order of
    ``_RESULT_FIELDS``: check j is ordering j // K and kind j % K."""
    kinds = report.config.kinds
    expected_by_kind = [expected_spectrum(kind, report.config.n).tolist() for kind in kinds]
    for rank, word, spectra, deviations, statuses, zero_sep, coeff_sep in zip(
            report.rank, report.word.tolist(), report.eigenvalues.tolist(),
            report.max_deviation.tolist(), report.status.tolist(),
            report.zero_separation.tolist(), report.coeff_separation.tolist()):
        for kind, values, expected, deviation, status in zip(
                kinds, spectra, expected_by_kind, deviations, statuses):
            yield rank, word, kind, values, expected, deviation, status, zero_sep, coeff_sep


def report_to_dict(report) -> dict:
    """The report as nested dicts, built from ``report_checks``: ``to_json`` of
    it is the oracle that ``report_to_json`` and ``report_to_csv`` must match."""
    payload = {"version": report.version, "config": report.config.to_dict(),
               "results": [dict(zip(_RESULT_FIELDS, check)) for check in report_checks(report)],
               "aggregate": report.aggregate, "notes": list(report.notes)}
    payload["determinism_sha256"] = determinism_hash(payload)
    payload["timing"] = {"seconds": report.timing_seconds}
    return payload


def dict_to_csv(report) -> str:
    """The CSV oracle: each result of ``report_to_dict`` as one ``csv.writer``
    row, floats at 17 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "rank", "word", "kind", "status", "max_deviation",
                     "zero_separation", "coeff_separation", "eigenvalues", "expected"])
    for result in report_to_dict(report)["results"]:
        writer.writerow([
            report.config.n, result["rank"], " ".join(map(str, result["word"])),
            result["kind"], result["status"],
            *(format(result[field], ".17g")
              for field in ("max_deviation", "zero_separation", "coeff_separation")),
            ";".join(format(z.real, ".17g") + format(z.imag, "+.17g") + "j"
                     for z in result["eigenvalues"]),
            ";".join(map(str, result["expected"]))])
    return buffer.getvalue()


def without_seconds(text: str) -> list:
    """The lines of a JSON report but its wall-clock ``"seconds"`` line."""
    return [line for line in text.splitlines(keepends=True) if '"seconds"' not in line]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHermiteZerosCommand:
    def test_n3_values(self, capsys):
        code, out, _ = run_cli(capsys, "hermite-zeros", "--n", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        np.testing.assert_allclose(payload["zeros"], [-1.224744871, 0.0, 1.224744871],
                                   atol=1e-9)
        assert payload["residual_first"] < 1e-10
        assert payload["residual_second"] < 1e-10

    def test_n2_values(self, capsys):
        code, out, _ = run_cli(capsys, "hermite-zeros", "--n", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        np.testing.assert_allclose(payload["zeros"], [-0.7071067811, 0.7071067811],
                                   atol=1e-9)

    def test_n1_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "hermite-zeros", "--n", "1")
        assert code == EXIT_USAGE
        assert "order" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "hermite-zeros", "--n", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,index,zero,residual_first,residual_second"
        assert len(lines) == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "zeros.json"
        code, out, _ = run_cli(capsys, "hermite-zeros", "--n", "2",
                               "--out", str(target))
        assert code == EXIT_OK
        assert target.read_text() == out

    def test_unwritable_out_file_is_a_usage_error(self, capsys, tmp_path):
        # The file is written first, so a path that cannot be opened leaves
        # stdout empty.
        target = tmp_path / "missing" / "zeros.json"
        code, out, err = run_cli(capsys, "hermite-zeros", "--n", "3", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()


class TestVerifyCommand:
    def test_n3_m1_all_orderings_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--kinds", "M1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["aggregate"]["checks"] == 6
        assert payload["aggregate"]["pass"] == 6
        assert payload["aggregate"]["fail"] == 0
        for row in payload["results"]:
            assert row["expected"] == [1, 2, 3]

    def test_n3_m2_all_orderings_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--kinds", "M2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["aggregate"]["pass"] == 6
        for row in payload["results"]:
            assert row["expected"] == [1, 4, 9]

    def test_ordering_subset_and_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4",
                               "--orderings", "1,5,9", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + ranks x kinds
        assert lines[0].startswith("n,rank,word,kind,status")

    def test_sampled_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "5",
                               "--orderings", "sample:7", "--seed", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["aggregate"]["checks"] == 14
        assert payload["aggregate"]["pass"] == 14

    def test_full_sweep_guard_beyond_eight(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "9")
        assert code == EXIT_USAGE
        assert "force" in err

    def test_mu_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--mu-table")
        assert code == EXIT_OK
        payload = json.loads(out)
        rows = {row["mu"]: row for row in payload["assignments"]}
        assert rows[1]["word"] == [2, 3, 1] and rows[1]["rank"] == 4
        assert rows[5]["word"] == [1, 3, 2] and rows[5]["rank"] == 2
        assert rows[6]["word"] == [1, 2, 3] and rows[6]["rank"] == 1

    def test_mu_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--mu-table",
                               "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines() == ["mu,word,rank", "1,2 3 1,4", "2,2 1 3,3", "3,3 2 1,6",
                                    "4,3 1 2,5", "5,1 3 2,2", "6,1 2 3,1"]

    def test_n3_report_carries_discrepancy_note(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert any("mu=5" in note for note in payload["notes"])

    def test_sampled_orderings_beyond_nine_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "10", "--orderings", "sample:20")
        assert code == EXIT_OK
        assert json.loads(out)["aggregate"]["pass"] == 40

    @pytest.mark.parametrize("entries", [None, _N5_IN_FOUR], ids=["one-slice", "four-slices"])
    def test_streamed_report_matches_report_to_json(self, capsys, monkeypatch, tmp_path,
                                                    entries):
        # The file and stdout get the same bytes, slice by slice, and they
        # are report_to_json's but for the wall clock.
        if entries:
            monkeypatch.setattr("diospec.report._CHUNK_ENTRIES", entries)
        target = tmp_path / "n5.json"
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--out", str(target))
        assert code == EXIT_OK
        assert target.read_bytes() == out.encode()
        expected = report_to_json(run_verification(RunConfig(n=5)))
        assert without_seconds(out) == without_seconds(expected)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_file_leaves_stdout_empty(self, capsys, tmp_path, fmt):
        target = tmp_path / "missing" / "n3.out"
        code, out, err = run_cli(capsys, "verify", "--n", "3", "--format", fmt,
                                 "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()


class TestSimulateCommand:
    def test_gamma1_periodicity(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--system", "gamma1", "--n", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["return_distance"] < 1e-6

    def test_zero_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--system", "zeta1", "--n", "3",
                               "--t-end", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["return_distance"] == 0.0

    def test_zero_radius_starts_at_equilibrium(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--system", "gamma1", "--n", "3",
                               "--radius", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["radius"] == 0.0
        assert payload["verdict"] == "pass"

    def test_zeta2_mu1_ordering(self, capsys):
        # rank 4 is the mu=1 assignment at n=3
        code, out, _ = run_cli(capsys, "simulate", "--system", "zeta2", "--n", "3",
                               "--ordering-rank", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["return_distance"] < 1e-5

    def test_far_start_still_returns(self, capsys):
        # A start 200 away from equilibrium neither collides nor loses the
        # period: isochrony is not a small-amplitude effect.  A collision
        # needs a start on a measure-zero set: the seeded starts of every
        # system at N = 2 and 3, radius 0.5 to 5 and seeds 1 to 8 all exit
        # 0.  TestExitCodeTable covers the EXIT_COLLISION mapping.
        code, out, _ = run_cli(capsys, "simulate", "--system", "gamma1", "--n", "2",
                               "--radius", "200.0", "--seed", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["return_distance"] < payload["return_tol"]


class TestOracleCommand:
    def test_m1_n2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--kind", "M1")
        assert code == EXIT_OK
        assert json.loads(out)["max_relative_deviation"] < 1e-5

    def test_m2_n3(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--kind", "M2")
        assert code == EXIT_OK
        assert json.loads(out)["max_relative_deviation"] < 1e-4

    def test_linear_self_test(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--self-test")
        assert code == EXIT_OK
        assert json.loads(out)["max_relative_deviation"] < 1e-10


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("args", [
        ("hermite-zeros", "--n", "3", "--seed", "1"),
        ("oracle", "--n", "3", "--tol-pass", "1e-3"),
        ("verify", "--n", "3", "--tol-eig", "1e-13"),
    ])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("verify", "--n", "4", "--orderings", "sample:100"),
        ("verify", "--n", "4", "--orderings", "sample:-1"),
        ("verify", "--n", "4", "--orderings", "sample:0"),
        ("simulate", "--n", "3", "--system", "gamma1", "--t-end", "-1"),
        ("simulate", "--n", "3", "--system", "gamma1", "--tol-ode-rel", "0"),
        ("oracle", "--n", "3", "--h", "1"),
        ("oracle", "--n", "3", "--h", "0", "--self-test"),
        ("oracle", "--n", "3", "--h", "-1", "--self-test"),
        # Non-finite values fail the same checks as non-positive ones.
        ("verify", "--n", "3", "--tol-pass", "nan"),
        ("verify", "--n", "3", "--tol-pass", "inf"),
        ("verify", "--n", "3", "--tol-root", "inf"),
        ("oracle", "--n", "3", "--tol-root", "inf"),
        ("oracle", "--n", "3", "--tol-root", "nan"),
        ("simulate", "--n", "3", "--system", "gamma1", "--t-end", "inf"),
        ("simulate", "--n", "3", "--system", "gamma1", "--tol-ode-rel", "nan"),
        ("simulate", "--n", "3", "--system", "gamma1", "--tol-ode-abs", "inf"),
        ("simulate", "--n", "3", "--system", "gamma1", "--return-tol", "nan"),
        ("simulate", "--n", "3", "--system", "gamma1", "--return-tol", "inf"),
        ("simulate", "--n", "3", "--system", "gamma1", "--return-tol", "0"),
        # A negative radius only flips the perturbation, so the reported
        # radius would not describe the start.
        ("simulate", "--n", "3", "--system", "gamma1", "--radius", "-1"),
        # The self-test checks the order like the matrix path does.
        ("oracle", "--n", "0", "--self-test"),
        ("oracle", "--n", "-1", "--self-test"),
        ("oracle", "--n", "1", "--self-test"),
        ("oracle", "--n", "31", "--self-test"),
        # The gamma flows do not read the rank, but it must still exist.
        ("simulate", "--n", "3", "--system", "gamma1", "--ordering-rank", "999999"),
        ("simulate", "--n", "3", "--system", "gamma2", "--ordering-rank", "0"),
        ("verify", "--n", "99", "--mu-table"),
        ("verify", "--n", "4", "--mu-table"),
        # Values are checked before a branch that does not read them: the
        # zero horizon, the gamma flows' unused root tolerance, the mu table
        # and the self-test.
        ("simulate", "--n", "3", "--system", "gamma1", "--t-end", "0", "--tol-ode-rel", "nan"),
        ("simulate", "--n", "3", "--system", "gamma1", "--t-end", "0", "--tol-ode-abs", "-1"),
        ("simulate", "--n", "3", "--system", "gamma1", "--tol-root", "nan"),
        ("verify", "--n", "3", "--mu-table", "--kinds", "M3"),
        ("verify", "--n", "3", "--mu-table", "--jobs", "0"),
        ("verify", "--n", "3", "--mu-table", "--tol-pass", "nan"),
        ("oracle", "--n", "3", "--self-test", "--tol-root", "nan"),
        ("oracle", "--n", "3", "--self-test", "--ordering-rank", "99"),
        # A repeated kind would list every check twice.
        ("verify", "--n", "2", "--kinds", "M1,M1"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")


class TestExitCodeTable:
    @pytest.mark.parametrize("error, expected", [
        (CollisionAbort, EXIT_COLLISION),
        (NearCollision, EXIT_COLLISION),
        (NonConvergence, EXIT_NUMERICAL),
        (StepFloorReached, EXIT_NUMERICAL),
        (DegenerateSpectrum, EXIT_NUMERICAL),
        (SingularConfiguration, EXIT_USAGE),
        (DimensionMismatch, EXIT_USAGE),
        (ValueError, EXIT_USAGE),
    ])
    def test_failure_maps_to_its_exit_code(self, capsys, monkeypatch, error, expected):
        def failing(args):
            raise error("stubbed failure")

        monkeypatch.setitem(cli._COMMANDS, "hermite-zeros", failing)
        code, out, err = run_cli(capsys, "hermite-zeros", "--n", "3")
        assert code == expected
        assert out == "" and err == "error: stubbed failure\n"

    def test_console_entry_exits_with_the_code_of_main(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["diospec", "verify", "--n", "3", "--tol-pass", "1e-300"])
        with pytest.raises(SystemExit) as exit_info:
            cli.console_entry()
        assert exit_info.value.code == EXIT_SPECTRAL_FAIL
        assert json.loads(capsys.readouterr().out)["aggregate"]["fail"] > 0

    def test_other_exceptions_propagate(self, monkeypatch):
        # A bug must surface as a traceback, never as a usage error.
        def failing(args):
            raise RuntimeError("bug")

        monkeypatch.setitem(cli._COMMANDS, "hermite-zeros", failing)
        with pytest.raises(RuntimeError, match="bug"):
            main(["hermite-zeros", "--n", "3"])


# Run cli.main in a fresh interpreter and print, as JSON, its exit code and
# the modules the run added to those loaded once numpy is.  numpy 1.x loads
# hashlib with numpy.random on import, so only the run's own imports count.
_LOADED_BY_RUN = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
from diospec import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

# hashlib maps OpenSSL's libcrypto through _hashlib.
_OPENSSL = {"hashlib", "_hashlib"}
_POOL = {"multiprocessing", "concurrent.futures.process"}

# (arguments, modules the run must load, modules it must not load)
_RUN_IMPORTS = [
    pytest.param("verify --n 12 --orderings 5 --format csv", set(), _OPENSSL | _POOL,
                 id="csv"),
    pytest.param("verify --n 6 --jobs 2 --format csv", set(), _OPENSSL | _POOL,
                 id="one-chunk-jobs-2"),
    pytest.param("hermite-zeros --n 5", set(), _OPENSSL | _POOL, id="hermite-zeros"),
    pytest.param("oracle --n 4 --kind M1", set(), _OPENSSL | _POOL, id="oracle"),
    pytest.param("verify --n 4", {"hashlib"}, _POOL, id="json"),
    pytest.param("verify --n 7 --kinds M1 --jobs 2 --format csv",
                 {"concurrent.futures.process"}, set(), id="four-chunks-jobs-2"),
]


class TestModulesLoaded:
    """A run loads OpenSSL only to hash a JSON report, and multiprocessing
    only to map two or more chunks over a pool."""

    @pytest.mark.parametrize("args, loaded, absent", _RUN_IMPORTS)
    def test_run_loads_only_what_it_uses(self, args, loaded, absent):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _LOADED_BY_RUN, *args.split()],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=True)
        code, added = json.loads(done.stdout)
        assert code == EXIT_OK
        assert sorted(loaded - set(added)) == []
        assert sorted(absent.intersection(added)) == []


class TestReportSerialization:
    def test_unknown_type_is_not_serialised(self):
        with pytest.raises(TypeError, match="cannot serialise"):
            to_json({"value": object()})

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)])
    @pytest.mark.parametrize("nest", [lambda v: {"outer": {"value": v}},
                                      lambda v: [1.0, [2, v]]], ids=["dict", "list"])
    def test_non_finite_float_is_not_serialised(self, value, nest):
        with pytest.raises(ValueError, match="non-finite"):
            to_json(nest(value))

    def test_json_round_trip(self):
        report = run_verification(RunConfig(n=3, kinds=("M1",)))
        text = report_to_json(report)
        parsed = json.loads(text)
        assert json.loads(to_json(parsed)) == parsed

    def test_determinism_across_runs(self):
        config = dict(n=3, orderings=(1, 2, 5), seed=7)
        first = report_to_dict(run_verification(RunConfig(**config)))
        second = report_to_dict(run_verification(RunConfig(**config)))
        assert first["determinism_sha256"] == second["determinism_sha256"]
        first.pop("timing")
        second.pop("timing")
        assert to_json(first) == to_json(second)

    def test_hash_ignores_timing_only(self):
        report = run_verification(RunConfig(n=2))
        payload = report_to_dict(report)
        rehash = determinism_hash({k: v for k, v in payload.items()
                                   if k != "determinism_sha256"})
        altered = dict(payload)
        altered["timing"] = {"seconds": 123.0}
        altered.pop("determinism_sha256")
        assert determinism_hash(altered) == rehash

    def test_seventeen_digit_floats_survive(self):
        report = run_verification(RunConfig(n=2, kinds=("M1",)))
        payload = report_to_dict(report)
        parsed = json.loads(report_to_json(report))
        original = payload["results"][0]["max_deviation"]
        assert parsed["results"][0]["max_deviation"] == original

    def test_complex_schema(self):
        report = run_verification(RunConfig(n=2, kinds=("M1",)))
        parsed = json.loads(report_to_json(report))
        entry = parsed["results"][0]["eigenvalues"][0]
        assert set(entry) == {"re", "im"}

    def test_csv_shape(self):
        report = run_verification(RunConfig(n=2))
        lines = report_to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 orderings x 2 kinds

    @pytest.mark.parametrize("n, kinds, orderings", [
        *((n, kinds, "all") for n, kinds in _ORACLE_CASES),
        (4, ("M1", "M2"), "all"),
        (4, ("M2", "M1"), "all"),
        (12, ("M1", "M2"), (123456789,)),
    ])
    def test_csv_matches_the_dict(self, n, kinds, orderings):
        report = run_verification(RunConfig(n=n, kinds=kinds, orderings=orderings))
        text = report_to_csv(report)
        assert text == dict_to_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        results = report_to_dict(report)["results"]
        assert len(rows) == len(results) == report.status.size
        for row, result in zip(rows, results):
            assert int(row["n"]) == n
            assert int(row["rank"]) == result["rank"]
            assert [int(w) for w in row["word"].split()] == result["word"]
            assert row["kind"] == result["kind"] and row["status"] == result["status"]
            assert [int(e) for e in row["expected"].split(";")] == result["expected"]
            # 17 significant digits round-trip, so equality is exact.
            for field in ("max_deviation", "zero_separation", "coeff_separation"):
                assert float(row[field]) == result[field], field
            assert [complex(v) for v in row["eigenvalues"].split(";")] == result["eigenvalues"]

    def test_caches_are_keyed_by_the_order_of_kinds(self):
        # The couplings, expected integers and row templates are cached per
        # (n, kinds).  In one process, a report for M2,M1 after one for
        # M1,M2, and M2 alone after both kinds, each keep their own column
        # order: eigenvalues, statuses and the expected column in both
        # renderings.
        ranks = (1, 777, 479001600)
        for n, first_kinds, second_kinds, orderings in (
                (4, ("M1", "M2"), ("M2", "M1"), "all"),
                (12, ("M1", "M2"), ("M2",), ranks)):
            first, second = (run_verification(RunConfig(n=n, kinds=kinds, orderings=orderings))
                             for kinds in (first_kinds, second_kinds))
            for k, kind in enumerate(second_kinds):
                j = first_kinds.index(kind)
                np.testing.assert_array_equal(second.eigenvalues[:, k], first.eigenvalues[:, j])
                np.testing.assert_array_equal(second.status[:, k], first.status[:, j])
            for report in (first, second):
                assert (report.status == "pass").all()
                expected = {kind: expected_spectrum(kind, n).tolist() for kind in report.config.kinds}
                for row in csv.DictReader(io.StringIO(report_to_csv(report))):
                    assert [int(e) for e in row["expected"].split(";")] == expected[row["kind"]]
                results = json.loads(report_to_json(report))["results"]
                assert [result["kind"] for result in results] == \
                    list(report.config.kinds) * len(report.rank)
                for result in results:
                    assert result["expected"] == expected[result["kind"]]
                    assert np.abs(np.array([v["re"] for v in result["eigenvalues"]])
                                  - expected[result["kind"]]).max() <= 1e-9

    def test_aggregate_counts_sum(self):
        report = run_verification(RunConfig(n=4, orderings=(1, 2, 3, 20)))
        agg = report.aggregate
        assert agg["pass"] + agg["fail"] + agg["inconclusive"] == agg["checks"]

    def test_failed_check_below_conditioning_floor_is_inconclusive(self, monkeypatch):
        # A failed check is inconclusive only where the zero or coefficient
        # separation of its ordering lies below the floor.
        # At pass_tol = 1e-300 every inexact check fails; a check whose
        # eigenvalues come out exact still passes.
        config = RunConfig(n=3, pass_tol=1e-300)
        report = run_verification(config)
        inexact = report.max_deviation > 1e-300
        assert inexact.any()
        assert (report.status[inexact] == "fail").all()
        assert (report.status[~inexact] == "pass").all()
        monkeypatch.setattr("diospec.report.CONDITIONING_FLOOR", 10.0)
        floored = run_verification(config)
        np.testing.assert_array_equal(floored.max_deviation, report.max_deviation)
        assert (floored.status[inexact] == "inconclusive").all()
        assert (floored.status[~inexact] == "pass").all()

    def test_parallel_matches_serial(self):
        serial = run_verification(RunConfig(n=3, kinds=("M1",), jobs=1))
        parallel = run_verification(RunConfig(n=3, kinds=("M1",), jobs=2))
        assert serial.rank == parallel.rank
        np.testing.assert_array_equal(serial.max_deviation, parallel.max_deviation)
        np.testing.assert_array_equal(serial.eigenvalues, parallel.eigenvalues)

        # The 5,040 orderings at n = 7 span several chunks: the pool must
        # reproduce the serial run, and a repeat the first run, bit for bit.
        first, pooled, repeat = (run_verification(RunConfig(n=7, kinds=("M1",), jobs=jobs))
                                 for jobs in (1, 2, 1))
        digest = report_to_dict(first)["determinism_sha256"]
        for other in (pooled, repeat):
            assert report_to_dict(other)["determinism_sha256"] == digest
            assert other.status.shape == first.status.shape == (5040, 1)
            assert other.rank == first.rank
            np.testing.assert_array_equal(other.eigenvalues, first.eigenvalues)

    def test_pool_is_bounded_by_the_chunks(self, monkeypatch):
        # A pool that records its size and maps serially, so no process
        # starts: n = 7 splits into four chunks, so four workers at most,
        # and a single chunk takes no pool at all.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        pooled = run_verification(RunConfig(n=7, kinds=("M1",), jobs=10 ** 6))
        assert sizes == [4]
        serial = run_verification(RunConfig(n=7, kinds=("M1",)))
        assert pooled.rank == serial.rank
        np.testing.assert_array_equal(pooled.eigenvalues, serial.eigenvalues)
        np.testing.assert_array_equal(pooled.status, serial.status)
        run_verification(RunConfig(n=6, kinds=("M1",), jobs=10 ** 6))
        assert sizes == [4]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n", sorted(_PINNED_HASHES))
    def test_full_sweep_keeps_its_pinned_hash(self, n, jobs):
        text = report_to_json(run_verification(RunConfig(n=n, jobs=jobs)))
        assert json.loads(text)["determinism_sha256"] == _PINNED_HASHES[n]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_sweep_words_are_the_decoded_ranks(self, monkeypatch, n):
        # A full sweep takes its words from itertools.permutations, and each
        # chunk must get the rows of its own ranks.  The pipeline past the
        # words is stubbed, so n = 7 and 8, which span several chunks, cost
        # only the decoding here.
        handed = []

        def words_only(n, chunk, kinds, root_tol, pass_tol):
            ranks, word = chunk
            handed.append((ranks, word.tolist()))
            shape = (len(ranks), len(kinds))
            return (word, np.zeros(shape + (n,), complex), np.zeros(shape),
                    np.full(shape, "pass"), np.ones(len(ranks)), np.ones(len(ranks)))

        monkeypatch.setattr("diospec.report._verify_chunk", words_only)
        report = run_verification(RunConfig(n=n))
        decoded = [list(word_from_rank(n, rank)) for rank in range(1, math.factorial(n) + 1)]
        assert report.word.tolist() == decoded
        assert len(handed) == len(_chunks(n, len(decoded)))
        for ranks, words in handed:
            assert words == [decoded[rank - 1] for rank in ranks]

    def test_only_a_full_sweep_takes_words_in_rank_order(self, monkeypatch):
        # Explicit and sampled ranks are decoded one by one and build no
        # table of words; a full sweep decodes no rank.
        def refuse(*args):
            raise AssertionError("not on this path")

        sweep = run_verification(RunConfig(n=4))
        monkeypatch.setattr("diospec.hermite.permutations", refuse)
        for n, orderings in ((8, (5,)), (4, (24, 1, 7)), (4, ("sample", 3))):
            report = run_verification(RunConfig(n=n, orderings=orderings))
            assert report.word.tolist() == [list(word_from_rank(n, rank))
                                            for rank in report.rank]
        monkeypatch.undo()
        monkeypatch.setattr("diospec.hermite.word_from_rank", refuse)
        report = run_verification(RunConfig(n=4))
        np.testing.assert_array_equal(report.word, sweep.word)
        np.testing.assert_array_equal(report.eigenvalues, sweep.eigenvalues)

    def test_every_rank_listed_keeps_the_full_sweep_bits(self):
        # Every rank listed explicitly is decoded, where "all" takes its
        # words from permutations; the two reports hold the same bits.
        every = RunConfig(n=5, orderings=range(1, 121))
        assert every.ordering_ranks() == list(range(1, 121))
        listed, sweep = run_verification(every), run_verification(RunConfig(n=5))
        assert sweep.rank == range(1, 121) and listed.rank == list(sweep.rank)
        assert listed.word.dtype == sweep.word.dtype
        for column in ("word", "eigenvalues", "max_deviation", "status"):
            np.testing.assert_array_equal(getattr(listed, column), getattr(sweep, column))

    def test_ordering_alone_matches_its_sweep_row(self):
        # Each ordering's zeros, matrices and spectra are computed on their
        # own, so checking an ordering alone reproduces its row of the full
        # sweep bit for bit, whichever chunk holds it there.
        sweep = run_verification(RunConfig(n=7))
        for rank in range(1, 5041, 37):
            alone = run_verification(RunConfig(n=7, orderings=(rank,)))
            np.testing.assert_array_equal(alone.eigenvalues[0], sweep.eigenvalues[rank - 1])
            np.testing.assert_array_equal(alone.max_deviation[0],
                                          sweep.max_deviation[rank - 1])

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_ordering_alone_matches_its_sampled_row(self, n):
        # At the orders the single-ordering benchmark calls, a sample of 64
        # orderings is one chunk, and each of them checked alone keeps its
        # row's bits.
        sweep = run_verification(RunConfig(n=n, orderings=("sample", 64), seed=n))
        assert len(_chunks(n, len(sweep.rank))) == 1
        for row, rank in enumerate(sweep.rank):
            alone = run_verification(RunConfig(n=n, orderings=(rank,)))
            np.testing.assert_array_equal(alone.eigenvalues[0], sweep.eigenvalues[row])
            np.testing.assert_array_equal(alone.max_deviation[0], sweep.max_deviation[row])

    @pytest.mark.parametrize("n, kinds", _ORACLE_CASES)
    def test_json_matches_rendered_dict(self, n, kinds):
        report = run_verification(RunConfig(n=n, kinds=kinds))
        rendered, reference = report_to_json(report), to_json(report_to_dict(report))
        # Report the first difference rather than let the assertion diff
        # megabyte strings.
        if rendered != reference:
            at = next((i for i, (a, b) in enumerate(zip(rendered, reference)) if a != b),
                      min(len(rendered), len(reference)))
            window = slice(max(0, at - 60), at + 60)
            pytest.fail(f"renderings differ at offset {at} (lengths {len(rendered)}, "
                        f"{len(reference)}):\n  template {rendered[window]!r}\n"
                        f"  generic  {reference[window]!r}")

    @pytest.mark.parametrize("config, entries, slices", [
        (dict(n=5), _N5_IN_FOUR, 4),
        # 24 orderings in chunks of 7, 7, 7 and 3.
        (dict(n=4, kinds=("M2", "M1")), 7 * 4 ** 2, 4),
        (dict(n=12, orderings=(123456789,)), None, 1),
    ], ids=["n5", "n4-M2,M1", "n12-one"])
    def test_slices_match_the_dict(self, monkeypatch, config, entries, slices):
        # Each chunk of orderings is one slice of the text, and the slices
        # join to the oracle's text byte for byte, in JSON and in CSV.
        if entries:
            monkeypatch.setattr("diospec.report._CHUNK_ENTRIES", entries)
        report = run_verification(RunConfig(**config))
        json_parts, csv_parts = list(json_slices(report)), list(csv_slices(report))
        # The JSON has a head and a tail around its slices of results.
        assert len(json_parts) == slices + 2 and len(csv_parts) == slices
        assert "".join(json_parts) == to_json(report_to_dict(report))
        assert "".join(csv_parts) == dict_to_csv(report)

    def test_float_tokens_match_the_scalar_writer(self):
        # Repeated bit patterns share a token, -0.0 keeps its own next to
        # 0.0, and an empty column has no tokens.
        values = [0.0, -0.0, 2.0, 9.0, 1e16, 1e17, 5e-324, 1.5, -3.0,
                  2.0, -0.0, 0.0, -0.0, 1.5, 5e-324, 2.0, -3.0, 0.0]
        assert _float_tokens(np.array(values)) == [_format_float(v) for v in values]
        assert _float_tokens(np.array([])) == []

    @pytest.mark.parametrize("field, value", [
        ("max_deviation", math.nan),
        ("eigenvalues", complex(1.0, math.inf)),
    ])
    def test_non_finite_result_is_not_serialised(self, field, value):
        # Neither format renders it: the CSV would otherwise write nan.
        report = run_verification(RunConfig(n=3))
        # Ordering 2, kind 0; eigenvalues also index the eigenvalue.
        cell = (2, 0, 1) if field == "eigenvalues" else (2, 0)
        getattr(report, field)[cell] = value
        for render in (report_to_json, report_to_csv):
            with pytest.raises(ValueError, match="non-finite"):
                render(report)

    def test_nan_eigenvalue_never_passes(self, monkeypatch):
        # LAPACK returns a NaN eigenvalue for one ordering of an n = 5 sweep,
        # inside the library's sort and deviation: its check is not a pass,
        # the aggregate counts it as a failure, and neither format yields
        # any text of the report.
        lapack = _umath_linalg.eigvals

        def with_nan(a, signature):
            lam = lapack(a, signature=signature)
            lam[17, 1, 2] = math.nan
            return lam

        def nan_spectrum(entries, kinds):
            with monkeypatch.context() as patch:
                patch.setattr(_umath_linalg, "eigvals", with_nan)
                return spectrum_stack(entries, kinds)

        monkeypatch.setattr("diospec.report.spectrum_stack", nan_spectrum)
        report = run_verification(RunConfig(n=5))
        assert math.isnan(report.max_deviation[17, 1])
        assert report.status[17, 1] in ("fail", "inconclusive")
        assert np.count_nonzero(report.status == "pass") == 239
        aggregate = report.aggregate
        assert aggregate["pass"] == 239 and aggregate["fail"] + aggregate["inconclusive"] == 1
        for slices, render in ((json_slices, report_to_json), (csv_slices, report_to_csv)):
            written = []
            with pytest.raises(ValueError, match="non-finite"):
                written.extend(slices(report))
            assert written == []
            with pytest.raises(ValueError, match="non-finite"):
                render(report)

    @pytest.mark.parametrize("field, cell, value", [
        ("eigenvalues", (-1, -1, -1), complex(1.0, math.nan)),
        ("max_deviation", (-1, -1), math.inf),
        ("zero_separation", -1, math.nan),
        ("coeff_separation", -1, -math.inf),
    ])
    def test_non_finite_last_slice_raises_before_writing(self, capsys, monkeypatch, tmp_path,
                                                         field, cell, value):
        # The value sits in the last of four slices, but every column is
        # checked before the file is opened or stdout gets a byte, in either
        # format.
        monkeypatch.setattr("diospec.report._CHUNK_ENTRIES", _N5_IN_FOUR)
        sweep = cli.run_verification

        def spoiled(config):
            report = sweep(config)
            getattr(report, field)[cell] = value
            return report

        monkeypatch.setattr(cli, "run_verification", spoiled)
        for fmt in ("json", "csv"):
            target = tmp_path / f"n5.{fmt}"
            code, out, err = run_cli(capsys, "verify", "--n", "5", "--format", fmt,
                                     "--out", str(target))
            assert code == EXIT_USAGE, fmt
            assert out == "" and "non-finite" in err, fmt
            assert not target.exists(), fmt

    def test_unconverged_ordering_aborts_the_sweep(self):
        # Rank 657 at n = 9 has zeros whose |z|^9 puts an absolute residual
        # test out of reach; the backward-error bound accepts them.
        orderings = (5000, 657, 90000)
        report = run_verification(RunConfig(n=9, orderings=orderings))
        assert report.aggregate["pass"] == report.aggregate["checks"] == 6
        # A root tolerance no zero meets still aborts, and the error names
        # the first failed ordering of its chunk.
        with pytest.raises(NonConvergence, match=r"n=9 rank=657\b"):
            run_verification(RunConfig(n=9, orderings=orderings, root_tol=1e-300))

    @pytest.mark.parametrize("n", [10, 16, 20, 30])
    def test_sampled_large_n_sweep_passes(self, n):
        report = run_verification(RunConfig(n=n, orderings=("sample", 20)))
        assert report.status.shape == (20, 2)
        assert (report.status == "pass").all()
        # The build keeps N = 30 near 2e-11, so 1e-9 catches an accuracy loss
        # long before the 1e-6 pass tolerance would.
        assert report.aggregate["max_deviation"] <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n=1)
        with pytest.raises(ValueError):
            RunConfig(n=3, kinds=("M3",))
        with pytest.raises(ValueError, match="kinds must not repeat"):
            RunConfig(n=3, kinds=("M1", "M1"))
        with pytest.raises(ValueError):
            RunConfig(n=9)  # full sweep beyond 8 needs force
        RunConfig(n=9, force=True)
        with pytest.raises(ValueError):
            RunConfig(n=3, pass_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(n=3, orderings=(0, 1))
        with pytest.raises(ValueError, match=r"n must be in 2\.\.30, got 31"):
            RunConfig(n=31, orderings=("sample", 1))
        with pytest.raises(ValueError, match="at least one kind"):
            RunConfig(n=3, kinds=())
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            RunConfig(n=3, output_format="xml")

    @pytest.mark.parametrize("field, config", [
        ("ordering rank", dict(n=3, orderings=(2.7,))),
        ("sample size", dict(n=3, orderings=("sample", 2.5))),
        ("jobs", dict(n=7, kinds=("M1",), jobs=2.5)),
        ("n", dict(n=3.0)),
        ("seed", dict(n=3, orderings=("sample", 2), seed=2.0)),
        ("seed", dict(n=3, orderings=("sample", 2), seed=None)),
    ])
    def test_non_integer_fields_are_refused(self, field, config, monkeypatch):
        # A float is refused when the config is built: it is neither
        # truncated to a rank or sample size nor handed to a process pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_verification(RunConfig(**config))

    def test_orderings_payload_and_ranks(self):
        # The hashed payload keeps the ranks as given; the sweep checks each
        # rank once, in order.  An array of ranks is the equal list.
        configs = [RunConfig(n=4, orderings=spec)
                   for spec in ((3, 1, 3), [3, 1, 3], np.array([3, 1, 3]))]
        for config in configs:
            assert config.to_dict()["orderings"] == [3, 1, 3]
            config.to_dict()["orderings"].append(4)  # a copy: the config stays
            assert config.ordering_ranks() == [1, 3]
        digests = {json.loads(report_to_json(run_verification(config)))["determinism_sha256"]
                   for config in configs}
        assert len(digests) == 1
        assert RunConfig(n=4).to_dict()["orderings"] == "all"
        assert RunConfig(n=4).ordering_ranks() == range(1, 25)
        sampled = RunConfig(n=4, orderings=("sample", 5), seed=3)
        assert sampled.to_dict()["orderings"] == {"sample": 5}
        assert len(set(sampled.ordering_ranks())) == 5

    def test_equal_orderings_compare_and_hash_equal(self):
        # The orderings field holds its normal form, so a list, a tuple and
        # an array of the same ranks build equal, hashable configs.
        configs = [RunConfig(n=4, orderings=spec)
                   for spec in ([1, 2], (1, 2), np.array([1, 2]))]
        assert all(config.orderings == (1, 2) for config in configs)
        assert all(config == configs[0] for config in configs)
        assert len({hash(config) for config in configs}) == 1
        assert dataclasses.replace(configs[2], seed=3).orderings == (1, 2)
        swapped = RunConfig(n=4, orderings=[2, 1])
        assert swapped != configs[0]
        assert swapped.to_dict()["orderings"] == [2, 1]
        sampled = [RunConfig(n=4, orderings=("sample", k)) for k in (5, np.int64(5))]
        assert sampled[0] == sampled[1] and hash(sampled[0]) == hash(sampled[1])
        assert sampled[0].orderings == ("sample", 5)
        assert hash(RunConfig(n=4)) == hash(RunConfig(n=4, orderings="all"))

    def test_hashed_fields_hold_one_normal_form(self):
        # Configs that compare equal render one hashed payload: the
        # tolerances are held as floats and the seed as an int.
        for given, normal in ((dict(pass_tol=1), dict(pass_tol=1.0)),
                              (dict(root_tol=np.float64(1e-12)), dict(root_tol=1e-12)),
                              (dict(seed=np.int64(2)), dict(seed=2))):
            first, second = RunConfig(n=3, **given), RunConfig(n=3, **normal)
            assert first == second and hash(first) == hash(second)
            assert to_json(first.to_dict()) == to_json(second.to_dict())
        assert type(RunConfig(n=3, pass_tol=1).pass_tol) is float
        assert type(RunConfig(n=3, seed=np.int64(2)).seed) is int
        digests = {json.loads(report_to_json(run_verification(RunConfig(n=3, pass_tol=tol))))[
            "determinism_sha256"] for tol in (1, 1.0)}
        assert len(digests) == 1
        # force is hashed as true or false, so nothing else is taken for it.
        for force in (1, "yes", None):
            with pytest.raises(ValueError, match="force must be a bool"):
                RunConfig(n=9, force=force)

    def test_config_is_frozen(self):
        # Validated once when built, so it must not change afterwards.
        config = RunConfig(n=3, kinds=["M1"])
        assert config.kinds == ("M1",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n = 40

    def test_sampled_ranks_beyond_ssize_t(self):
        # 20! still fits random.sample's population length; 21! does not,
        # so from N = 21 ranks are drawn with random.sample's own rule for
        # large populations.  Both sides stay seeded and pinned.
        assert RunConfig(n=20, orderings=("sample", 3), seed=42).ordering_ranks() == [
            513423962427980190, 643505098263385823, 1129364348903903832]
        assert RunConfig(n=21, orderings=("sample", 3), seed=42).ordering_ranks() == [
            2053695854357871006, 5073395517033431292, 39467508541891565279]
        for n in (21, 30):
            ranks = RunConfig(n=n, orderings=("sample", 20), seed=7).ordering_ranks()
            assert len(set(ranks)) == 20 and ranks == sorted(ranks)
            assert 1 <= ranks[0] and ranks[-1] <= math.factorial(n)
