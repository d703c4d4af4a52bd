import json
import math

import numpy as np
import pytest

from diospec.cli import (
    EXIT_COLLISION,
    EXIT_OK,
    EXIT_SPECTRAL_FAIL,
    EXIT_USAGE,
    main,
)
from diospec.errors import NonConvergence
from diospec.report import (
    RunConfig,
    determinism_hash,
    report_to_csv,
    report_to_dict,
    report_to_json,
    run_verification,
    to_json,
)


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

    def test_n3_report_carries_discrepancy_note(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert any("mu=5" in note for note in payload["notes"])


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

    def test_zeta2_mu1_ordering(self, capsys):
        # rank 4 is the mu=1 assignment at n=3
        code, out, _ = run_cli(capsys, "simulate", "--system", "zeta2", "--n", "3",
                               "--ordering-rank", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["return_distance"] < 1e-5

    def test_collision_exit_code(self, capsys):
        # radius far beyond the zero separation forces a collision abort
        code, _, err = run_cli(capsys, "simulate", "--system", "gamma1", "--n", "2",
                               "--radius", "200.0", "--seed", "1")
        assert code in (EXIT_COLLISION, EXIT_OK)
        if code == EXIT_COLLISION:
            assert "collision" in err.lower() or "separation" in err.lower()


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


class TestReportSerialization:
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

    def test_aggregate_counts_sum(self):
        report = run_verification(RunConfig(n=4, orderings=(1, 2, 3, 20)))
        agg = report.aggregate
        assert agg["pass"] + agg["fail"] + agg["inconclusive"] == agg["checks"]

    def test_parallel_matches_serial(self):
        serial = run_verification(RunConfig(n=3, kinds=("M1",), jobs=1))
        parallel = run_verification(RunConfig(n=3, kinds=("M1",), jobs=2))
        for a, b in zip(serial.results, parallel.results):
            assert a.rank == b.rank and a.kind == b.kind
            assert a.max_deviation == b.max_deviation
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

        # The 5,040 orderings at n = 7 span several chunks: the pool must
        # reproduce the serial run, and a repeat the first run, bit for bit.
        # The jobs setting is part of the hashed config, so the pooled run is
        # hashed as if it had been serial.
        first, pooled, repeat = (run_verification(RunConfig(n=7, kinds=("M1",), jobs=jobs))
                                 for jobs in (1, 2, 1))
        pooled.config.jobs = 1
        digest = report_to_dict(first)["determinism_sha256"]
        for other in (pooled, repeat):
            assert report_to_dict(other)["determinism_sha256"] == digest
            assert len(other.results) == len(first.results) == 5040
            for a, b in zip(first.results, other.results):
                assert a.rank == b.rank
                np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    @pytest.mark.parametrize("n, kinds", [(2, ("M1", "M2")), (3, ("M1",)),
                                          (6, ("M1", "M2"))])
    def test_json_matches_rendered_dict(self, n, kinds):
        report = run_verification(RunConfig(n=n, kinds=kinds))
        assert report_to_json(report) == to_json(report_to_dict(report))

    def test_unconverged_ordering_aborts_the_sweep(self):
        # Rank 657 at n = 9 defeats Aberth from both start phases; the error
        # names it even among orderings that converge.
        with pytest.raises(NonConvergence, match=r"n=9 rank=657\b"):
            run_verification(RunConfig(n=9, orderings=(5000, 657, 90000)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n=1)
        with pytest.raises(ValueError):
            RunConfig(n=3, kinds=("M3",))
        with pytest.raises(ValueError):
            RunConfig(n=9)  # full sweep beyond 8 needs force
        RunConfig(n=9, force=True)
        with pytest.raises(ValueError):
            RunConfig(n=3, pass_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(n=3, orderings=(0, 1))
