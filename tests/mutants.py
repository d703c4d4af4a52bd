"""Mutation checks: each entry breaks the library on purpose and names the
tests that must then fail.

Run ``python tests/mutants.py`` from anywhere.  For each mutant it copies
``src/`` to a temporary directory, replaces the entry's old text, which must
occur exactly once in its file, by the new text, and runs the entry's tests
against the copy.  It fails if an old text no longer applies, or if a
mutant's tests do not fail (pytest exit status 1).  Not part of Tier-1: CI
runs it as a step of its own.  Drop an entry only with a reason in
CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/diospec
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("LAPACK's invalid flag no longer raises",
           "polynomials.py",
           '    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", '
           'under="ignore"):\n',
           "    if True:\n",
           ("tests/test_polynomials.py::TestRoots::test_lapack_failure_is_non_convergence",
            "tests/test_matrices.py::TestSpectrumStack::test_lapack_failure_is_non_convergence",
            "tests/test_matrices.py::TestSimilarity")),
    Mutant("spectrum_stack's finiteness check dropped",
           "matrices.py",
           "    if not np.isfinite(entries).all():\n",
           "    if False:\n",
           ("tests/test_matrices.py::TestSpectrumStack::test_non_finite_entry_is_non_convergence",)),
    Mutant("a real stack sent through the complex eigenvalue routine",
           "polynomials.py",
           'code = "D" if any(map(np.iscomplexobj, operands)) else "d"',
           'code = "D" if name == "eigvals" or any(map(np.iscomplexobj, operands)) else "d"',
           ("tests/test_lapack.py::test_sweep_stacks_match_numpy_linalg[4]",)),
    Mutant("roots_stack's finiteness check dropped",
           "polynomials.py",
           "    if not np.isfinite(c).all():\n",
           "    if False:\n",
           ("tests/test_polynomials.py::TestRoots::test_rejects_non_finite_coefficients",)),
    Mutant("roots_stack's Horner slabs in reverse order",
           "polynomials.py",
           "stack[...] = c.T[:, :, None]",
           "stack[...] = c.T[::-1, :, None]",
           ("tests/test_polynomials.py::TestRescue::test_rescued_rows_are_the_polished_eigenvalues",)),
    Mutant("spectra ordered by a stable argsort of the real parts",
           "matrices.py",
           '    lam.sort(axis=-1, kind="stable")\n',
           '    lam = np.take_along_axis(lam, np.argsort(lam.real, axis=-1, kind="stable"), '
           'axis=-1)\n',
           ("tests/test_matrices.py::TestSpectrumStack::test_conjugate_pair_lists_minus_im_first",)),
    Mutant("the status rule written as deviation > pass_tol, so a NaN passes",
           "report.py",
           'status = np.where(deviation <= pass_tol, "pass",\n'
           '                      np.where(warned[:, None], "inconclusive", "fail"))',
           'status = np.where(deviation > pass_tol,\n'
           '                      np.where(warned[:, None], "inconclusive", "fail"), "pass")',
           ("tests/test_cli.py::TestReportSerialization::test_nan_eigenvalue_never_passes",)),
    Mutant("M2's coupling weight off by 1e-6 relative",
           "matrices.py",
           "KIND_M2: (6.0, 4, 2)",
           "KIND_M2: (6.000006, 4, 2)",
           ("tests/test_matrices.py::TestBuildM2::test_matches_closed_form_n2",)),
    Mutant("the coupling's square taken through a power",
           "matrices.py",
           "    square = cdiff * cdiff\n",
           "    square = np.abs(cdiff) ** 2.0000000001\n",
           ("tests/test_matrices.py::TestCouplingPowers::test_products_match_the_power_reference[3]",)),
    Mutant("the power stack accumulated without its reversal",
           "matrices.py",
           "    rising = powers[:, ::-1]\n",
           "    rising = powers\n",
           ("tests/test_matrices.py::TestScaledBasis::test_scale_is_exact_and_row_local[4]",)),
    Mutant("the real basis picks Im for the -im member of a pair",
           "matrices.py",
           "basis = np.where(z.imag[:, None, :] > 0, powers.imag, powers.real)",
           "basis = np.where(z.imag[:, None, :] < 0, powers.imag, powers.real)",
           ("tests/test_matrices.py::TestCouplingPowers::test_products_match_the_power_reference[4]",)),
    Mutant("the one-row build without its D' similarity",
           "matrices.py",
           "DiophantineMatrix(kind, n, x * derivative / derivative[:, None])",
           "DiophantineMatrix(kind, n, x)",
           ("tests/test_matrices.py::TestBuildM1::test_matches_closed_form_n2",)),
    Mutant("the one-row build with its D' similarity transposed",
           "matrices.py",
           "DiophantineMatrix(kind, n, x * derivative / derivative[:, None])",
           "DiophantineMatrix(kind, n, x * derivative[:, None] / derivative)",
           ("tests/test_matrices.py::TestBuildM1::test_matches_closed_form_n2",)),
    Mutant("the cached coupling built for the sorted kinds",
           "report.py",
           "coupling_stack(zeros[None], kinds)",
           "coupling_stack(zeros[None], tuple(sorted(kinds)))",
           ("tests/test_cli.py::TestReportSerialization::test_caches_are_keyed_by_the_order_of_kinds",)),
    Mutant("the gather permutes the coupling's rows only",
           "report.py",
           "index = (word - 1)[:, :, None] * n + (word - 1)[:, None, :]",
           "index = (word - 1)[:, :, None] * n + np.arange(n)",
           ("tests/test_matrices.py::TestPermutedCoupling::test_gather_matches_the_direct_build",)),
    Mutant("each sweep chunk cut one ordering short",
           "report.py",
           "return [slice(i, i + size) for i in range(0, count, size)]",
           "return [slice(i, i + size - 1) for i in range(0, count, size)]",
           ("tests/test_cli.py::TestReportSerialization::test_slices_match_the_dict[n5]",)),
    Mutant("the CSV layout looked up by the sorted kinds",
           "report.py",
           "    _, row, expected = _layout(n, kinds)\n",
           "    _, row, expected = _layout(n, tuple(sorted(kinds)))\n",
           ("tests/test_cli.py::TestReportSerialization::test_caches_are_keyed_by_the_order_of_kinds",)),
    Mutant("the finiteness check of a render skips the deviation column",
           "report.py",
           "    for values in (report.eigenvalues.view(np.float64), report.max_deviation,\n",
           "    for values in (report.eigenvalues.view(np.float64),\n",
           ("tests/test_cli.py::TestReportSerialization::test_non_finite_result_is_not_serialised",)),
    Mutant("the JSON results keep the separator after their last check",
           "report.py",
           '        parts[-1] = ""\n',
           "        pass\n",
           ("tests/test_cli.py::TestReportSerialization::test_json_round_trip",)),
    Mutant("each CSV slice drops its last newline",
           "report.py",
           '    lines.append("")\n',
           "",
           ("tests/test_cli.py::TestReportSerialization::test_slices_match_the_dict[n12-one]",)),
    Mutant("the zeta transport's Horner adds the negated rate",
           "dynamics.py",
           "        out -= c\n",
           "        out += c\n",
           ("tests/test_dynamics_bits.py::test_field_keeps_the_reference_bits[zeta1-5]",)),
    Mutant("the zeta field's finiteness check of the Vieta coefficients skipped",
           "dynamics.py",
           "    if not all(map(cmath.isfinite, coefficients)):\n",
           "    if False:\n",
           ("tests/test_dynamics_bits.py::test_field_raises_as_the_reference_does[zeta1-overflow]",)),
    Mutant("the stage weights filled into the wrong columns",
           "dynamics.py",
           "        weights[:, 1:] = (h * _STAGE_WEIGHTS)[:, :, None]\n",
           "        weights[:, :-1] = (h * _STAGE_WEIGHTS)[:, :, None]\n",
           ("tests/test_dynamics_bits.py::test_stage_sums_keep_the_reference_bits[gamma1-3]",)),
    Mutant("the field at a step's new state written straight into the first stage",
           "dynamics.py",
           "    stages, new_stage = table[1:13], table[13]\n",
           "    stages, new_stage = table[1:13], table[1]\n",
           ("tests/test_dynamics.py::TestIntegrate::test_collision_at_the_new_state_rejects_the_step",)),
    Mutant("the stage finiteness check skipped",
           "dynamics.py",
           "                if not all(map(cmath.isfinite, y_stage.tolist())):\n",
           "                if False:\n",
           ("tests/test_dynamics.py::TestIntegrate::test_non_finite_stage_state_is_refused",)),
    Mutant("the stage finiteness check reads the positions only",
           "dynamics.py",
           "                if not all(map(cmath.isfinite, y_stage.tolist())):\n",
           "                if not all(map(cmath.isfinite, y_stage[:n_pos].tolist())):\n",
           ("tests/test_dynamics.py::TestIntegrate::test_non_finite_stage_state_is_refused",)),
    Mutant("the stage finiteness check reads the real parts only",
           "dynamics.py",
           "                if not all(map(cmath.isfinite, y_stage.tolist())):\n",
           "                if not all(map(math.isfinite, y_stage.real.tolist())):\n",
           ("tests/test_dynamics.py::TestIntegrate::test_overflowing_stage_state_is_refused",)),
    Mutant("a full sweep's words taken from the permutations of n..1",
           "hermite.py",
           "    words = permutations(range(1, n + 1))\n",
           "    words = permutations(range(n, 0, -1))\n",
           ("tests/test_cli.py::TestReportSerialization::test_full_sweep_words_are_the_decoded_ranks[4]",)),
    Mutant("each chunk of a full sweep handed the first rows of words",
           "hermite.py",
           "        flat = chain.from_iterable(islice(words, size))\n",
           "        flat = chain.from_iterable(islice(permutations(range(1, n + 1)), size))\n",
           ("tests/test_cli.py::TestReportSerialization::test_full_sweep_words_are_the_decoded_ranks[7]",)),
    Mutant("the second-order coefficient rate cubed by products",
           "hermite.py",
           "2.0 * np.add.reduce(inv ** 3, axis=1)",
           "2.0 * np.add.reduce(inv * inv * inv, axis=1)",
           ("tests/test_dynamics_bits.py::test_field_keeps_the_reference_bits[gamma2-3]",)),
    Mutant("the residual test written as max(r1, r2) > bound, so NaN residuals pass",
           "hermite.py",
           "    if not (r1 <= _RESIDUAL_BOUND and r2 <= _RESIDUAL_BOUND):\n",
           "    if max(r1, r2) > _RESIDUAL_BOUND:\n",
           ("tests/test_hermite.py::TestZeros::test_nan_node_raises",)),
    Mutant("hermite_zeros cached behind its order check again",
           "hermite.py",
           "\ndef hermite_zeros(n: int) -> HermiteZeros:\n",
           "\n@lru_cache(maxsize=None)\ndef hermite_zeros(n: int) -> HermiteZeros:\n",
           ("tests/test_hermite.py::TestZeros::test_restored_cap_holds_again",)),
    Mutant("the modal evolution's kind check skipped",
           "dynamics.py",
           "    if matrix.kind != kind:\n",
           "    if False:\n",
           ("tests/test_dynamics.py::TestLinearEvolution::test_kind_is_enforced",)),
    Mutant("the polish divides by a vanishing derivative without its floor",
           "polynomials.py",
           "candidate = z - val / np.where(np.abs(der) < _TINY, _TINY, der)",
           "candidate = z - val / der",
           ("tests/test_polynomials.py::TestRescue::test_vanishing_derivative_in_a_rescued_row",)),
    Mutant("the polish step kept even where it increases the residual",
           "polynomials.py",
           "return np.where(resid <= best, candidate, z), np.minimum(resid, best)",
           "return candidate, np.minimum(resid, best)",
           ("tests/test_polynomials.py::TestRescue::test_rescued_rows_are_the_polished_eigenvalues",)),
    Mutant("the rescue skipped, so a row that misses the bound is never polished",
           "polynomials.py",
           "    if failed.any():\n",
           "    if False:\n",
           ("tests/test_polynomials.py::TestRescue::test_every_rescued_row_passes",)),
    Mutant("every row polished, whether or not it meets the bound",
           "polynomials.py",
           "    failed = misses(resid)\n    if failed.any():\n",
           "    failed = np.ones(b, dtype=bool)\n    if failed.any():\n",
           ("tests/test_polynomials.py::TestLapackZeros::test_sweep_rows_keep_the_lapack_bits[6]",)),
    Mutant("roots' default tol raised from 1e-12 to 1",
           "polynomials.py",
           "def roots(p: MonicPolynomial, tol: float = 1e-12)",
           "def roots(p: MonicPolynomial, tol: float = 1.0)",
           ("tests/test_polynomials.py::TestBound::test_default_tol_rejects_a_row_that_passes_at_1e_11",)),
    Mutant("roots_stack's default tol raised from 1e-12 to 1",
           "polynomials.py",
           "def roots_stack(coefficients, tol: float = 1e-12)",
           "def roots_stack(coefficients, tol: float = 1.0)",
           ("tests/test_polynomials.py::TestBound::test_default_tol_rejects_a_row_that_passes_at_1e_11",)),
    Mutant("the backward-error bound's 1 + max|c| raised to 2 + max|c|",
           "polynomials.py",
           "scale = tol * (1.0 + np.abs(c).max(axis=1, keepdims=True))",
           "scale = tol * (2.0 + np.abs(c).max(axis=1, keepdims=True))",
           ("tests/test_polynomials.py::TestBound::test_residual_just_past_the_bound_fails[outside]",)),
    Mutant("the backward-error bound's floor max(1, |z|) raised to max(2, |z|)",
           "polynomials.py",
           "np.maximum(1.0, np.abs(zeros)) ** n",
           "np.maximum(2.0, np.abs(zeros)) ** n",
           ("tests/test_polynomials.py::TestBound::test_residual_just_past_the_bound_fails[inside]",)),
    Mutant("hermite_zeros' residual bound raised from 1e-10 to 1",
           "hermite.py",
           "_RESIDUAL_BOUND = 1e-10\n",
           "_RESIDUAL_BOUND = 1.0\n",
           ("tests/test_hermite.py::TestZeros::test_either_residual_alone_past_its_bound_raises[1]",)),
    Mutant("hermite_zeros raises only when both residuals miss the bound",
           "hermite.py",
           "    if not (r1 <= _RESIDUAL_BOUND and r2 <= _RESIDUAL_BOUND):\n",
           "    if not (r1 <= _RESIDUAL_BOUND or r2 <= _RESIDUAL_BOUND):\n",
           ("tests/test_hermite.py::TestZeros::test_either_residual_alone_past_its_bound_raises[2]",)),
    Mutant("the cached coupling left writable",
           "report.py",
           "return _frozen(coupling[0].reshape(len(kinds), n * n), float), float(separation[0])",
           "return coupling[0].reshape(len(kinds), n * n), float(separation[0])",
           ("tests/test_matrices.py::TestPermutedCoupling::test_cached_coupling_is_read_only",)),
    Mutant("hashlib imported at the top of report.py again",
           "report.py",
           "import math\nimport operator\n",
           "import hashlib\nimport math\nimport operator\n",
           ("tests/test_cli.py::TestModulesLoaded::test_run_loads_only_what_it_uses[csv]",)),
    Mutant("the process pool imported at the top of report.py again",
           "report.py",
           "import math\nimport operator\n",
           "import math\nimport operator\nfrom concurrent.futures import ProcessPoolExecutor\n",
           ("tests/test_cli.py::TestModulesLoaded::test_run_loads_only_what_it_uses[csv]",)),
]


def check(mutant: Mutant, workdir: Path) -> str:
    """Apply mutant to a copy of src/ under workdir and run its tests there;
    return what is wrong, or "" when the tests fail as they must."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "diospec" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"its old text occurs {found} times in {mutant.file}, not once"
    path.write_text(text.replace(mutant.old, mutant.new))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-W", "error::RuntimeWarning", *mutant.tests],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if run.returncode == 0:
        return "survived: its tests pass"
    if run.returncode != 1:
        return f"pytest exited {run.returncode}, not with failed tests:\n{run.stdout[-2000:]}"
    return ""


def main() -> int:
    problems = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as workdir:
            problem = check(mutant, Path(workdir))
        print(f"{'FAIL  ' if problem else 'killed'}  {mutant.name}"
              + (f": {problem}" if problem else ""), flush=True)
        problems += bool(problem)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
