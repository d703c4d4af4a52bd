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
    Mutant("the polish's Horner slabs in reverse order",
           "polynomials.py",
           "stack[...] = c.T[:, :, None]",
           "stack[...] = c.T[::-1, :, None]",
           ("tests/test_polynomials.py::TestPolish::test_operand_stack_moves_no_bit_on_sweep_stacks[5]",)),
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
           "        transport -= c\n",
           "        transport += c\n",
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
           ("tests/test_polynomials.py::TestPolish::test_vanishing_derivative_keeps_the_start",)),
    Mutant("the polish step kept even where it increases the residual",
           "polynomials.py",
           "return np.where(resid <= best, candidate, z), np.minimum(resid, best)",
           "return candidate, np.minimum(resid, best)",
           ("tests/test_polynomials.py::TestPolish::test_matches_the_two_full_pass_reference[5]",)),
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
