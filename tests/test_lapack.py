"""The library calls numpy's private LAPACK gufuncs (``numpy.linalg._umath_linalg``)
without the ``numpy.linalg`` wrappers.  These tests pin each call site to the
public functions it replaced, bit for bit, so a numpy release that renames or
changes the gufuncs fails here instead of silently changing results."""

import numpy as np
import pytest

import diospec.matrices as matrices
import diospec.polynomials as polynomials
from diospec.matrices import build_m1, build_m2, spectrum_check
from diospec.polynomials import MonicPolynomial, roots
from diospec.report import RunConfig, _chunks, run_verification

_PUBLIC = {"eigvals": lambda a: np.linalg.eigvals(a).astype(complex),
           "solve": np.linalg.solve}

# (module, gufunc, operand dtype kinds) of the three call sites on a sweep.
_REAL_SITES = {("diospec.polynomials", "eigvals", ("f",)),
               ("diospec.matrices", "eigvals", ("f",)),
               ("diospec.matrices", "solve", ("f", "f"))}


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.fixture
def lapack_calls(monkeypatch):
    """Wrap the three call sites: ``roots_stack``'s eigenvalues in
    ``polynomials``, and ``spectrum_stack``'s eigenvalues and
    ``_similarity``'s solve in ``matrices``.  Each call is checked against
    numpy.linalg on the same operands, and recorded as (module, gufunc,
    operand dtype kinds)."""
    calls = []

    def checked(module):
        library = module._lapack

        def call(name, *operands):
            got = library(name, *operands)
            _assert_same_bits(got, _PUBLIC[name](*operands))
            calls.append((module.__name__, name, tuple(a.dtype.kind for a in operands)))
            return got
        return call

    for module in (polynomials, matrices):
        monkeypatch.setattr(module, "_lapack", checked(module))
    return calls


@pytest.mark.parametrize("n", range(2, 9))
def test_sweep_stacks_match_numpy_linalg(lapack_calls, n):
    # Both kinds, every ordering, in the sweep's own chunks: real operands.
    report = run_verification(RunConfig(n=n))
    assert (report.status == "pass").all()
    assert len(lapack_calls) == 3 * len(_chunks(n, len(report.rank)))
    assert set(lapack_calls) == _REAL_SITES


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_sampled_rows_match_numpy_linalg(lapack_calls, n):
    # A one-chunk sample at the orders the single-ordering benchmark calls.
    report = run_verification(RunConfig(n=n, orderings=("sample", 64), seed=n))
    assert len(_chunks(n, len(report.rank))) == 1
    assert (report.status == "pass").all()
    assert len(lapack_calls) == 3 and set(lapack_calls) == _REAL_SITES


@pytest.mark.parametrize("builder", [build_m1, build_m2])
def test_complex_rows_match_numpy_linalg(lapack_calls, builder):
    # One complex row: complex coefficients, zeros, basis and matrix.
    rng = np.random.default_rng(30)
    for n in (3, 6, 9):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = np.poly(z)[1:]
        zeros = roots(MonicPolynomial(c)).zeros
        spectrum_check(builder(zeros, c))
    assert len(lapack_calls) == 9
    assert set(lapack_calls) == {("diospec.polynomials", "eigvals", ("c",)),
                                 ("diospec.matrices", "eigvals", ("c",)),
                                 ("diospec.matrices", "solve", ("c", "c"))}


def test_real_eigenvalues_have_a_positive_zero_imaginary_part():
    # numpy.linalg returns a real array for an all-real spectrum, which
    # becomes +0.0 imaginary parts once made complex; the gufunc must agree.
    a = np.diag([3.0, 1.0, 2.0])[None] + np.triu(np.ones((3, 3)), 1)
    lam = polynomials._lapack("eigvals", a)
    assert lam.dtype == complex and (lam.imag == 0).all()
    assert not np.signbit(lam.imag).any()
    _assert_same_bits(lam, np.linalg.eigvals(a).astype(complex))
