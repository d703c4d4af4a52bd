import cmath
import math

import numpy as np
import pytest

from diospec.eig import (
    EigenResult,
    as_square_matrix,
    eigenvalues,
    eigenvectors,
    hessenberg_reduce,
)
from diospec.errors import DegenerateSpectrum, DimensionMismatch, NonConvergence
from diospec.hermite import PermutationId, hermite_zeros, permuted_polynomial
from diospec.matrices import KIND_M1, build_m1, build_m2
from diospec.polynomials import MonicPolynomial, roots
from diospec.report import RunConfig, run_verification

SQRT2 = math.sqrt(2.0)


def companion(coefficients):
    """Companion matrix of the monic polynomial with the given trailing
    coefficients (last column carries the negated coefficients)."""
    c = np.asarray(coefficients, dtype=complex)
    n = c.size
    m = np.zeros((n, n), dtype=complex)
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = -c[::-1]
    return m


def sorted_complex(values):
    return np.asarray(sorted(np.asarray(values, complex),
                             key=lambda z: (z.real, z.imag)))


class TestHessenberg:
    def test_diagonal_untouched(self):
        m = np.diag([1.0, -2.0, 3.0 + 1j])
        h, q = hessenberg_reduce(m)
        np.testing.assert_allclose(h, m)
        np.testing.assert_allclose(q, np.eye(3))

    def test_two_by_two_identity_transform(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
        h, q = hessenberg_reduce(m)
        np.testing.assert_allclose(h, m)
        np.testing.assert_allclose(q, np.eye(2))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h, q = hessenberg_reduce(m)
        assert np.abs(np.tril(h, -2)).max() == 0.0
        residual = np.linalg.norm(q @ h @ q.conj().T - m)
        assert residual <= 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(q @ q.conj().T - np.eye(4)) < 1e-13

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hessenberg_reduce(np.ones((2, 3)))
        with pytest.raises(ValueError):
            as_square_matrix([[1.0, np.inf], [0.0, 1.0]])


class TestEigenvalues:
    def test_diagonal(self):
        res = eigenvalues(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sorted_complex(res.eigenvalues), [1.0, 2.0, 3.0],
                                   atol=1e-14)
        assert res.converged

    def test_rotation_generator(self):
        res = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sorted_complex(res.eigenvalues), [-1j, 1j],
                                   atol=1e-14)

    def test_companion_matches_simultaneous_iteration(self):
        p = MonicPolynomial([1 / SQRT2, -1 / SQRT2])
        via_companion = sorted_complex(eigenvalues(companion(p.coefficients)).eigenvalues)
        via_aberth = sorted_complex(roots(p).zeros)
        assert np.max(np.abs(via_companion - via_aberth)) < 1e-10

    def test_companion_route_random_polynomials(self):
        rng = np.random.default_rng(10)
        for degree in range(2, 13):
            c = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
            p = MonicPolynomial(c)
            qr = sorted_complex(eigenvalues(companion(c)).eigenvalues)
            aberth = sorted_complex(roots(p).zeros)
            assert np.max(np.abs(qr - aberth)) < 1e-8

    def test_against_numpy_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ours = sorted_complex(eigenvalues(m).eigenvalues)
            ref = sorted_complex(np.linalg.eigvals(m))
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.max(np.abs(ours - ref)) <= 1e-10 * scale

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(13)
        for n in (3, 8, 16):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lam = eigenvalues(m).eigenvalues
            assert abs(lam.sum() - np.trace(m)) <= 1e-10 * abs(np.trace(m))
            det = np.linalg.det(m)
            assert abs(lam.prod() - det) <= 1e-8 * abs(det)

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(14)
        n = 6
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = np.eye(n)[rng.permutation(n)]
        base = sorted_complex(eigenvalues(m).eigenvalues)
        conjugated = sorted_complex(eigenvalues(p @ m @ p.T).eigenvalues)
        assert np.max(np.abs(base - conjugated)) < 1e-10

    def test_size_cap_and_budget(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(65))
        rng = np.random.default_rng(15)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(NonConvergence):
            eigenvalues(m, max_sweeps=1)

    def test_size_one(self):
        res = eigenvalues(np.array([[5.0 + 2j]]))
        np.testing.assert_allclose(res.eigenvalues, [5.0 + 2j])


class TestEigenvectors:
    def test_diagonal_gives_standard_basis(self):
        m = np.diag([1.0, 2.0, 3.0])
        res = eigenvectors(m, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(3), atol=1e-12)

    def test_residual_bound_on_integer_spectrum_matrix(self):
        # the n=2 matrix built from the mu=1 zeros: eigenvalues 1 and 2
        from diospec.matrices import build_m1
        from diospec.polynomials import poly_from_zeros

        z1 = (-1 + cmath.sqrt(1 + 4 * SQRT2)) / (2 * SQRT2)
        z2 = (-1 - cmath.sqrt(1 + 4 * SQRT2)) / (2 * SQRT2)
        zeros = np.array([z1, z2])
        coeffs = poly_from_zeros(zeros).coefficients
        m = build_m1(zeros, coeffs).entries
        lam = eigenvalues(m).eigenvalues
        res = eigenvectors(m, lam)
        norm_m = np.linalg.norm(m)
        for i in range(2):
            u = res.eigenvectors[:, i]
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(m @ u - lam[i] * u) <= 1e-8 * norm_m

    def test_jordan_block_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DegenerateSpectrum):
            eigenvectors(m, [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eigenvectors(np.eye(3), [1.0, 2.0])

    def test_unit_norm_columns_random(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lam = eigenvalues(m).eigenvalues
        res = eigenvectors(m, lam)
        norms = np.linalg.norm(res.eigenvectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for i in range(5):
            u = res.eigenvectors[:, i]
            assert np.linalg.norm(m @ u - lam[i] * u) <= 1e-8 * np.linalg.norm(m)


class TestSweepSpectraAgainstReference:
    def test_lapack_sweep_matches_shifted_qr(self):
        # The sweep takes its spectra from LAPACK; the shifted QR here stays
        # the independent check on a seeded sample of n = 7 orderings.
        report = run_verification(RunConfig(n=7, orderings=("sample", 50), seed=2024))
        assert len(report.results) == 100
        herm = hermite_zeros(7)
        for result in report.results:
            perm = PermutationId.from_rank(7, result.rank)
            poly = permuted_polynomial(herm, perm)
            builder = build_m1 if result.kind == KIND_M1 else build_m2
            matrix = builder(roots(poly, start_phase=0.4), poly.coefficients)
            qr = eigenvalues(matrix.entries).eigenvalues
            qr = qr[np.argsort(qr.real, kind="stable")]
            assert np.max(np.abs(qr - result.eigenvalues)) <= 1e-9, result.rank
