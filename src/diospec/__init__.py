"""diospec: integer and squared-integer spectra of matrices built from the
zeros of Hermite-seeded monic polynomials, cross-checked through isochronous
flows.

Take the N real zeros of the degree-N Hermite polynomial, order them in any
of the N! ways, and use them as the trailing coefficients of a monic
polynomial.  Two dense N x N matrices assembled from that polynomial's own
zeros then have eigenvalues exactly 1..N and 1, 4, ..., N^2, for every
ordering.  This package builds the matrices, certifies the spectra, and
independently validates the closed forms as Jacobians of two isochronous
dynamical flows whose 2*pi-periodicity forces the integrality.
"""

__version__ = "0.1.0"

from .hermite import PermutationId, hermite_zeros, permuted_polynomial
from .matrices import build_m1, spectrum_check
from .polynomials import roots

__all__ = [
    "__version__",
    "PermutationId",
    "build_m1",
    "hermite_zeros",
    "permuted_polynomial",
    "roots",
    "spectrum_check",
]
