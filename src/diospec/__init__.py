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

from .errors import (
    CollisionAbort,
    DegenerateSpectrum,
    DimensionMismatch,
    NearCollision,
    NonConvergence,
    NumericalError,
    SingularConfiguration,
    StepFloorReached,
)
from .polynomials import (
    MonicPolynomial,
    ZeroVector,
    evaluate,
    poly_from_zeros,
    roots,
)
from .hermite import (
    HermiteZeros,
    PermutationId,
    enumerate_orderings,
    hermite_coefficients,
    hermite_zeros,
    permuted_polynomial,
    residual_first_order,
    residual_second_order,
)
from .matrices import (
    KIND_M1,
    KIND_M2,
    DiophantineMatrix,
    SpectrumReport,
    WTable,
    build_m1,
    build_m2,
    permutation_similarity_check,
    spectrum_check,
    w_table,
)
from .dynamics import (
    TrajectoryRecord,
    fd_jacobian,
    integrate,
    linear_evolution_first,
    linear_evolution_second,
    vector_field,
)
from .report import RunConfig, VerificationReport, run_verification

__all__ = [
    "__version__",
    "CollisionAbort",
    "DegenerateSpectrum",
    "DimensionMismatch",
    "NearCollision",
    "NonConvergence",
    "NumericalError",
    "SingularConfiguration",
    "StepFloorReached",
    "MonicPolynomial",
    "ZeroVector",
    "evaluate",
    "poly_from_zeros",
    "roots",
    "HermiteZeros",
    "PermutationId",
    "enumerate_orderings",
    "hermite_coefficients",
    "hermite_zeros",
    "permuted_polynomial",
    "residual_first_order",
    "residual_second_order",
    "KIND_M1",
    "KIND_M2",
    "DiophantineMatrix",
    "SpectrumReport",
    "WTable",
    "build_m1",
    "build_m2",
    "permutation_similarity_check",
    "spectrum_check",
    "w_table",
    "TrajectoryRecord",
    "fd_jacobian",
    "integrate",
    "linear_evolution_first",
    "linear_evolution_second",
    "vector_field",
    "RunConfig",
    "VerificationReport",
    "run_verification",
]
