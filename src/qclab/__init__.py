"""qclab: exponential-sum zero sets and their pure point diffraction.

Forward direction: an absolutely convergent exponential sum with real
zeros yields a zero counting measure whose Fourier transform is pure
point; the toolkit extracts the atoms by two independent routes and
verifies the Poisson summation identity.  Inverse direction: a pure
point measure is exponentiated back into a Dirichlet series whose zeros
reproduce the original set, with the bounded-g criterion and an
exponential-type estimate as evidence.
"""

from .apset import (
    AlmostPeriodReport,
    CountingConstants,
    DensityEstimate,
    PhiRepresentation,
    almost_periods,
    counting_constants,
    density,
    krein_levin_diagnostic,
    lindelof_sum,
    phi_fourier,
    phi_representation,
)
from .diffraction import (
    CertifiedMeasure,
    GrowthProfile,
    LogderivCoefficients,
    PointMeasure,
    PoissonReport,
    bohr_atoms,
    bohr_means,
    growth_profile,
    logderiv_coefficients,
    logderiv_measure,
    poisson_residual,
)
from .errors import (
    BoundaryError,
    CapacityError,
    ContourError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
    QclabError,
    StageError,
)
from .reconstruct import (
    GReport,
    ProductValue,
    canonical_product,
    exponential_type,
    g_boundedness,
    g_function,
    log_series_at_height_one,
    rebuild_dirichlet,
    rebuild_from_log_series,
)
from .wiener import (
    ExpSum,
    add,
    at_height,
    canonicalize,
    choose_height,
    derivative,
    evaluate,
    exp_series,
    is_hermitian,
    multiply,
    neumann_inverse,
    scale,
)
from .zeros import (
    RealnessReport,
    ZeroSet,
    find_real_zeros,
    realness_check,
)

__version__ = "0.1.0"
