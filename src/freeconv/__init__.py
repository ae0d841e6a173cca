"""freeconv: spectral densities of free multiplicative convolutions.

Measures are specified through factored S-transforms, turned into
polynomial resolvent equations with exact rational coefficients, and
inverted numerically (branch-tracked Stieltjes inversion) to produce
densities.  Closed-form density formulas, exact moment sequences, the
single-ring radial machinery, and Monte Carlo sampling of the matching
generalized Wishart ensembles provide independent cross-checks of every
route.
"""

from .closedform import Family, all_families, cdf, family
from .ensembles import (
    EmpiricalSpectrum,
    EnsembleConfig,
    build_sample,
    hermitian_eigenvalues,
    ks_distance,
    sample_ginibre,
    sample_haar_unitary,
    simulate,
)
from .errors import (
    BranchAmbiguity,
    ConvergenceError,
    DegreeDropError,
    DomainError,
    EdgeWarning,
    FreeconvError,
    MultiIntervalError,
    NoConvergence,
    NonMonotoneError,
    ParseError,
    PoleError,
    QuadratureError,
    SeriesAmbiguity,
    ShapeError,
)
from .grammar import parse_measure, parse_target
from .isotropic import (
    RadialProfile,
    r_sum_unitaries,
    radial_cdf,
    radial_profile,
    rescale_green,
    ring_radii,
    square_modulus_green,
)
from .measures import (
    Arcsine,
    MarchenkoPastur,
    MeasureSpec,
    RationalFactor,
    ResolventPolynomial,
    arcsine,
    boxtimes,
    build_resolvent,
    free_power,
    identity,
    mp,
    rational_factor,
    s_eval,
)
from .moments import (
    CumulantSequence,
    MomentSequence,
    boxtimes_moments,
    cumulants_from_moments,
    fuss_catalan,
    moments_from_cumulants,
    moments_from_density,
    moments_from_resolvent,
)
from .resolvent import (
    BranchTracker,
    DensityCurve,
    density,
    density_curve,
    green,
    potential_derivative,
    roots_at,
    support_edges,
)

__version__ = "0.1.0"
