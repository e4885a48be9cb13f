"""Expected-maximum experiments for fractional Brownian motion.

Simulation of fBm paths by circulant embedding, Monte Carlo and Clark
estimates of the expected maximum, the small-Hurst limit integral, and the
analytic bounds that together exhibit the blow-up of the discretization error
as the Hurst index tends to zero.
"""

from .bounds import (
    BoundsReport,
    borovkov_bounds,
    bounds_report,
    delta_lower_bound,
    delta_upper_bound,
    limit_integral,
    limit_rate_bound,
    relative_error_lower,
    sudakov_lower_bound,
    sudakov_maximizer,
)
from .clark import (
    GaussianVectorSpec,
    clark_expected_max,
    clark_pair_moments,
    fbm_vector_spec,
    run_clark_recursion,
)
from .errors import EmbeddingError, NumericalError, OracleError, QuadratureError
from .fbm import (
    CirculantSpectrum,
    build_embedding,
    cholesky_oracle_paths,
    fbm_covariance_matrix,
    fgn_autocovariance,
)
from .functionals import (
    FunctionalKind,
    average_second_moment,
    average_second_moment_limit,
)
from .grid import PathGrid
from .montecarlo import (
    ExperimentConfig,
    SampleSummary,
    run_fbm_experiment,
    run_iid_limit_experiment,
    summarize,
)
from .rng import replication_rng
from .special import inverse_erf, inverse_erfc, norm_cdf, norm_pdf

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CirculantSpectrum",
    "EmbeddingError",
    "ExperimentConfig",
    "FunctionalKind",
    "GaussianVectorSpec",
    "NumericalError",
    "OracleError",
    "PathGrid",
    "QuadratureError",
    "SampleSummary",
    "average_second_moment",
    "average_second_moment_limit",
    "borovkov_bounds",
    "bounds_report",
    "build_embedding",
    "cholesky_oracle_paths",
    "clark_expected_max",
    "clark_pair_moments",
    "delta_lower_bound",
    "delta_upper_bound",
    "fbm_covariance_matrix",
    "fbm_vector_spec",
    "fgn_autocovariance",
    "inverse_erf",
    "inverse_erfc",
    "limit_integral",
    "limit_rate_bound",
    "norm_cdf",
    "norm_pdf",
    "relative_error_lower",
    "replication_rng",
    "run_clark_recursion",
    "run_fbm_experiment",
    "run_iid_limit_experiment",
    "summarize",
    "sudakov_lower_bound",
    "sudakov_maximizer",
    "__version__",
]
