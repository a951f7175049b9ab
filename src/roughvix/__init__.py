"""VIX option pricing under a rough Bergomi forward-variance model.

The package prices European options on the VIX index when the
instantaneous forward variance follows a rough lognormal dynamic.
Because the VIX window integrand is a Gaussian process with closed-form
mean and covariance (the off-diagonal entries reduce to a Gauss
hypergeometric evaluation), VIX^2 can be discretized and simulated
exactly — no time-stepping bias beyond the integral discretization.

Building blocks:

* :mod:`~roughvix.model` — grids, mean vector, covariance matrix, its
  low-rank pivoted Cholesky factor, the one cache of the law, and a
  quadrature oracle for validating the closed form.
* :mod:`~roughvix.sampler` — deterministic counter-based streams, draws
  from the factor, and coarse-grid restriction for coupling.
* :mod:`~roughvix.schemes` — rectangle and trapezoid VIX^2 integration.
* :mod:`~roughvix.payoffs` — call/put/future payoffs and the lognormal
  control variate built from the geometric average.
* :mod:`~roughvix.estimators` — plain Monte Carlo and multilevel Monte
  Carlo with closed-form sample allocations.
* :mod:`~roughvix.experiments` — strong-error, weak-error, and
  MSE-versus-cost studies with named presets.
* :mod:`~roughvix.cli` — the ``roughvix`` command-line interface.
"""

from .errors import (
    FactorizationError,
    HypothesisError,
    NumericError,
    RoughVixError,
    UsageError,
)
from .estimators import (
    Estimate,
    LevelStat,
    MlmcPlan,
    lambda_constant,
    level_statistics,
    mc_price,
    mlmc_plan,
    mlmc_price,
)
from .experiments import (
    ErrorCurve,
    MseCostCurve,
    fit_loglog_slope,
    mse_cost_curve,
    preset,
    strong_error_curve,
    weak_error_curve,
)
from .hypergeometric import hyp2f1
from .model import (
    CholeskyFactor,
    Grid,
    GaussianSpec,
    ModelParams,
    X0Curve,
    cholesky_factor,
    covariance_entry,
    covariance_matrix,
    covariance_quadrature_oracle,
    gaussian_spec,
    grid_for,
    kernel_eval,
    lambda_integral,
    mean_vector,
)
from .payoffs import (
    CvMoments,
    Payoff,
    PayoffKind,
    black_scholes,
    cv_corrected_payoff,
    cv_moments,
    cv_price,
    geometric_vix2,
    lipschitz_constant,
    payoff_eval,
)
from .sampler import (
    GaussianSample,
    batch_size,
    batch_sizes,
    factor_for,
    restrict_to_coarse,
    sample_fine,
    stream_for,
)
from .schemes import (
    SchemeKind,
    rectangle_vix2,
    scheme_vix2,
    trapezoid_vix2,
    vix_from_vix2,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RoughVixError",
    "UsageError",
    "HypothesisError",
    "NumericError",
    "FactorizationError",
    # model
    "ModelParams",
    "X0Curve",
    "Grid",
    "GaussianSpec",
    "grid_for",
    "kernel_eval",
    "mean_vector",
    "covariance_entry",
    "covariance_matrix",
    "covariance_quadrature_oracle",
    "lambda_integral",
    "gaussian_spec",
    "CholeskyFactor",
    "cholesky_factor",
    "hyp2f1",
    # sampler
    "GaussianSample",
    "factor_for",
    "stream_for",
    "sample_fine",
    "restrict_to_coarse",
    "batch_size",
    "batch_sizes",
    # schemes
    "SchemeKind",
    "rectangle_vix2",
    "trapezoid_vix2",
    "scheme_vix2",
    "vix_from_vix2",
    # payoffs
    "PayoffKind",
    "Payoff",
    "payoff_eval",
    "lipschitz_constant",
    "black_scholes",
    "CvMoments",
    "cv_moments",
    "cv_price",
    "geometric_vix2",
    "cv_corrected_payoff",
    # estimators
    "Estimate",
    "MlmcPlan",
    "LevelStat",
    "lambda_constant",
    "mc_price",
    "mlmc_plan",
    "mlmc_price",
    "level_statistics",
    # experiments
    "ErrorCurve",
    "MseCostCurve",
    "strong_error_curve",
    "weak_error_curve",
    "mse_cost_curve",
    "fit_loglog_slope",
    "preset",
]
