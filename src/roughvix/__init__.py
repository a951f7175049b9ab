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
* :mod:`~roughvix.schemes` — the rectangle and trapezoid quadrature rules
  as integer weight rows, for the fine grid and its restricted coarse
  grids, and the control variate's projection onto the normals.
* :mod:`~roughvix.sampler` — deterministic counter-based streams and the
  batch kernel, which draws from the factor a block of grid rows at a
  time and applies the rules to give every grid's VIX^2.
* :mod:`~roughvix.payoffs` — call/put/future payoffs and the lognormal
  control variate built from the geometric average.
* :mod:`~roughvix.estimators` — plain Monte Carlo and multilevel Monte
  Carlo with closed-form sample allocations.
* :mod:`~roughvix.experiments` — strong-error, weak-error, and
  MSE-versus-cost studies with named presets.
* :mod:`~roughvix.cli` — the ``roughvix`` command-line interface.
"""

from .errors import (
    DegenerateEstimateWarning,
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
    GaussianSpec,
    ModelParams,
    X0Curve,
    cholesky_factor,
    covariance_entry,
    covariance_matrix,
    covariance_quadrature_oracle,
    gaussian_spec,
    grid_for,
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
    lipschitz_constant,
    payoff_eval,
)
from .sampler import (
    batch_size,
    batch_sizes,
    factor_for,
    stream_for,
)
from .schemes import (
    SchemeKind,
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
    "DegenerateEstimateWarning",
    # model
    "ModelParams",
    "X0Curve",
    "GaussianSpec",
    "grid_for",
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
    "factor_for",
    "stream_for",
    "batch_size",
    "batch_sizes",
    # schemes
    "SchemeKind",
    # payoffs
    "PayoffKind",
    "Payoff",
    "payoff_eval",
    "lipschitz_constant",
    "black_scholes",
    "CvMoments",
    "cv_moments",
    "cv_price",
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
