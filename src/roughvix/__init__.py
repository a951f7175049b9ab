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

A public name is one entry in its layer's ``__all__``: the package
exports each layer's ``__all__``, lowest layer first, and nothing else
but ``__version__``.  It does not import :mod:`~roughvix.cli`.
"""

# Alphabetical, the order in which the layers have always loaded: a
# process's peak memory has been seen to follow import order.
from . import errors, estimators, experiments, hypergeometric, model, payoffs, sampler, schemes
from .errors import *
from .estimators import *
from .experiments import *
from .hypergeometric import *
from .model import *
from .payoffs import *
from .sampler import *
from .schemes import *

__version__ = "0.1.0"

__all__ = [
    "__version__", *errors.__all__, *hypergeometric.__all__, *model.__all__,
    *schemes.__all__, *sampler.__all__, *payoffs.__all__, *estimators.__all__,
    *experiments.__all__,
]
