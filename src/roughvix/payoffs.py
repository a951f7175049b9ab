"""VIX option payoffs, Black–Scholes closed forms, and the log-normal
control variate.

The control variate replaces the scheme's arithmetic average of
``exp(X_T^{u_i})`` by the geometric one, ``exp(sum_i w_i X_T^{u_i})``,
whose payoff expectation is an exact log-normal (Black–Scholes style)
closed form.  The corrected per-sample payoff is

    phi(scheme value) - phi(geometric value) + CV_n,

an unbiased, strongly variance-reduced estimator of ``E[phi(scheme)]``.
The geometric average uses the scheme's own quadrature weights ``w``,
the weight row ``a/d`` that also gives the scheme's VIX^2
(:mod:`.schemes`): ``1/n`` on the right points 1..n for the rectangle,
and ``(1/2, 1, ..., 1, 1/2)/n`` on points 0..n for the trapezoid.  Matching
the weights matters for the trapezoid: a right-point geometric average
leaves its endpoint term ``(exp(X^{u_0}) - exp(X^{u_n}))/(2n)``
uncorrected, and that term dominates the corrected payoff's variance.
The weighted log average of a draw ``X = mu + F G`` is ``w . mu +
(F^T w) . G``: the estimators sample it from the draw's ``r`` normals
``G``, and its exact moments are ``w . mu`` and ``w^T C w``, the latter
taken as ``|F^T w|^2`` from the same ``F^T w``.  The sampled control
variate ``exp(w . mu + (F^T w) . G)`` is therefore exactly the Gaussian
functional that :func:`cv_price` prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erfc

from .errors import HypothesisError, UsageError
from .errors import _NONNEGATIVE, _POSITIVE, _choice, _real, _reals
from .model import GaussianSpec
from .schemes import SchemeKind, geometric_projection

__all__ = [
    "PayoffKind",
    "Payoff",
    "CvMoments",
    "payoff_eval",
    "lipschitz_constant",
    "black_scholes",
    "cv_moments",
    "cv_price",
    "cv_corrected_payoff",
]


class PayoffKind(Enum):
    """Supported claim types on the VIX."""

    CALL = "call"
    PUT = "put"
    FUTURE = "future"


@dataclass(frozen=True)
class Payoff:
    """A claim on the VIX: call ``(sqrt(x)-k)+``, put ``(k-sqrt(x))+``,
    or the future ``sqrt(x)``, as a function of VIX^2 = x.

    Calls and puts require a finite, positive strike; the future carries
    none.
    """

    kind: PayoffKind
    strike: float | None = None

    def __post_init__(self):
        if _choice(self.kind, PayoffKind, "payoff kind") is not PayoffKind.FUTURE:
            object.__setattr__(self, "strike", _real(self.strike, "strike", _POSITIVE))
        elif self.strike is not None:
            raise UsageError("future payoff carries no strike")


def payoff_eval(p: Payoff, vix2):
    """Evaluate the payoff at VIX^2 value(s) ``vix2 >= 0``."""
    x = _reals(vix2, "vix2")
    if np.any(x < 0):
        raise UsageError("payoff requires VIX^2 >= 0")
    vix = np.sqrt(x)
    if p.kind is PayoffKind.CALL:
        out = np.maximum(vix - p.strike, 0.0)
    elif p.kind is PayoffKind.PUT:
        out = np.maximum(p.strike - vix, 0.0)
    else:
        out = vix
    return float(out) if np.ndim(vix2) == 0 else out


def lipschitz_constant(p: Payoff) -> float:
    """Lipschitz constant of the payoff as a function of VIX^2.

    ``1/(2*strike)`` for calls and puts.  The future's square root is not
    Lipschitz at zero, so it has no finite constant; plan constants for
    it must come from pilot estimation instead.
    """
    if p.kind is PayoffKind.FUTURE:
        raise HypothesisError(
            "the future payoff sqrt(x) has no finite Lipschitz constant on [0, inf)"
        )
    return 1.0 / (2.0 * p.strike)


def _norm_cdf(t):
    return 0.5 * erfc(-t / math.sqrt(2.0))


def black_scholes(kind: PayoffKind, x: float, y: float, z: float) -> float:
    """Black–Scholes price with forward `x`, strike `y`, total volatility `z`.

    ``C(x,y,z) = x*Phi(ln(x/y)/z + z/2) - y*Phi(ln(x/y)/z - z/2)`` and the
    symmetric put formula; ``z = 0`` degenerates to the intrinsic value.
    """
    _choice(kind, (PayoffKind.CALL, PayoffKind.PUT), "black_scholes kind")
    x, y, z = _real(x, "x", _POSITIVE), _real(y, "y", _POSITIVE), _real(z, "z", _NONNEGATIVE)
    if z == 0.0:
        intrinsic = x - y if kind is PayoffKind.CALL else y - x
        return max(intrinsic, 0.0)
    d1 = math.log(x / y) / z + 0.5 * z
    d2 = d1 - z
    if kind is PayoffKind.CALL:
        return x * _norm_cdf(d1) - y * _norm_cdf(d2)
    return y * _norm_cdf(-d2) - x * _norm_cdf(-d1)


@dataclass(frozen=True)
class CvMoments:
    """Mean and standard deviation of the log average ``sum_i w_i X_T^{u_i}``."""

    mu_n: float
    sigma_n: float

    def __post_init__(self):
        if self.sigma_n < 0:
            raise UsageError(f"sigma_n must be >= 0, got {self.sigma_n}")


def cv_moments(spec: GaussianSpec, scheme: SchemeKind = SchemeKind.RECTANGLE) -> CvMoments:
    """Exact moments of the scheme-weighted average of ``X`` (module docstring).

    ``mu_n = w . mu`` and ``sigma_n^2 = |F^T w|^2`` for the law's factor
    ``F``, i.e. ``w^T C w`` for the covariance the draws are sampled
    from; both sums are accumulated in extended precision.  The grid
    size n is the law's own, ``spec.n``.  The pair ``(w . mu,
    F^T w)`` is the one the batch kernel samples the control variate
    from (:func:`~roughvix.schemes.geometric_projection`), so the price
    and the samples share one projection.  For the rectangle (the
    default) this is the plain average over right points 1..n.
    """
    mu, projection = geometric_projection(scheme, spec)
    var = math.fsum((projection * projection).tolist())
    return CvMoments(mu_n=mu, sigma_n=math.sqrt(var))


def cv_price(p: Payoff, m: CvMoments) -> float:
    """Exact price of the payoff on the geometric proxy.

    With ``Z ~ N(mu_n, sigma_n^2)``, the claim ``phi(exp(Z))`` prices in
    closed form: calls as ``C_BS(exp(mu_n/2 + sigma_n^2/8), k, sigma_n/2)``,
    puts symmetrically, and the future as ``exp(mu_n/2 + sigma_n^2/8)``.
    """
    forward = math.exp(0.5 * m.mu_n + 0.125 * m.sigma_n**2)
    if p.kind is PayoffKind.FUTURE:
        return forward
    return black_scholes(p.kind, forward, p.strike, 0.5 * m.sigma_n)


def cv_corrected_payoff(p: Payoff, scheme_value, cv_sample_value, cv_n: float):
    """Control-variate-corrected payoff sample(s).

    ``phi(scheme_value) - phi(cv_sample_value) + cv_n`` where both values
    come from the same Gaussian draw and `cv_n` is :func:`cv_price`.
    Unbiased for ``E[phi(scheme_value)]``.
    """
    return payoff_eval(p, scheme_value) - payoff_eval(p, cv_sample_value) + cv_n
