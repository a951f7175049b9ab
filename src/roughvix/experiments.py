"""Benchmark studies: strong error, weak error, and MSE-versus-cost.

Three experiment drivers produce plot-ready tables:

* :func:`strong_error_curve` — L^2 distance between the reference-grid
  VIX^2 and coarser-grid versions built from the same Gaussian draw by
  index restriction.
* :func:`weak_error_curve` — absolute bias of control-variate prices
  against a frozen reference price.
* :func:`mse_cost_curve` — empirical MSE of repeated estimator runs
  against normalized cost, for plain MC and both multilevel variants.

Named presets bundle the full protocols at two scales: a fast "desk"
scale used by default, and the original large-scale protocol behind
``paper_scale=True``.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import HypothesisError, UsageError
from .errors import _FINITE, _NONNEGATIVE, _POSITIVE, _choice, _items, _real, _reals, _whole
from .estimators import PLAN_CONSTANTS, lambda_constant, mc_price, mlmc_plan, mlmc_price
from .model import ModelParams, gaussian_spec
from .payoffs import Payoff
from .sampler import DOMAIN_EXPERIMENT, vix2_runs
from .schemes import SchemeKind

__all__ = [
    "ErrorCurve",
    "MseCostCurve",
    "strong_error_curve",
    "weak_error_curve",
    "mse_cost_curve",
    "fit_loglog_slope",
    "preset",
    "PRESET_NAMES",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile
FAMILIES = ("mc-rect", "ml-rect", "ml-trap")

# Experiment identifiers inside the DOMAIN_EXPERIMENT stream namespace.
_EXP_STRONG = 1
_EXP_WEAK = 2
_EXP_MSE = 3


@dataclass(frozen=True)
class ErrorCurve:
    """A fitted error-versus-grid-size table.

    ``lambda_over_n`` carries the overlay ``Lambda/n``, the rectangle
    scheme's leading-order error against the exact integral, when the
    closed-form constant applies, else None.  An error measured against
    a finite reference grid ``n_ref`` tends to ``Lambda*(1/n - 1/n_ref)``.
    `protocol` records every input needed to reproduce the run.
    """

    n_values: tuple
    errors: tuple
    ci_halfwidths: tuple
    fitted_slope: float
    protocol: dict = field(repr=False)
    lambda_over_n: tuple | None = None

    def __post_init__(self):
        if not (len(self.n_values) == len(self.errors) == len(self.ci_halfwidths)):
            raise UsageError("curve fields must have equal lengths")
        if any(e < 0 for e in self.errors):
            raise UsageError("errors must be >= 0")
        if self.lambda_over_n is not None and len(self.lambda_over_n) != len(self.n_values):
            raise UsageError("overlay length must match n_values")


@dataclass(frozen=True)
class MseCostCurve:
    """Empirical MSE against normalized cost for one estimator family."""

    family: str
    epsilons: tuple
    costs: tuple
    mses: tuple
    mse_ci_halfwidths: tuple
    fitted_slope: float
    protocol: dict = field(repr=False)

    def __post_init__(self):
        lengths = {
            len(self.epsilons),
            len(self.costs),
            len(self.mses),
            len(self.mse_ci_halfwidths),
        }
        if len(lengths) != 1:
            raise UsageError("curve fields must have equal lengths")


def fit_loglog_slope(x, y) -> tuple:
    """Ordinary least squares of ln(y) on ln(x).

    Returns ``(slope, intercept, r2)``.  Requires at least three strictly
    positive points and non-degenerate x values.
    """
    x, y = _reals(x, "x"), _reals(y, "y")
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise UsageError("need at least 3 paired points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise UsageError("log-log fit requires strictly positive x and y")
    lx, ly = np.log(x), np.log(y)
    if np.allclose(lx, lx[0]):
        raise UsageError("x values are degenerate; slope is undefined")
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(residuals @ residuals) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _fit_or_nan(x, y) -> float:
    try:
        return fit_loglog_slope(x, y)[0]
    except UsageError:
        return float("nan")


def _params_dict(params: ModelParams) -> dict:
    x0 = params.x0
    if not isinstance(x0, float):
        x0 = {"knots": list(x0.knots), "values": list(x0.values), "mode": x0.mode}
    return {
        "H": params.H,
        "eta": params.eta,
        "T": params.T,
        "Delta": params.Delta,
        "x0": x0,
    }


def _payoff_dict(payoff: Payoff) -> dict:
    return {"kind": payoff.kind.value, "strike": payoff.strike}


def _grid_sizes(n_values) -> tuple:
    """A curve's grid sizes as ints: whole numbers >= 1, not empty, no repeats."""
    n_values = _items(n_values, "n_values", lambda n: _whole(n, 1, "grid size"))
    if len(set(n_values)) < len(n_values):
        raise UsageError(f"n_values must be without repeats, got {n_values}")
    return n_values


def strong_error_curve(
    scheme: SchemeKind,
    n_values,
    n_ref: int,
    M: int,
    params: ModelParams,
    seed: int,
) -> ErrorCurve:
    """L^2 strong error of coarse-grid VIX^2 against a fine reference.

    Every `n` must divide `n_ref`; the coarse vector is the restriction
    of the same reference-grid Gaussian draw, so the squared differences
    share all randomness with the reference.  For the rectangle scheme
    with H < 1/2 and a constant initial curve, the overlay ``Lambda/n``
    is attached: the leading-order error against the exact integral.
    The distance measured here, to the `n_ref` grid, tends to
    ``Lambda*(1/n - 1/n_ref)`` instead.
    """
    n_values = _grid_sizes(n_values)
    n_ref = _whole(n_ref, 1, "n_ref")
    for n in n_values:
        if n >= n_ref or n_ref % n != 0:
            raise UsageError(
                f"every n must be a proper divisor of n_ref={n_ref}; offending n={n}"
            )
    M = _whole(M, 1_000, "M, the sample count")

    spec = gaussian_spec(params, n_ref)
    # Unshifted sums, not the estimators' shifted accumulator: its shift moves
    # the last bits of 1 of the 8 pinned errors and 3 of the 8 half-widths.
    sq_sums = {n: [] for n in n_values}
    quad_sums = {n: [] for n in n_values}
    run = (spec, M, (DOMAIN_EXPERIMENT, _EXP_STRONG), [n_ref // n for n in n_values])
    with closing(vix2_runs(scheme, [run], seed)) as batches:
        for _, v_ref, coarse, _ in batches:
            for n, v in zip(n_values, coarse):
                diff = v_ref - v
                sq = diff * diff
                sq_sums[n].append(float(np.sum(sq)))
                quad_sums[n].append(float(np.sum(sq * sq)))

    errors, halfwidths = [], []
    for n in n_values:
        s2 = math.fsum(sq_sums[n])
        s4 = math.fsum(quad_sums[n])
        mean_sq = s2 / M
        var_sq = max(s4 - s2 * s2 / M, 0.0) / (M - 1)
        err = math.sqrt(mean_sq)
        hw_mean_sq = Z95 * math.sqrt(var_sq / M)
        halfwidths.append(hw_mean_sq / (2.0 * err) if err > 0 else 0.0)
        errors.append(err)

    overlay = None
    if scheme is SchemeKind.RECTANGLE:
        try:
            lam = lambda_constant(params)
            overlay = tuple(lam / n for n in n_values)
        except HypothesisError:
            overlay = None

    protocol = {
        "experiment": "strong-error",
        "scheme": scheme.value,
        "n_ref": n_ref,
        "M": M,
        "params": _params_dict(params),
        "seed": seed,
    }
    return ErrorCurve(
        n_values=n_values,
        errors=tuple(errors),
        ci_halfwidths=tuple(halfwidths),
        fitted_slope=_fit_or_nan(n_values, errors),
        protocol=protocol,
        lambda_over_n=overlay,
    )


def weak_error_curve(
    scheme: SchemeKind,
    n_values,
    payoff: Payoff,
    reference_price: float,
    reference_ci: float,
    M: int,
    params: ModelParams,
    seed: int,
) -> ErrorCurve:
    """Absolute bias of control-variate Monte Carlo prices per grid size.

    Each grid size runs `M` samples with the control variate on an
    independent stream; the error is ``|estimate - reference_price|``.
    `reference_ci` documents the reference's own uncertainty and is
    recorded in the protocol (a warning flag is set when it is not an
    order of magnitude below the smallest measured error).
    """
    n_values = _grid_sizes(n_values)
    M = _whole(M, 2, "M, the sample count")
    reference_price = _real(reference_price, "reference_price", _FINITE)
    reference_ci = _real(reference_ci, "reference_ci", _NONNEGATIVE)

    errors, halfwidths, estimates, std_errors = [], [], [], []
    for n in n_values:
        est = mc_price(
            scheme,
            n,
            M,
            payoff,
            use_cv=True,
            params=params,
            seed=seed,
            stream_key=(DOMAIN_EXPERIMENT, _EXP_WEAK, n),
        )
        estimates.append(est.value)
        std_errors.append(est.std_error)
        errors.append(abs(est.value - reference_price))
        halfwidths.append(Z95 * est.std_error)

    positive = [e for e in errors if e > 0]
    protocol = {
        "experiment": "weak-error",
        "scheme": scheme.value,
        "payoff": _payoff_dict(payoff),
        "reference_price": reference_price,
        "reference_ci": reference_ci,
        "M": M,
        "params": _params_dict(params),
        "seed": seed,
        "estimates": estimates,
        "std_errors": std_errors,
        "reference_ci_warning": bool(
            positive and reference_ci > 0.1 * min(positive)
        ),
    }
    return ErrorCurve(
        n_values=n_values,
        errors=tuple(errors),
        ci_halfwidths=tuple(halfwidths),
        fitted_slope=_fit_or_nan(n_values, errors),
        protocol=protocol,
    )


def mse_cost_curve(
    estimator_family: str,
    epsilons,
    N_mse: int,
    reference_price: float,
    params: ModelParams,
    payoff: Payoff,
    seed: int,
    n0: int = 6,
    constants: str = "auto",
) -> MseCostCurve:
    """Empirical MSE against normalized cost over a grid of RMSE targets.

    Families: ``"mc-rect"`` (plain Monte Carlo, rectangle scheme, no
    control variate, at the ceiling allocation ``n = ceil(1/eps)``,
    ``M = ceil(1/eps^2)``), ``"ml-rect"`` and ``"ml-trap"`` (multilevel
    at the planned allocations with base grid `n0`).  Each target runs
    `N_mse` independent replications; the MSE half-width is the normal
    95% interval for the mean of the squared errors.  ``protocol["grids"]``
    lists the grid sizes the estimates were sampled on.
    """
    estimator_family = _choice(estimator_family, FAMILIES, "estimator family")
    constants = _choice(constants, PLAN_CONSTANTS, "constants")
    epsilons = _items(epsilons, "epsilons", lambda e: _real(e, "epsilon", _POSITIVE))
    N_mse = _whole(N_mse, 2, "N_mse")
    reference_price = _real(reference_price, "reference_price", _FINITE)

    costs, mses, halfwidths = [], [], []
    plans = []
    grids = set()
    for eps_index, epsilon in enumerate(epsilons):
        if estimator_family == "mc-rect":
            n = math.ceil(1.0 / epsilon)
            M = max(math.ceil(epsilon**-2), 2)
            grids.add(n)
            price = partial(
                mc_price, SchemeKind.RECTANGLE, n, M, payoff,
                use_cv=False, params=params,
            )
        else:
            scheme = (
                SchemeKind.RECTANGLE
                if estimator_family == "ml-rect"
                else SchemeKind.TRAPEZOID
            )
            plan = mlmc_plan(epsilon, n0, scheme, payoff, params, constants=constants)
            grids.update(plan.n_levels)
            price = partial(mlmc_price, plan, payoff, params)
            plans.append(
                {
                    "epsilon": epsilon,
                    "L": plan.L,
                    "m_levels": list(plan.m_levels),
                    "constants_source": plan.constants_source,
                }
            )
        sq_errors = []
        for rep in range(N_mse):
            key = (DOMAIN_EXPERIMENT, _EXP_MSE, eps_index, rep)
            est = price(seed=seed, stream_key=key)
            sq_errors.append((est.value - reference_price) ** 2)
        mse = math.fsum(sq_errors) / N_mse
        spread = math.fsum((s - mse) ** 2 for s in sq_errors) / (N_mse - 1)
        costs.append(est.cost)
        mses.append(mse)
        halfwidths.append(Z95 * math.sqrt(spread / N_mse))

    protocol = {
        "experiment": "mse-cost",
        "family": estimator_family,
        "epsilons": list(epsilons),
        "N_mse": N_mse,
        "reference_price": reference_price,
        "params": _params_dict(params),
        "payoff": _payoff_dict(payoff),
        "seed": seed,
        "n0": n0,
        "plans": plans,
        "grids": sorted(grids),
    }
    return MseCostCurve(
        family=estimator_family,
        epsilons=epsilons,
        costs=tuple(costs),
        mses=tuple(mses),
        mse_ci_halfwidths=tuple(halfwidths),
        fitted_slope=_fit_or_nan(costs, mses),
        protocol=protocol,
    )


# ---------------------------------------------------------------------------
# Presets


def _model(H: float, T: float) -> dict:
    return {"H": H, "eta": 0.5, "T": T, "Delta": 1.0 / 12.0, "x0": math.log(0.235**2)}


_CALL = {"payoff": "call", "strike": 0.1}


def _strong_preset(H: float, paper_scale: bool) -> dict:
    base = {"command": "strong-error", **_model(H, 0.5)}
    if paper_scale:
        base.update(n_ref=2000, M=100_000, n_values=(10, 20, 40, 80, 125, 250, 500))
    else:
        base.update(n_ref=512, M=20_000, n_values=(8, 16, 32, 64, 128))
    return base


def _weak_preset(paper_scale: bool) -> dict:
    # The reference is the n -> infinity price, not the ref-a price
    # 0.13093742, which is a rectangle price at n = 400 and carries that
    # scheme's grid bias.  It is ref-a less the coupled difference of the
    # control-variate rectangle and trapezoid prices at n = 400 (seed 0,
    # M = 1e5, same draws): 1.9357e-6 with standard error 2.0e-9.  The
    # half-width adds ref-a's 5e-8, the coupled run's 4e-9, the
    # trapezoid's own bias at n = 400 (about 1e-8) and rounding.
    return {
        "command": "weak-error",
        **_model(0.3, 0.25),
        **_CALL,
        "n_values": tuple(range(5, 15)),
        "reference_price": 0.13093548,
        "reference_ci": 7e-8,
        "M": 1_000_000 if paper_scale else 200_000,
    }


def _mse_preset(paper_scale: bool) -> dict:
    return {
        "command": "mse-cost",
        **_model(0.1, 0.5),
        **_CALL,
        "epsilons": (0.04, 0.02, 0.01, 0.005),
        "n_mse": 400 if paper_scale else 100,
        "reference_price": 0.121971,  # ref-b's reference, not the grid limit: docs/formats.md
        "n0": 6,
        "family": "ml-rect",
    }


# The price presets' reference values (ref-a 0.13093742, ref-b 0.121971)
# are listed with the presets in docs/formats.md.
def _ref_a_preset(paper_scale: bool) -> dict:
    return {
        "command": "price",
        **_model(0.3, 0.25),
        **_CALL,
        "scheme": "rect",
        "estimator": "mc",
        "n": 400,
        "M": 3_000_000 if paper_scale else 100_000,
        "cv": True,
    }


def _ref_b_preset(paper_scale: bool) -> dict:
    return {
        "command": "price",
        **_model(0.1, 0.5),
        **_CALL,
        "scheme": "rect",
        "estimator": "mc",
        "n": 500 if paper_scale else 250,
        "M": 10_000_000 if paper_scale else 200_000,
        "cv": True,
    }


_PRESETS = {
    "fig1": lambda paper: _strong_preset(0.1, paper),
    "fig1-h01": lambda paper: _strong_preset(0.1, paper),
    "fig1-h02": lambda paper: _strong_preset(0.2, paper),
    "fig1-h03": lambda paper: _strong_preset(0.3, paper),
    "fig2": _weak_preset,
    "fig3": _mse_preset,
    "ref-a": _ref_a_preset,
    "ref-b": _ref_b_preset,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, paper_scale: bool = False) -> dict:
    """Named experiment protocol, at desk scale or full scale.

    The protocol is a dict of the command-line run's keys: ``command``,
    the model's ``H``, ``eta``, ``T``, ``Delta`` and ``x0``, and the keys
    that command reads.  Strong-error presets ``fig1[-h01|-h02|-h03]``
    (H in {0.1, 0.2, 0.3}) use grids of divisors of the reference size.
    ``fig2`` is the weak study, ``fig3`` the MSE-cost study, and
    ``ref-a``/``ref-b`` the two reference-price protocols.
    """
    return _PRESETS[_choice(name, PRESET_NAMES, "preset")](paper_scale)
