"""Plain Monte Carlo and multilevel Monte Carlo price estimators.

The multilevel estimator telescopes over grids ``n_l = n0 * 2**l``: the
base level averages plain payoffs, and each correction level averages
``phi(fine) - phi(coarse)`` with the coarse value computed from the same
Gaussian draw by index restriction.  Level counts follow the closed-form
allocation rules: given the Lipschitz constant ``L_phi`` of the payoff
and the rectangle scheme's exact L^2 error constant ``Lambda``,

    c1 = L_phi * Lambda / n0,          c2 = 10 * (L_phi * Lambda)^2 / n0^2,
    L  = max(0, ceil(ln(sqrt(2) c1 / eps) / ln 2)),
    M0 = ceil(2 eps^-2 c2 (L + 1)),

with per-level sample counts ``M_l = ceil(M0 * 2**(-2 l))`` for the
rectangle scheme and ``ceil(M0 * 2**(-(2+H) l))`` for the trapezoid
(which reuses the rectangle's L and M0), each at least 2 so that every
level has a sample variance.  When the closed form for
``Lambda`` does not apply (H >= 1/2, non-constant initial curve, or a
non-Lipschitz payoff), the constants are estimated from a pilot run.

Cost is accounted in the paper's normalized units: ``n^2`` per sample at
grid size ``n``, the scalar multiplies of a dense ``L @ G`` product.  The
low-rank factor does ``(n+1) r`` of them, so these units count work the
sampler no longer does; they are kept because the paper's cost model and
its acceptance studies are stated in them.
"""

from __future__ import annotations

import math
import warnings
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateWarning, HypothesisError, NumericError, UsageError
from .errors import _POSITIVE, _choice, _items, _real, _whole
from .model import GaussianSpec, ModelParams, gaussian_spec, lambda_integral
from .payoffs import (
    Payoff,
    cv_corrected_payoff,
    cv_moments,
    cv_price,
    lipschitz_constant,
    payoff_eval,
)
from .sampler import DOMAIN_MC, DOMAIN_MLMC, DOMAIN_PILOT, vix2_runs
from .schemes import SchemeKind

__all__ = [
    "Estimate",
    "MlmcPlan",
    "LevelStat",
    "lambda_constant",
    "mc_price",
    "mlmc_plan",
    "mlmc_price",
    "level_statistics",
]

# Fixed internal seed for pilot constant estimation, so that plans are a
# deterministic function of their arguments.
_PILOT_SEED = 1405
_PILOT_LEVELS = 4
_PILOT_PROBE_M = 10_000
# Where a plan's constants may come from (see :func:`mlmc_plan`).
PLAN_CONSTANTS = ("auto", "closed-form", "pilot")


@dataclass(frozen=True)
class Estimate:
    """A priced quantity.

    Attributes
    ----------
    value : float
        Price estimate.
    std_error : float
        Sample standard error of the estimator.
    cost : float
        Normalized cost units (n^2 per sample at grid size n).
    samples_used : tuple
        Sample count per level (single entry for plain MC).
    scheme : SchemeKind
        Discretization used.
    cv_used : bool
        Whether the control variate was applied.
    bias_proxy : float or None
        For multilevel runs, |mean of the last correction level|;
        diagnostic only.
    """

    value: float
    std_error: float
    cost: float
    samples_used: tuple
    scheme: SchemeKind
    cv_used: bool
    bias_proxy: float | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise UsageError("std_error must be >= 0")
        if self.cost <= 0:
            raise UsageError("cost must be > 0")
        if any(m < 1 for m in self.samples_used):
            raise UsageError("samples_used entries must be >= 1")


@dataclass(frozen=True)
class MlmcPlan:
    """A fully specified multilevel allocation.

    A plan is its base grid size `n0` and its per-level sample counts
    `m_levels`; the finest level :attr:`L` and the grids :attr:`n_levels`
    follow from them.  The other fields record where the counts came
    from: `lam` is the closed-form error constant when available (None
    when constants came from a pilot run), and `constants_source` is
    "closed-form" or "pilot", never "auto".
    """

    n0: int
    m_levels: tuple
    lam: float | None
    c1: float
    c2: float
    epsilon: float
    scheme: SchemeKind
    constants_source: str = "closed-form"

    def __post_init__(self):
        object.__setattr__(self, "n0", _whole(self.n0, 1, "n0"))
        _choice(self.scheme, SchemeKind, "scheme")
        _choice(self.constants_source, PLAN_CONSTANTS[1:], "constants_source")
        m_levels = _items(self.m_levels, "m_levels", lambda m: _whole(m, 1, "m_levels entry"))
        object.__setattr__(self, "m_levels", m_levels)
        if any(b > a for a, b in zip(m_levels, m_levels[1:])):
            raise UsageError("m_levels must be monotone nonincreasing")

    @property
    def L(self) -> int:
        """Index of the finest level, ``len(m_levels) - 1``."""
        return len(self.m_levels) - 1

    @property
    def n_levels(self) -> tuple:
        """Grid size of each level, ``n0 * 2**l``."""
        return tuple(self.n0 * 2**level for level in range(len(self.m_levels)))

    @property
    def cost(self) -> float:
        """Normalized cost ``sum_l M_l * n_l^2``."""
        return float(sum(_cost(n, m) for m, n in zip(self.m_levels, self.n_levels)))


@dataclass(frozen=True)
class LevelStat:
    """Empirical statistics of one multilevel correction level."""

    level: int
    n: int
    variance: float
    mean_correction: float

    @property
    def cost_per_sample(self) -> float:
        """Normalized cost of one sample, ``n^2``."""
        return float(_cost(self.n))


def _cost(n: int, m: int = 1) -> int:
    """Normalized cost of `m` samples at grid size `n`, ``n^2`` each, as an exact integer."""
    return n * n * m


def lambda_constant(params: ModelParams) -> float:
    """Exact leading constant of the rectangle scheme's L^2 error.

    ``Lambda = (exp(X0)/2) * sqrt(exp(eta^2 T^{2H}/(2H))
    + exp(eta^2 ((T+Delta)^{2H} - Delta^{2H})/(2H)) - 2 exp(eta^2 I))``
    with ``I`` the :func:`~roughvix.model.lambda_integral`.  Requires
    H in (0, 1/2) and a constant initial curve.
    """
    if not params.x0_is_constant:
        raise HypothesisError(
            "the closed-form error constant requires a constant initial curve; "
            "use pilot estimation instead"
        )
    if not (0.0 < params.H < 0.5):
        raise HypothesisError(
            f"the closed-form error constant requires H in (0, 1/2), got H={params.H}; "
            "use pilot estimation instead"
        )
    H, eta, T, Delta = params.H, params.eta, params.T, params.Delta
    x0 = params.x0_constant_value
    t1 = math.exp(eta**2 * T ** (2 * H) / (2 * H))
    t2 = math.exp(eta**2 * ((T + Delta) ** (2 * H) - Delta ** (2 * H)) / (2 * H))
    t3 = math.exp(eta**2 * lambda_integral(params))
    bracket = t1 + t2 - 2.0 * t3
    if bracket < -1e-9 * max(t1, t2):
        raise NumericError(f"error-constant bracket is negative: {bracket}")
    return 0.5 * math.exp(x0) * math.sqrt(max(bracket, 0.0))


class _MomentAccumulator:
    """Streaming mean/variance with a fixed shift and extended-precision totals.

    The shift (first batch mean) removes the catastrophic cancellation that
    a direct sum-of-squares accumulation would suffer when the variance is
    many orders of magnitude below the mean, as happens with the control
    variate.  Totals are combined with ``math.fsum`` so the result does not
    depend on the number of batches.
    """

    def __init__(self):
        self._shift = None
        self._linear = []
        self._square = []
        self._count = 0

    def add(self, values: np.ndarray) -> None:
        if self._shift is None:
            self._shift = float(values.mean())
        centered = values - self._shift
        self._linear.append(float(np.sum(centered)))
        self._square.append(float(np.sum(centered * centered)))
        self._count += values.size

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._shift + math.fsum(self._linear) / self._count

    @property
    def variance(self) -> float:
        if self._count < 2:
            return 0.0
        s1 = math.fsum(self._linear)
        s2 = math.fsum(self._square)
        return max(s2 - s1 * s1 / self._count, 0.0) / (self._count - 1)


def _sample_moments(scheme: SchemeKind, levels, seed: int, geometric: bool = False) -> list:
    """Mean/variance accumulators of each level's samples, from one kernel call.

    A level is a run ``(spec, m, key, coarse_steps)`` of
    :func:`~roughvix.sampler.vix2_runs` and a recipe ``sample(fine, coarse,
    cv)`` that turns the run's batch into the level's samples, calling
    payoffs by this module's names (perfbench's tracer rebinds them).
    :func:`mc_price` (one level), the multilevel levels and
    :func:`level_statistics` sample through this one kernel call; each
    level's accumulator takes its batches in batch order.
    """
    accs = [_MomentAccumulator() for _ in levels]
    batches = vix2_runs(scheme, [level[:4] for level in levels], seed, geometric)
    with closing(batches):
        for level, fine, coarse, cv in batches:
            accs[level].add(np.asarray(levels[level][4](fine, coarse, cv)))
    return accs


def _multilevel(payoff: Payoff, params: ModelParams, grids, counts, prefix: tuple) -> list:
    """The multilevel levels of :func:`_sample_moments`: `counts[l]` draws at `grids[l]`.

    Level 0 samples ``phi(fine)``; level ``l >= 1`` samples ``phi(fine) -
    phi(coarse)``, the coarse value read from the same draw at every 2nd
    grid point.  Level ``l`` draws on stream key ``(*prefix, l)``.
    """
    plain = lambda fine, coarse, cv: payoff_eval(payoff, fine)
    correction = lambda fine, coarse, cv: payoff_eval(payoff, fine) - payoff_eval(payoff, coarse[0])
    return [
        (gaussian_spec(params, n), m, (*prefix, level), (2,) if level else (),
         correction if level else plain)
        for level, (n, m) in enumerate(zip(grids, counts))
    ]


def _warn_if_degenerate(acc: _MomentAccumulator, spec: GaussianSpec, label: str):
    """Warn when `acc`'s samples of the law `spec` have a variance of exactly 0.

    A flat law (factor rank 0) is exact, so only a law of rank > 0 warns:
    there a variance of 0 means every sample came out the same, as when
    every draw underflows, and a standard error of 0 says nothing.
    """
    if acc.variance == 0.0 and spec.factor.rank > 0:
        warnings.warn(
            f"{label}: the sample variance of M={acc.count} samples at "
            f"n={spec.n} is exactly 0 under a law that is not flat; the "
            "standard error of 0 does not bound the estimate's error",
            DegenerateEstimateWarning,
            stacklevel=3,
        )


def _stream_key(stream_key) -> tuple:
    """`stream_key`, a list that may be empty, as a tuple; `stream_for` checks each item."""
    if isinstance(stream_key, (tuple, list)) and not stream_key:
        return ()
    return _items(stream_key, "stream_key", lambda item: item)


def mc_price(
    scheme: SchemeKind,
    n: int,
    M: int,
    payoff: Payoff,
    use_cv: bool,
    params: ModelParams,
    seed: int,
    stream_key: tuple = (),
) -> Estimate:
    """Plain Monte Carlo price from `M` i.i.d. samples at grid size `n`.

    With ``use_cv`` the control-variate-corrected payoff is averaged
    instead of the plain one.  ``stream_key`` prefixes the RNG spawn keys
    so that embedding experiments can guarantee stream independence.
    A sample variance of exactly 0 under a law that is not flat warns
    with :class:`~roughvix.errors.DegenerateEstimateWarning`.
    """
    M = _whole(M, 2, "M, the sample count")
    if not isinstance(use_cv, (bool, np.bool_)):
        raise UsageError(f"use_cv must be a bool, got use_cv={use_cv!r}")
    stream_key = _stream_key(stream_key)
    spec = gaussian_spec(params, n)
    if use_cv:
        cv_n = cv_price(payoff, cv_moments(spec, scheme))
        sample = lambda fine, coarse, cv: cv_corrected_payoff(payoff, fine, cv, cv_n)
    else:
        sample = lambda fine, coarse, cv: payoff_eval(payoff, fine)
    level = (spec, M, (*stream_key, DOMAIN_MC), (), sample)
    (acc,) = _sample_moments(scheme, [level], seed, geometric=use_cv)
    _warn_if_degenerate(acc, spec, "mc_price")
    return Estimate(
        value=acc.mean,
        std_error=math.sqrt(acc.variance / M),
        cost=float(_cost(spec.n, M)),
        samples_used=(M,),
        scheme=scheme,
        cv_used=bool(use_cv),
    )


def _remark_allocation(epsilon: float, c1: float, c2: float) -> tuple:
    """The closed-form (L, M0) allocation for a target RMSE `epsilon`."""
    if c1 > 0:
        levels = max(0, math.ceil(math.log(math.sqrt(2.0) * c1 / epsilon) / math.log(2.0)))
    else:
        levels = 0
    m0 = max(1, math.ceil(2.0 * epsilon**-2 * c2 * (levels + 1)))
    return levels, m0


def _level_decay(scheme: SchemeKind, params: ModelParams) -> float:
    """Per-level decay exponent of the sample counts."""
    return 2.0 if scheme is SchemeKind.RECTANGLE else 2.0 + params.H


def mlmc_plan(
    epsilon: float,
    n0: int,
    scheme: SchemeKind,
    payoff: Payoff,
    params: ModelParams,
    constants: str = "auto",
) -> MlmcPlan:
    """Build the multilevel allocation for a target RMSE `epsilon`.

    `constants` selects where (c1, c2) come from: "closed-form" insists on
    the exact error constant (raises when its hypotheses fail), "pilot"
    always estimates them from a probe run, and "auto" prefers the closed
    form with a pilot fallback.  The trapezoid scheme reuses the
    rectangle-based (L, M0) and only changes the per-level decay.  Every
    level gets at least 2 samples, the least that has a sample variance
    (as ``mc_price`` requires ``M >= 2``).
    """
    epsilon = _real(epsilon, "epsilon", _POSITIVE)
    n0 = _whole(n0, 1, "n0")
    scheme = _choice(scheme, SchemeKind, "scheme")
    constants = _choice(constants, PLAN_CONSTANTS, "constants")

    lam = None
    if constants != "pilot":
        try:
            lam = lambda_constant(params)
            lphi = lipschitz_constant(payoff)
        except HypothesisError:
            if constants == "closed-form":
                raise
            lam = None
    if lam is not None:
        c1 = lphi * lam / n0
        c2 = 10.0 * lphi**2 * lam**2 / n0**2
        source = "closed-form"
    else:
        c1, c2 = _pilot_constants(n0, payoff, params)
        source = "pilot"

    levels, m0 = _remark_allocation(epsilon, c1, c2)
    decay = _level_decay(scheme, params)
    m_levels = tuple(
        max(2, math.ceil(m0 * 2.0 ** (-decay * level))) for level in range(levels + 1)
    )
    return MlmcPlan(
        n0=n0,
        m_levels=m_levels,
        lam=lam,
        c1=c1,
        c2=c2,
        epsilon=epsilon,
        scheme=scheme,
        constants_source=source,
    )


def mlmc_price(
    plan: MlmcPlan,
    payoff: Payoff,
    params: ModelParams,
    seed: int,
    stream_key: tuple = (),
) -> Estimate:
    """Run the multilevel estimator described by `plan`.

    Level 0 averages plain payoffs on the base grid; level l >= 1 averages
    coupled corrections on independent streams.  The reported standard
    error is ``sqrt(sum_l V_l / M_l)`` from the same run.  A level whose
    sample variance is exactly 0 under a law that is not flat warns with
    :class:`~roughvix.errors.DegenerateEstimateWarning`.
    """
    stream_key = _stream_key(stream_key)
    levels = _multilevel(payoff, params, plan.n_levels, plan.m_levels, (*stream_key, DOMAIN_MLMC))
    accs = _sample_moments(plan.scheme, levels, seed)
    value = variance_total = 0.0
    for level, (acc, (spec, m, *_)) in enumerate(zip(accs, levels)):
        _warn_if_degenerate(acc, spec, f"mlmc_price level {level}")
        value += acc.mean
        variance_total += acc.variance / m
    return Estimate(
        value=value,
        std_error=math.sqrt(variance_total),
        cost=plan.cost,
        samples_used=plan.m_levels,
        scheme=plan.scheme,
        cv_used=False,
        bias_proxy=abs(accs[-1].mean) if plan.L >= 1 else None,
    )


def level_statistics(
    scheme: SchemeKind,
    n0: int,
    L: int,
    payoff: Payoff,
    params: ModelParams,
    probe_M: int,
    seed: int,
) -> tuple:
    """Empirical per-level variances and mean corrections.

    Draws `probe_M` samples at each level ``0..L`` on the grids
    ``n0 * 2**l`` (on stream keys ``(DOMAIN_PILOT, l)``, independent of
    :func:`mlmc_price` runs), all levels in one kernel call, and reports a
    :class:`LevelStat` per level.  The pilot reads its constants from it.
    """
    n0 = _whole(n0, 1, "n0")
    grids = [n0 * 2**level for level in range(_whole(L, 0, "L") + 1)]
    probe_M = _whole(probe_M, 100, "probe_M, the sample count")
    levels = _multilevel(payoff, params, grids, [probe_M] * len(grids), (DOMAIN_PILOT,))
    accs = _sample_moments(scheme, levels, seed)
    return tuple(
        LevelStat(level=level, n=n, variance=acc.variance, mean_correction=acc.mean)
        for level, (n, acc) in enumerate(zip(grids, accs))
    )


def _pilot_constants(n0: int, payoff: Payoff, params: ModelParams) -> tuple:
    """Estimate (c1, c2) from a probe run of rectangle corrections.

    Fits ``|mean correction| ~ c1 * 2^-l`` and ``variance ~ c2 * 2^-2l``
    over correction levels ``1.._PILOT_LEVELS`` of
    :func:`level_statistics`, taking medians across levels for
    robustness.  Uses a fixed internal seed so plans stay deterministic.
    """
    stats = level_statistics(
        SchemeKind.RECTANGLE, n0, _PILOT_LEVELS, payoff, params, _PILOT_PROBE_M, _PILOT_SEED
    )[1:]
    c1 = float(np.median([abs(s.mean_correction) * 2.0**s.level for s in stats]))
    c2 = float(np.median([s.variance * 4.0**s.level for s in stats]))
    if c1 <= 0 or c2 <= 0:
        raise NumericError(
            "pilot run produced degenerate constants; the model may be deterministic"
        )
    return c1, c2
