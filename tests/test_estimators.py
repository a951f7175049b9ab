"""Plain and multilevel Monte Carlo estimators and their allocations."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from roughvix import (
    DegenerateEstimateWarning,
    HypothesisError,
    MlmcPlan,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    X0Curve,
    gaussian_spec,
    lambda_constant,
    level_statistics,
    mc_price,
    mlmc_plan,
    mlmc_price,
    payoff_eval,
    stream_for,
)
from roughvix.errors import NumericError
from roughvix.estimators import Estimate, _sample_moments
from roughvix.payoffs import cv_corrected_payoff, cv_moments, cv_price
from roughvix.sampler import DOMAIN_MC, DOMAIN_MLMC, vix2_batches

from oracles import exact_scheme_mean, geometric_vix2, oracle_batches, sample_fine

X0 = math.log(0.235**2)
PA = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
FLAT = ModelParams(H=0.3, eta=0.0, T=0.25, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)
FUTURE = Payoff(PayoffKind.FUTURE)


# --- error constant ---------------------------------------------------------


def test_error_constant_frozen_values():
    assert lambda_constant(PA) == pytest.approx(0.0033044217073904644, rel=1e-13)
    assert lambda_constant(PB) == pytest.approx(0.02857145435432889, rel=1e-13)


def test_error_constant_degenerate_and_invalid_inputs():
    assert lambda_constant(FLAT) == 0.0
    with pytest.raises(HypothesisError):
        lambda_constant(ModelParams(H=0.5, eta=0.5, T=0.5, Delta=0.1, x0=0.0))
    with pytest.raises(HypothesisError):
        lambda_constant(ModelParams(H=0.7, eta=0.5, T=0.5, Delta=0.1, x0=0.0))
    curve = X0Curve(knots=(0.5, 0.55), values=(-2.9, -2.8))
    with pytest.raises(HypothesisError):
        lambda_constant(ModelParams(H=0.1, eta=0.5, T=0.5, Delta=0.1, x0=curve))


def test_error_constant_bracket_never_negative():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = ModelParams(
            H=float(rng.uniform(0.02, 0.48)),
            eta=float(rng.uniform(0.0, 2.0)),
            T=float(rng.uniform(0.05, 2.0)),
            Delta=float(rng.uniform(1.0 / 24.0, 0.5)),
            x0=float(rng.uniform(-4.0, 0.0)),
        )
        assert lambda_constant(params) >= 0.0


# --- plain Monte Carlo ------------------------------------------------------


def test_mc_price_flat_model_is_exact():
    expected = math.exp(X0 / 2) - 0.1
    for use_cv in (False, True):
        est = mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, use_cv, FLAT, seed=0)
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.std_error == 0.0
        assert est.cost == 16 * 10
        assert est.samples_used == (10,)


def test_mc_price_mean_matches_exact_discrete_expectation():
    # The future payoff's expectation at a fixed grid has a closed form;
    # a plain MC run must land within 4 standard errors of it.
    n, M = 6, 40_000
    exact = exact_scheme_mean(gaussian_spec(PB, n), "rect")
    # E[sqrt] != sqrt(E[.]), so use the identity payoff via vix^2 == future^2:
    # price the square by evaluating the scheme value directly.
    spec = gaussian_spec(PB, n)
    draws = [fine for fine, _, _ in vix2_batches(SchemeKind.RECTANGLE, spec, M, 123, (DOMAIN_MC,))]
    values = np.concatenate(draws)
    se = float(np.std(values, ddof=1)) / math.sqrt(M)
    assert float(np.mean(values)) == pytest.approx(exact, abs=4 * se)


def test_mc_price_determinism_and_stream_key():
    a = mc_price(SchemeKind.RECTANGLE, 8, 500, CALL, True, PB, seed=3)
    b = mc_price(SchemeKind.RECTANGLE, 8, 500, CALL, True, PB, seed=3)
    c = mc_price(SchemeKind.RECTANGLE, 8, 500, CALL, True, PB, seed=3, stream_key=(9,))
    assert a.value == b.value and a.std_error == b.std_error
    assert c.value != a.value


def _public_moments(draws):
    """Shifted, exactly summed moments, as the estimators accumulate them."""
    shift = None
    linear, square = [], []
    count = 0
    for values in draws:
        values = np.asarray(values)
        if shift is None:
            shift = float(values.mean())
        centered = values - shift
        linear.append(float(np.sum(centered)))
        square.append(float(np.sum(centered * centered)))
        count += values.size
    mean = shift + math.fsum(linear) / count
    var = max(math.fsum(square) - math.fsum(linear) ** 2 / count, 0.0) / (count - 1)
    return mean, var


def test_mc_price_reconstructs_from_the_stream_contract():
    # The kernel's draws under the documented key (seed, *key, domain=1),
    # batch by batch over the fixed partition, and the shifted
    # accumulation must reproduce the estimate bit for bit, including
    # across multiple batches.
    n, M, seed = 6, 70_000, 9
    batches = vix2_batches(SchemeKind.RECTANGLE, gaussian_spec(PB, n), M, seed, (DOMAIN_MC,))
    draws = [payoff_eval(CALL, fine) for fine, _, _ in batches]
    mean, var = _public_moments(draws)

    est = mc_price(SchemeKind.RECTANGLE, n, M, CALL, False, PB, seed=seed)
    assert est.value == mean
    assert est.std_error == math.sqrt(var / M)


@pytest.mark.parametrize("H", [0.05, 0.1])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_mc_price_is_finite_at_large_vol_of_vol(scheme, H):
    # At eta = 20 a draw's grid values lie far below zero and spread over
    # more than a thousand units, so exp(X_i - X_0) can overflow where
    # every exp(X_i) is finite or 0: the kernel subtracts exp(X_0) after
    # the exponential, not X_0 before it.  A RuntimeWarning (overflow, or
    # 0 * inf) fails the test.  Every draw's VIX^2 is below 1e-100 here, so
    # every payoff (and control variate) is the same and the estimate warns
    # that its standard error of 0 is degenerate.
    params = ModelParams(H=H, eta=20.0, T=0.5, Delta=1.0 / 12.0, x0=X0)
    for use_cv in (False, True):
        with pytest.warns(DegenerateEstimateWarning, match="M=2000 samples at n=250"):
            est = mc_price(scheme, 250, 2_000, CALL, use_cv, params, seed=1)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert est.std_error == 0.0


def test_mlmc_price_warns_for_each_degenerate_level():
    params = ModelParams(H=0.1, eta=20.0, T=0.5, Delta=1.0 / 12.0, x0=X0)
    plan = MlmcPlan(
        n0=6,
        m_levels=(300, 100),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.01,
        scheme=SchemeKind.RECTANGLE,
    )
    with pytest.warns(DegenerateEstimateWarning) as record:
        est = mlmc_price(plan, CALL, params, seed=1)
    assert est.std_error == 0.0
    assert [str(w.message).split(":")[0] for w in record] == [
        "mlmc_price level 0",
        "mlmc_price level 1",
    ]
    assert "M=300 samples at n=6" in str(record[0].message)
    assert "M=100 samples at n=12" in str(record[1].message)


def test_flat_model_estimates_do_not_warn():
    # A rank-0 law is exact: its variance of 0 is the truth, not a symptom.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateEstimateWarning)
        for use_cv in (False, True):
            assert mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, use_cv, FLAT, seed=0).std_error == 0
        plan = mlmc_plan(0.01, 6, SchemeKind.RECTANGLE, CALL, FLAT)
        assert mlmc_price(plan, CALL, FLAT, seed=0).std_error == 0


def test_mc_price_validation():
    with pytest.raises(UsageError):
        mc_price(SchemeKind.RECTANGLE, 0, 10, CALL, False, PB, seed=0)
    with pytest.raises(UsageError):
        mc_price(SchemeKind.RECTANGLE, 4, 1, CALL, False, PB, seed=0)


# --- allocations ------------------------------------------------------------

# (epsilon, L, M0, rectangle m_levels, rectangle cost,
#  trapezoid m_levels, trapezoid cost) for the H=0.1 protocol with n0=6.
FROZEN_PLANS = [
    (0.04, 0, 8, (8,), 288.0, (8,), 288.0),
    (0.02, 1, 57, (57, 15), 4212.0, (57, 14), 4068.0),
    (0.01, 2, 341, (341, 86, 22), 37332.0, (341, 80, 19), 34740.0),
    (0.005, 3, 1815, (1815, 454, 114, 29), 263196.0, (1815, 424, 99, 24), 238716.0),
]


@pytest.mark.parametrize("eps,L,M0,m_rect,cost_rect,m_trap,cost_trap", FROZEN_PLANS)
def test_plan_frozen_allocations(eps, L, M0, m_rect, cost_rect, m_trap, cost_trap):
    rect = mlmc_plan(eps, 6, SchemeKind.RECTANGLE, CALL, PB)
    assert rect.L == L
    assert rect.m_levels[0] == M0
    assert rect.m_levels == m_rect
    assert rect.cost == cost_rect
    assert rect.constants_source == "closed-form"
    assert rect.lam == pytest.approx(0.02857145435432889, rel=1e-13)

    trap = mlmc_plan(eps, 6, SchemeKind.TRAPEZOID, CALL, PB)
    assert (trap.L, trap.m_levels[0]) == (L, M0)  # reuses the rectangle pair
    assert trap.m_levels == m_trap
    assert trap.cost == cost_trap


def test_plan_single_level_at_the_bias_threshold():
    lam = lambda_constant(PB)
    c1 = lipschitz = (1.0 / 0.2) * lam / 6
    plan = mlmc_plan(math.sqrt(2.0) * c1, 6, SchemeKind.RECTANGLE, CALL, PB)
    assert plan.L == 0


def test_plan_cost_identities_with_ceilings():
    for eps in (0.02, 0.01, 0.005):
        rect = mlmc_plan(eps, 6, SchemeKind.RECTANGLE, CALL, PB)
        ideal = 36 * rect.m_levels[0] * (rect.L + 1)
        assert abs(rect.cost - ideal) <= (rect.L + 1) * rect.n_levels[-1] ** 2

        trap = mlmc_plan(eps, 6, SchemeKind.TRAPEZOID, CALL, PB)
        H = PB.H
        ratio = (1 - 2.0 ** (-H * (trap.L + 1))) / (1 - 2.0**-H)
        ideal_trap = 36 * trap.m_levels[0] * ratio
        assert abs(trap.cost - ideal_trap) <= (trap.L + 1) * trap.n_levels[-1] ** 2


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_plan_refuses_a_non_finite_target(epsilon):
    with pytest.raises(UsageError, match="epsilon"):
        mlmc_plan(epsilon, 6, SchemeKind.RECTANGLE, CALL, PB)


def test_plan_validation():
    with pytest.raises(UsageError):
        mlmc_plan(0.0, 6, SchemeKind.RECTANGLE, CALL, PB)
    with pytest.raises(UsageError):
        mlmc_plan(0.01, 0, SchemeKind.RECTANGLE, CALL, PB)
    for n0 in [2.5, math.nan, math.inf]:
        with pytest.raises(UsageError, match="n0 must be an integer"):
            mlmc_plan(0.01, n0, SchemeKind.RECTANGLE, CALL, PB)
    plan = mlmc_plan(0.01, 6.0, SchemeKind.RECTANGLE, CALL, PB)
    assert plan == mlmc_plan(0.01, 6, SchemeKind.RECTANGLE, CALL, PB)
    assert all(type(n) is int for n in (plan.n0, *plan.n_levels))
    with pytest.raises(UsageError):
        mlmc_plan(0.01, 6, SchemeKind.RECTANGLE, CALL, PB, constants="guess")
    fields = dict(lam=None, c1=1.0, c2=1.0, epsilon=0.1, scheme=SchemeKind.RECTANGLE)
    with pytest.raises(UsageError):
        MlmcPlan(n0=6, m_levels=(2, 4), **fields)
    with pytest.raises(UsageError, match="m_levels must not be empty"):
        MlmcPlan(n0=6, m_levels=(), **fields)
    for n0 in [2.5, 0, math.nan, math.inf]:
        with pytest.raises(UsageError, match="n0 must be an integer"):
            MlmcPlan(n0=n0, m_levels=(4, 2), **fields)
    for m in [2.5, math.nan, math.inf]:
        with pytest.raises(UsageError, match="m_levels entry must be an integer"):
            MlmcPlan(n0=6, m_levels=(m,), **fields)
    counts = MlmcPlan(n0=6, m_levels=(4.0, 2), **fields).m_levels
    assert counts == (4, 2) and all(type(m) is int for m in counts)
    # A plan built by hand derives its level count and grids like a built one.
    hand = MlmcPlan(n0=6.0, m_levels=(4, 2, 1), **fields)
    assert (hand.L, hand.n_levels) == (2, (6, 12, 24))
    assert all(type(n) is int for n in (hand.n0, *hand.n_levels))


def test_plan_pilot_fallback_when_closed_form_unavailable():
    smooth = ModelParams(H=0.6, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
    plan = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, smooth)
    assert plan.constants_source == "pilot"
    assert plan.lam is None
    assert plan.c1 > 0 and plan.c2 > 0
    assert all(m >= 1 for m in plan.m_levels)
    with pytest.raises(HypothesisError):
        mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, smooth, constants="closed-form")


def test_plan_pilot_is_deterministic():
    curve = X0Curve(knots=(0.5, 0.55), values=(X0, X0 + 0.3), mode="linear")
    bumpy = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=curve)
    p1 = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, bumpy)
    p2 = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, bumpy)
    assert p1 == p2
    assert p1.constants_source == "pilot"


def test_plan_pilot_for_non_lipschitz_payoff():
    plan = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, FUTURE, PB)
    assert plan.constants_source == "pilot"


def test_plan_floors_every_level_at_two_samples():
    # The pilot constants give this plan a single level whose closed-form
    # count is 1; one sample has no sample variance, so the standard
    # error would read 0.
    plan = mlmc_plan(2e-2, 6, SchemeKind.RECTANGLE, FUTURE, PB, constants="pilot")
    assert plan.m_levels[0] >= 2
    assert mlmc_price(plan, FUTURE, PB, seed=0).std_error > 0


# --- multilevel estimator ---------------------------------------------------


def test_mlmc_flat_model_is_exact_with_zero_corrections():
    plan = mlmc_plan(0.01, 6, SchemeKind.RECTANGLE, CALL, FLAT)
    assert plan.L == 0  # zero vol-of-vol has no bias at any grid
    est = mlmc_price(plan, CALL, FLAT, seed=0)
    assert est.value == pytest.approx(math.exp(X0 / 2) - 0.1, rel=1e-14)
    assert est.std_error == 0.0
    forced = MlmcPlan(
        n0=6,
        m_levels=(50, 30, 10),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.01,
        scheme=SchemeKind.RECTANGLE,
    )
    est2 = mlmc_price(forced, CALL, FLAT, seed=0)
    assert est2.value == pytest.approx(math.exp(X0 / 2) - 0.1, rel=1e-14)
    assert est2.bias_proxy == 0.0


def test_mlmc_single_level_agrees_with_plain_mc_in_law():
    plan = MlmcPlan(
        n0=6,
        m_levels=(20_000,),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.1,
        scheme=SchemeKind.RECTANGLE,
    )
    ml = mlmc_price(plan, CALL, PB, seed=0)
    mc = mc_price(SchemeKind.RECTANGLE, 6, 20_000, CALL, False, PB, seed=0)
    spread = math.hypot(ml.std_error, mc.std_error)
    assert abs(ml.value - mc.value) < 4 * spread
    assert ml.cost == 36 * 20_000
    assert ml.bias_proxy is None


def test_mlmc_telescopes_to_the_finest_grid_price():
    # Scaled-up sample counts shrink the MC noise enough to catch any
    # coupling or telescoping mistake against an independent plain run.
    plan = MlmcPlan(
        n0=6,
        m_levels=(60_000, 16_000, 4_000),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.01,
        scheme=SchemeKind.RECTANGLE,
    )
    ml = mlmc_price(plan, CALL, PB, seed=5)
    mc = mc_price(SchemeKind.RECTANGLE, 24, 150_000, CALL, True, PB, seed=6)
    spread = math.hypot(ml.std_error, mc.std_error)
    assert abs(ml.value - mc.value) < 4 * spread


def test_mlmc_cost_and_samples_reporting():
    plan = mlmc_plan(0.01, 6, SchemeKind.RECTANGLE, CALL, PB)
    est = mlmc_price(plan, CALL, PB, seed=1)
    assert est.cost == plan.cost
    assert est.samples_used == plan.m_levels
    assert est.scheme is SchemeKind.RECTANGLE
    assert not est.cv_used
    assert est.bias_proxy is not None and est.bias_proxy >= 0


def test_mlmc_determinism():
    plan = mlmc_plan(0.02, 6, SchemeKind.TRAPEZOID, CALL, PB)
    e1 = mlmc_price(plan, CALL, PB, seed=4)
    e2 = mlmc_price(plan, CALL, PB, seed=4)
    assert (e1.value, e1.std_error) == (e2.value, e2.std_error)


# --- level statistics -------------------------------------------------------


def test_level_statistics_flat_model_has_zero_corrections():
    plan = MlmcPlan(
        n0=6,
        m_levels=(200, 200, 200, 200),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.1,
        scheme=SchemeKind.RECTANGLE,
    )
    stats = level_statistics(plan, CALL, FLAT, probe_M=200, seed=0)
    assert len(stats) == 4
    for s in stats[1:]:
        assert s.variance == 0.0
        assert s.mean_correction == 0.0
    assert stats[2].cost_per_sample == 24**2


def test_level_statistics_validation():
    plan = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, PB)
    with pytest.raises(UsageError):
        level_statistics(plan, CALL, PB, probe_M=99, seed=0)


def test_level_variances_decay_with_refinement():
    plan = MlmcPlan(
        n0=6,
        m_levels=(500, 500, 500, 500),
        lam=None,
        c1=1.0,
        c2=1.0,
        epsilon=0.1,
        scheme=SchemeKind.RECTANGLE,
    )
    stats = level_statistics(plan, CALL, PB, probe_M=4000, seed=2)
    variances = [s.variance for s in stats[1:]]
    assert all(b < a for a, b in zip(variances, variances[1:]))


# --- estimate container -----------------------------------------------------


def test_estimate_validation():
    with pytest.raises(UsageError):
        Estimate(
            value=1.0,
            std_error=-1.0,
            cost=1.0,
            samples_used=(1,),
            scheme=SchemeKind.RECTANGLE,
            cv_used=False,
        )
    with pytest.raises(UsageError):
        Estimate(
            value=1.0,
            std_error=0.0,
            cost=0.0,
            samples_used=(1,),
            scheme=SchemeKind.RECTANGLE,
            cv_used=False,
        )


# --- the batch kernel against the one-pass oracle ----------------------------

# Largest relative difference allowed between the kernel's VIX^2 and the
# one-pass oracle's: the two form the draw and sum the grid by different
# arithmetic (a row-blocked product and a shifted weight product, against
# mean + F G and a plain sum).  Measured at most 3.6e-15 over the cases
# below on a 2-core x86-64 host with OpenBLAS.
KERNEL_ORACLE_RTOL = 2e-14


def _assert_close_batches(kernel, oracle):
    count = 0
    for (fine, coarse, cv), (fine_ref, coarse_ref, cv_ref) in zip(kernel, oracle, strict=True):
        np.testing.assert_allclose(fine, fine_ref, rtol=KERNEL_ORACLE_RTOL, atol=0)
        for c, c_ref in zip(coarse, coarse_ref, strict=True):
            np.testing.assert_allclose(c, c_ref, rtol=KERNEL_ORACLE_RTOL, atol=0)
        # The control variate is the same arithmetic on the same normals.
        assert cv is None or np.array_equal(cv, cv_ref)
        count += np.size(fine)
    return count


# (n, total): every grid at batch widths 1, 3, 179 and 2365 (the odd fig3
# remainder), and full 32768-wide batches followed by a remainder batch
# that reuses the first batch's block.
KERNEL_CASES = [
    *((n, total) for n in (6, 12, 250, 768) for total in (1, 3, 179, 2365)),
    (6, 32_768 + 3),
    (12, 32_768),
    (250, 32_768 + 179),
]


@pytest.mark.parametrize("n,total", KERNEL_CASES)
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_batch_kernel_matches_the_one_pass_oracle(scheme, n, total):
    # Fine grid, the level coarse grid (every second point) and the
    # control variate, per draw, against the one-pass oracle.
    spec = gaussian_spec(PB, n)
    key = (DOMAIN_MLMC, 1)
    kernel = vix2_batches(scheme, spec, total, 17, key, coarse_steps=(2,), geometric=True)
    oracle = oracle_batches(scheme, spec, total, 17, key, coarse_steps=(2,))
    assert _assert_close_batches(kernel, oracle) == total


@pytest.mark.parametrize("n", [6, 14, 250, 768])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_sampled_control_variate_agrees_with_the_grid_average(scheme, n):
    # The kernel's exp(w.mu + (F^T w).G) and geometric_vix2 of the same
    # draws compute one Gaussian functional by two sums of different
    # length; they differ by rounding only.
    spec = gaussian_spec(PB, n)
    total, seed, key = 2365, 21, (DOMAIN_MC,)
    ((_, _, cv),) = vix2_batches(scheme, spec, total, seed, key, geometric=True)
    sample = sample_fine(spec.factor, spec.mean, stream_for(seed, *key, 0), size=total)
    grid = geometric_vix2(sample.values, scheme)
    bound = (n + 1) * 2.0**-53 * np.max(np.abs(sample.values))
    assert np.all(np.abs(cv - grid) <= bound * grid)


@pytest.mark.parametrize("use_cv", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_mc_price_accumulates_the_kernel_values(scheme, use_cv):
    # mc_price is the shifted accumulation of the kernel's per-batch
    # values, bit for bit, across a full batch and a remainder batch.
    n, M, seed = 250, 32_768 + 179, 4
    spec = gaussian_spec(PB, n)
    cv_n = cv_price(CALL, cv_moments(spec, scheme))
    draws = (
        cv_corrected_payoff(CALL, fine, cv, cv_n) if use_cv else payoff_eval(CALL, fine)
        for fine, _, cv in vix2_batches(scheme, spec, M, seed, (DOMAIN_MC,), geometric=use_cv)
    )
    mean, var = _public_moments(draws)
    est = mc_price(scheme, n, M, CALL, use_cv, PB, seed=seed)
    assert est.value.hex() == mean.hex()
    assert est.std_error.hex() == math.sqrt(var / M).hex()


@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_level_moments_accumulate_the_kernel_values(scheme, level):
    n0, m, seed, key = 6, 2365, 8, (5,)
    spec = gaussian_spec(PB, n0 * 2**level)
    steps = (2,) if level > 0 else ()
    draws = (
        payoff_eval(CALL, fine) - (payoff_eval(CALL, coarse[0]) if level > 0 else 0.0)
        for fine, coarse, _ in vix2_batches(
            scheme, spec, m, seed, (*key, DOMAIN_MLMC, level), coarse_steps=steps
        )
    )
    mean, var = _public_moments(draws)
    acc = _sample_moments(
        scheme, CALL, spec, m, seed, (*key, DOMAIN_MLMC, level), coupled=level > 0
    )
    assert acc.mean.hex() == mean.hex()
    assert acc.variance.hex() == var.hex()


def test_seeded_prices_are_pinned():
    # The seeded ref-b price with the control variate, and the fig3 plans
    # at eps = 2e-3 without it (docs/formats.md lists their past values).
    est = mc_price(SchemeKind.RECTANGLE, 250, 200_000, CALL, True, PB, seed=3)
    assert (est.value.hex(), est.std_error.hex()) == (
        "0x1.f39c4e075c93ap-4",
        "0x1.8eed5ce9b6132p-20",
    )
    pinned = {
        SchemeKind.RECTANGLE: ("0x1.f375299ff7827p-4", "0x1.312fd4ad07e8ap-11"),
        SchemeKind.TRAPEZOID: ("0x1.f2167270463eap-4", "0x1.3d6c47ce15293p-11"),
    }
    for scheme, expected in pinned.items():
        plan = mlmc_plan(2e-3, 6, scheme, CALL, PB)
        est = mlmc_price(plan, CALL, PB, seed=3)
        assert (est.value.hex(), est.std_error.hex()) == expected


@pytest.mark.parametrize("n", [250, 2000])
def test_mc_price_holds_one_row_block(n):
    # 32768 draws with the control variate: one batch of width 32768 at
    # n = 250, four batches of width <= 8384 at n = 2000.  The draws are
    # formed, exponentiated and averaged a row block of <= 2^19 values
    # (4 MiB) at a time, so the call holds that block, the (r+1)-row
    # block of normals (3.75 MiB at n = 250, r = 14) and O(width)
    # vectors, never an (n+1) x width block (62.75 and 128 MiB here).
    M = 32_768
    gaussian_spec(PB, n)  # the cached law is not part of the batch
    tracemalloc.start()
    try:
        mc_price(SchemeKind.RECTANGLE, n, M, CALL, True, PB, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
