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
from roughvix.sampler import DOMAIN_MC, DOMAIN_MLMC, vix2_runs

from oracles import (
    exact_scheme_mean,
    exact_variance,
    geometric_vix2,
    oracle_batches,
    payoff_level,
    quadrature_weights,
    sample_fine,
)
from platform_note import pin_message

X0 = math.log(0.235**2)
PA = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
FLAT = ModelParams(H=0.3, eta=0.0, T=0.25, Delta=1.0 / 12.0, x0=X0)
SMOOTH = ModelParams(H=0.6, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
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
    batches = vix2_runs(SchemeKind.RECTANGLE, [(spec, M, (DOMAIN_MC,), ())], 123)
    draws = [fine for _, fine, _, _ in batches]
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
    batches = vix2_runs(SchemeKind.RECTANGLE, [(gaussian_spec(PB, n), M, (DOMAIN_MC,), ())], seed)
    draws = [payoff_eval(CALL, fine) for _, fine, _, _ in batches]
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
    with pytest.raises(UsageError, match="grid step count must be an integer"):
        mc_price(SchemeKind.RECTANGLE, True, 100, CALL, False, PB, seed=0)
    for M in [2.5, math.nan, True]:
        with pytest.raises(UsageError, match="M, the sample count must be an integer >= 2"):
            mc_price(SchemeKind.RECTANGLE, 4, M, CALL, False, PB, seed=0)
    whole = mc_price(SchemeKind.RECTANGLE, 4, 1000.0, CALL, False, PB, seed=0)
    assert whole == mc_price(SchemeKind.RECTANGLE, 4, 1000, CALL, False, PB, seed=0)
    assert type(whole.samples_used[0]) is int


def test_mc_price_takes_only_a_bool_for_use_cv():
    for use_cv in ["no", 0, 1, None]:
        with pytest.raises(UsageError, match="use_cv must be a bool"):
            mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, use_cv, PB, seed=0)
    est = mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, np.True_, PB, seed=0)
    assert est == mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, True, PB, seed=0)
    assert est.cv_used is True


# Not an integer in [0, 2^64): None would draw OS entropy, a bool or an
# integral float would pass as an integer.
BAD_SEEDS = [None, True, False, -1, 2**64, 1.5, 3.0, "3", np.float64(2.0)]
SMALL_PLAN = MlmcPlan(
    n0=6, m_levels=(20, 10), lam=None, c1=1.0, c2=1.0, epsilon=0.01,
    scheme=SchemeKind.RECTANGLE,
)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_every_estimate_refuses_a_seed_that_is_not_a_64_bit_integer(seed):
    with pytest.raises(UsageError, match="an integer seed"):
        mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=seed)
    with pytest.raises(UsageError, match="an integer seed"):
        mlmc_price(SMALL_PLAN, CALL, PB, seed=seed)
    with pytest.raises(UsageError, match="an integer seed"):
        level_statistics(SchemeKind.RECTANGLE, 6, 1, CALL, PB, 100, seed)


@pytest.mark.parametrize("key", [(-1,), (1.5,), (True,), (1, -2), ("1",)], ids=repr)
def test_every_estimate_refuses_a_stream_key_that_is_not_of_whole_numbers(key):
    with pytest.raises(UsageError, match="integer key items >= 0"):
        mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=0, stream_key=key)
    with pytest.raises(UsageError, match="integer key items >= 0"):
        mlmc_price(SMALL_PLAN, CALL, PB, seed=0, stream_key=key)


@pytest.mark.parametrize("key", [5, None, "12", np.int64(5)], ids=repr)
def test_every_estimate_refuses_a_stream_key_that_is_no_list(key):
    with pytest.raises(UsageError, match="stream_key must be a list"):
        mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=0, stream_key=key)
    with pytest.raises(UsageError, match="stream_key must be a list"):
        mlmc_price(SMALL_PLAN, CALL, PB, seed=0, stream_key=key)


def test_an_empty_stream_key_is_the_default_and_a_list_is_a_tuple():
    mc = mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=0)
    assert mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=0, stream_key=[]) == mc
    ml = mlmc_price(SMALL_PLAN, CALL, PB, seed=0)
    assert mlmc_price(SMALL_PLAN, CALL, PB, seed=0, stream_key=[]) == ml
    assert mlmc_price(SMALL_PLAN, CALL, PB, seed=0, stream_key=[7]) == mlmc_price(
        SMALL_PLAN, CALL, PB, seed=0, stream_key=(7,)
    )


def test_numpy_integer_seeds_and_keys_price_as_python_integers():
    for seed in (0, 2**64 - 1):
        expect = mc_price(SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=seed, stream_key=(7,))
        got = mc_price(
            SchemeKind.RECTANGLE, 4, 10, CALL, False, PB, seed=np.uint64(seed),
            stream_key=(np.int64(7),),
        )
        assert got.value == expect.value
    assert mlmc_price(SMALL_PLAN, CALL, PB, seed=np.int32(5)) == mlmc_price(
        SMALL_PLAN, CALL, PB, seed=5
    )


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
    with pytest.raises(UsageError, match="epsilon"):
        mlmc_plan(True, 6, SchemeKind.RECTANGLE, CALL, PB)
    with pytest.raises(UsageError):
        mlmc_plan(0.01, 0, SchemeKind.RECTANGLE, CALL, PB)
    for n0 in [2.5, math.nan, math.inf, True]:
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
    for n0 in [2.5, 0, math.nan, math.inf, True]:
        with pytest.raises(UsageError, match="n0 must be an integer"):
            MlmcPlan(n0=n0, m_levels=(4, 2), **fields)
    for m in [2.5, math.nan, math.inf, True]:
        with pytest.raises(UsageError, match="m_levels entry must be an integer"):
            MlmcPlan(n0=6, m_levels=(m,), **fields)
    counts = MlmcPlan(n0=6, m_levels=(4.0, 2), **fields).m_levels
    assert counts == (4, 2) and all(type(m) is int for m in counts)
    # A plan built by hand derives its level count and grids like a built one.
    hand = MlmcPlan(n0=6.0, m_levels=(4, 2, 1), **fields)
    assert (hand.L, hand.n_levels) == (2, (6, 12, 24))
    assert all(type(n) is int for n in (hand.n0, *hand.n_levels))


def test_plan_pilot_fallback_when_closed_form_unavailable():
    plan = mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, SMOOTH)
    assert plan.constants_source == "pilot"
    assert plan.lam is None
    assert plan.c1 > 0 and plan.c2 > 0
    assert all(m >= 1 for m in plan.m_levels)
    with pytest.raises(HypothesisError):
        mlmc_plan(0.02, 6, SchemeKind.RECTANGLE, CALL, SMOOTH, constants="closed-form")


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


# Pilot plans as hex: the pilot's constants are medians of seeded
# correction levels, so any change to its streams or accumulation order
# moves these bits.
PILOT_PINS = [
    (1e-5, CALL, SMOOTH, "0x1.3bed66451b103p-16", "0x1.0340f92bd90f9p-25",
     (1811, 453, 114), (1811, 299, 50)),
    (2e-4, FUTURE, PB, "0x1.84c525e81e9c4p-11", "0x1.7d9df6f4a654ap-17",
     (2275, 569, 143, 36), (2275, 531, 124, 29)),
]


@pytest.mark.parametrize(
    "eps, payoff, params, c1, c2, m_rect, m_trap", PILOT_PINS, ids=["call-H0.6", "future-PB"]
)
def test_plan_pilot_frozen_bits(eps, payoff, params, c1, c2, m_rect, m_trap):
    for scheme, m_levels in ((SchemeKind.RECTANGLE, m_rect), (SchemeKind.TRAPEZOID, m_trap)):
        plan = mlmc_plan(eps, 6, scheme, payoff, params)
        assert plan.constants_source == "pilot"
        pinned = (c1, c2, m_levels)
        assert (plan.c1.hex(), plan.c2.hex(), plan.m_levels) == pinned, pin_message()


def test_pin_failures_name_their_platform():
    # The message is built only when a pin fails, so build it here once.
    message = pin_message()
    assert "pinned under OpenBLAS's SkylakeX kernels" in message
    assert "; numpy SIMD enabled: " in message


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
    stats = level_statistics(SchemeKind.RECTANGLE, 6, 3, CALL, FLAT, probe_M=200, seed=0)
    assert len(stats) == 4
    for s in stats[1:]:
        assert s.variance == 0.0
        assert s.mean_correction == 0.0
    assert stats[2].cost_per_sample == 24**2


def test_level_statistics_validation():
    message = "probe_M, the sample count must be an integer >= 100"
    for probe_M in (99, 150.5, math.nan, True):
        with pytest.raises(UsageError, match=message):
            level_statistics(SchemeKind.RECTANGLE, 6, 2, CALL, PB, probe_M=probe_M, seed=0)
    for n0 in (0, 2.5, True):
        with pytest.raises(UsageError, match="n0 must be an integer >= 1"):
            level_statistics(SchemeKind.RECTANGLE, n0, 2, CALL, PB, probe_M=100, seed=0)
    for L in (-1, 1.5, True):
        with pytest.raises(UsageError, match="L must be an integer >= 0"):
            level_statistics(SchemeKind.RECTANGLE, 6, L, CALL, PB, probe_M=100, seed=0)
    stats = level_statistics(SchemeKind.TRAPEZOID, 6.0, 0, CALL, PB, probe_M=100, seed=0)
    assert [(s.level, s.n) for s in stats] == [(0, 6)] and type(stats[0].n) is int


def test_level_variances_decay_with_refinement():
    stats = level_statistics(SchemeKind.RECTANGLE, 6, 3, CALL, PB, probe_M=4000, seed=2)
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
    for (_, fine, coarse, cv), (fine_ref, coarse_ref, cv_ref) in zip(kernel, oracle, strict=True):
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
    kernel = vix2_runs(scheme, [(spec, total, key, (2,))], 17, geometric=True)
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
    ((_, _, _, cv),) = vix2_runs(scheme, [(spec, total, key, ())], seed, geometric=True)
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
    batches = vix2_runs(scheme, [(spec, M, (DOMAIN_MC,), ())], seed, geometric=use_cv)
    draws = (
        cv_corrected_payoff(CALL, fine, cv, cv_n) if use_cv else payoff_eval(CALL, fine)
        for _, fine, _, cv in batches
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
        for _, fine, coarse, _ in vix2_runs(
            scheme, [(spec, m, (*key, DOMAIN_MLMC, level), steps)], seed
        )
    )
    mean, var = _public_moments(draws)
    levels = [payoff_level(CALL, spec, m, (*key, DOMAIN_MLMC, level), level > 0)]
    (acc,) = _sample_moments(scheme, levels, seed)
    assert acc.mean.hex() == mean.hex()
    assert acc.variance.hex() == var.hex()


@pytest.mark.parametrize("n", [6, 48])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_vix2_recipe_meets_its_exact_mean_and_variance(scheme, n):
    # On a flat curve the law's mean is x0 - Var/2 and the weights sum to 1,
    # so E[VIX^2_n] = e^{x0} exactly; its variance is the oracle's
    # w'^T expm1(C) w'.  The second level reads the same draws (same key)
    # and samples (VIX^2 - e^{x0})^2, whose variance is mu4 - sigma^4: the
    # standard error of a sample variance is sqrt((mu4 - sigma^4) / M).
    spec, M, xi0 = gaussian_spec(PB, n), 200_000, math.exp(X0)
    levels = [
        (spec, M, (4,), (), lambda fine, coarse, cv: fine),
        (spec, M, (4,), (), lambda fine, coarse, cv: (fine - xi0) ** 2),
    ]
    vix2, deviation = _sample_moments(scheme, levels, 21)
    assert abs(vix2.mean - xi0) <= 4 * math.sqrt(vix2.variance / M)
    exact = exact_variance(spec.mean, spec.cov, quadrature_weights(scheme.value, n, n))
    assert abs(vix2.variance - exact) <= 4 * math.sqrt(deviation.variance / M)


def test_a_call_of_two_recipes_gives_the_accumulators_of_one_call_each():
    levels = [
        (gaussian_spec(PB, 6), 9000, (1,), (), lambda fine, coarse, cv: fine),
        payoff_level(CALL, gaussian_spec(PB, 24), 3000, (2,), coupled=True),
    ]
    for scheme in SchemeKind:
        both = _sample_moments(scheme, levels, 4)
        alone = [_sample_moments(scheme, [level], 4)[0] for level in levels]
        bits = [[(a.count, a.mean.hex(), a.variance.hex()) for a in accs] for accs in (both, alone)]
        assert bits[0] == bits[1]


# A level shift x0 -> x0 + 2c multiplies every VIX^2 by e^{2c}, so a call
# at strike K e^c prices at e^c times the call at K, draw by draw.  Only
# rounding separates them, and the budget below was measured over c in
# {0.3, -0.7, 1.1, -2.5}, both schemes, mc_price with and without the
# control variate and mlmc_price.  Each VIX^2 carries a relative rounding
# of a few ulps: the value moved by at most 5.3 ulps, and may move by 16.
# The standard error comes from samples centred on their first batch's
# mean, so a rounding of each sample relative to that mean moves it by
# 1 + mean / spread times as much, the spread being the samples' standard
# deviation: it moved by at most 1.9 ulps times that, and may move by 16.
_SHIFT_ULPS = 16 * 2.0**-52


def _assert_scaled(shifted, base, scale, spread):
    assert shifted.value == pytest.approx(scale * base.value, rel=_SHIFT_ULPS, abs=0)
    amplification = 1 + abs(base.value) / spread
    assert shifted.std_error == pytest.approx(
        scale * base.std_error, rel=_SHIFT_ULPS * amplification, abs=0
    )


@pytest.mark.parametrize("c", [0.3, -0.7, -2.5])
@pytest.mark.parametrize("use_cv", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_a_level_shift_scales_the_mc_price(scheme, use_cv, c):
    M, K = 20_000, 0.2
    shifted_params = ModelParams(H=PB.H, eta=PB.eta, T=PB.T, Delta=PB.Delta, x0=X0 + 2 * c)
    base = mc_price(scheme, 64, M, Payoff(PayoffKind.CALL, K), use_cv, PB, seed=5)
    shifted = mc_price(
        scheme, 64, M, Payoff(PayoffKind.CALL, K * math.exp(c)), use_cv, shifted_params, seed=5
    )
    _assert_scaled(shifted, base, math.exp(c), base.std_error * math.sqrt(M))


@pytest.mark.parametrize("c", [0.3, -0.7, -2.5])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_a_level_shift_scales_the_mlmc_price(scheme, c):
    # A plan built by hand: a closed-form plan's constants scale with e^{x0}.
    plan = MlmcPlan(
        n0=6, m_levels=(20_000, 5_000, 1_250, 300), lam=None, c1=1.0, c2=1.0,
        epsilon=1e-3, scheme=scheme, constants_source="pilot",
    )
    shifted_params = ModelParams(H=PB.H, eta=PB.eta, T=PB.T, Delta=PB.Delta, x0=X0 + 2 * c)
    base = mlmc_price(plan, Payoff(PayoffKind.CALL, 0.2), PB, seed=5)
    shifted = mlmc_price(plan, Payoff(PayoffKind.CALL, 0.2 * math.exp(c)), shifted_params, seed=5)
    _assert_scaled(shifted, base, math.exp(c), base.std_error * math.sqrt(plan.m_levels[0]))


# Per sample, a call less a put at one strike is exactly VIX - K (one of the
# two is 0) and the future is VIX, so at one seed, where the three prices
# share their draws, call - put - (future - K) is rounding alone: that of
# each price's mean (its shift plus the fsum of its batches' pairwise sums)
# and, with the control variate, of the proxy's payoffs and closed-form
# prices.  Measured over seeds 1, 5 and 9, M in {4000, 2e4, 1e5}, both
# schemes, with and without the control variate: at most 1.1 ulps of the
# future's value.  The test allows 4, against standard errors of 4e-6 to
# 4e-4.
@pytest.mark.parametrize("use_cv", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_put_call_parity_holds_sample_by_sample(scheme, use_cv):
    n, M, K = 48, 20_000, 0.2
    call, put, future = (
        mc_price(scheme, n, M, payoff, use_cv, PB, seed=5)
        for payoff in (Payoff(PayoffKind.CALL, K), Payoff(PayoffKind.PUT, K), FUTURE)
    )
    gap = call.value - put.value - (future.value - K)
    assert abs(gap) <= 4 * math.ulp(future.value)


# (T, Delta, eta) -> (lam T, lam Delta, lam^-H eta) leaves the law unchanged,
# so the seeded prices agree up to rounding.  The two covariances agree to
# about 1e-14 of their largest entry, but the pivoted factor's smallest
# columns carry that rounding amplified, so at n = 64 each draw's VIX^2 and
# its control variate moved by up to 3e-9 relative, together.  The
# corrected samples cancel most of it: measured over H in {0.1, 0.3, 0.45},
# seeds 0 ... 11, both schemes and the lam and n below, the price moved by
# at most 1.6e-12 relative.  The test allows 1e-11; a change of rank or of
# pivot order moves it by about the standard error, 1e-4 relative.
@pytest.mark.parametrize("n", [6, 64, 250])
@pytest.mark.parametrize("lam", [0.01, 7.0])
def test_a_self_similar_law_gives_the_same_price(lam, n):
    scaled = ModelParams(
        H=PB.H, eta=PB.eta * lam**-PB.H, T=lam * PB.T, Delta=lam * PB.Delta, x0=PB.x0
    )
    for scheme in SchemeKind:
        base = mc_price(scheme, n, 4096, CALL, True, PB, seed=11)
        moved = mc_price(scheme, n, 4096, CALL, True, scaled, seed=11)
        assert moved.value == pytest.approx(base.value, rel=1e-11, abs=0)


def test_seeded_prices_are_pinned():
    # The seeded ref-b price with the control variate, and the fig3 plans
    # at eps = 2e-3 without it (docs/formats.md lists their past values).
    est = mc_price(SchemeKind.RECTANGLE, 250, 200_000, CALL, True, PB, seed=3)
    assert (est.value.hex(), est.std_error.hex()) == (
        "0x1.f39c4e075c93ap-4",
        "0x1.8eed5ce9b6132p-20",
    ), pin_message()
    pinned = {
        SchemeKind.RECTANGLE: ("0x1.f375299ff7827p-4", "0x1.312fd4ad07e8ap-11"),
        SchemeKind.TRAPEZOID: ("0x1.f2167270463eap-4", "0x1.3d6c47ce15293p-11"),
    }
    for scheme, expected in pinned.items():
        plan = mlmc_plan(2e-3, 6, scheme, CALL, PB)
        est = mlmc_price(plan, CALL, PB, seed=3)
        assert (est.value.hex(), est.std_error.hex()) == expected, pin_message()


def test_fig3_mlmc_prices_are_pinned():
    # The fig3 plans at eps = 5e-4: eight levels, n = 6 ... 768, level 0
    # in 12 batches, level 1 in 3 and every finer level in one, all in
    # one kernel call.
    pinned = {
        SchemeKind.RECTANGLE: (5, "0x1.f318e54c8c7b7p-4", "0x1.090fb3258e5c4p-13"),
        SchemeKind.TRAPEZOID: (6, "0x1.f4376df54ee70p-4", "0x1.13143db5ecbd3p-13"),
    }
    for scheme, (seed, value, std_error) in pinned.items():
        est = mlmc_price(mlmc_plan(5e-4, 6, scheme, CALL, PB), CALL, PB, seed=seed)
        assert (est.value.hex(), est.std_error.hex()) == (value, std_error), pin_message()


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
