"""Experiment drivers: error curves, MSE-cost tables, slope fitting, presets."""

import dataclasses
import json
import math

import numpy as np
import pytest

from roughvix import (
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    X0Curve,
    fit_loglog_slope,
    lambda_constant,
    mse_cost_curve,
    preset,
    strong_error_curve,
    weak_error_curve,
)
from roughvix.experiments import PRESET_NAMES, Z95
from roughvix.model import gaussian_spec
from roughvix.sampler import DOMAIN_EXPERIMENT, vix2_runs

from oracles import oracle_batches
from platform_note import pin_message

X0 = math.log(0.235**2)
PA = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
FLAT = ModelParams(H=0.3, eta=0.0, T=0.25, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)


# --- slope fitting ----------------------------------------------------------


def test_fit_recovers_exact_power_laws():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, intercept, r2 = fit_loglog_slope(x, 3.0 / x)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope2, _, _ = fit_loglog_slope(x, 0.5 / x**2)
    assert slope2 == pytest.approx(-2.0, abs=1e-12)


def test_fit_recovers_noisy_power_law():
    rng = np.random.default_rng(7)
    x = np.logspace(0, 3, 12)
    y = 2.0 * x**-1.3 * (1.0 + 0.01 * rng.standard_normal(12))
    slope, _, r2 = fit_loglog_slope(x, y)
    assert slope == pytest.approx(-1.3, abs=0.05)
    assert r2 > 0.999


def test_fit_validation():
    with pytest.raises(UsageError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UsageError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(UsageError):
        fit_loglog_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError, match="finite"):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, math.nan, 3.0])
    with pytest.raises(UsageError, match="finite"):
        fit_loglog_slope([1.0, math.inf, 3.0], [1.0, 2.0, 3.0])


# --- strong error -----------------------------------------------------------


def test_strong_error_requires_divisor_grid_and_enough_samples():
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (7,), 64, 2000, PB, seed=0)
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (64,), 64, 2000, PB, seed=0)
    for M in (999, 2000.5, math.nan, True):
        with pytest.raises(UsageError, match="M, the sample count must be an integer >= 1000"):
            strong_error_curve(SchemeKind.RECTANGLE, (8,), 64, M, PB, seed=0)
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (), 64, 2000, PB, seed=0)
    for n_values in [(8.7, 16), (8, math.nan), (math.inf,), (True,)]:
        with pytest.raises(UsageError, match="grid size must be an integer"):
            strong_error_curve(SchemeKind.RECTANGLE, n_values, 64, 2000, PB, seed=0)
    for n_values in [(8, 8, 16), (16, 8, 16.0)]:
        with pytest.raises(UsageError, match="without repeats"):
            strong_error_curve(SchemeKind.RECTANGLE, n_values, 64, 2000, PB, seed=0)
    for n_ref in [64.5, True]:
        with pytest.raises(UsageError, match="n_ref must be an integer"):
            strong_error_curve(SchemeKind.RECTANGLE, (8,), n_ref, 2000, PB, seed=0)


def test_integral_float_grid_sizes_are_accepted():
    curve = strong_error_curve(SchemeKind.RECTANGLE, (8.0, 16), 32.0, 1000, PB, seed=0)
    assert curve.n_values == (8, 16)
    assert all(type(n) is int for n in curve.n_values)
    same = strong_error_curve(SchemeKind.RECTANGLE, (8, 16), 32, 1000, PB, seed=0)
    assert (curve.errors, curve.ci_halfwidths) == (same.errors, same.ci_halfwidths)
    weak = weak_error_curve(SchemeKind.RECTANGLE, (5.0,), CALL, 0.1, 0.0, 10, PA, seed=0)
    assert weak.n_values == (5,) and type(weak.n_values[0]) is int


def test_strong_error_degenerate_model_has_zero_error():
    curve = strong_error_curve(SchemeKind.RECTANGLE, (8, 16, 32), 64, 1000, FLAT, seed=0)
    assert curve.errors == (0.0, 0.0, 0.0)
    assert math.isnan(curve.fitted_slope)
    assert curve.lambda_over_n == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", [None, True, -1, 2**64, 1.5, "3"], ids=repr)
def test_strong_error_curve_refuses_a_seed_that_is_not_a_64_bit_integer(seed):
    with pytest.raises(UsageError, match="an integer seed"):
        strong_error_curve(SchemeKind.RECTANGLE, (8,), 16, 1000, PB, seed=seed)


def test_strong_error_curve_shape_and_decay():
    curve = strong_error_curve(SchemeKind.RECTANGLE, (8, 16, 32), 128, 4000, PB, seed=0)
    assert curve.n_values == (8, 16, 32)
    assert all(e > 0 for e in curve.errors)
    assert all(h > 0 for h in curve.ci_halfwidths)
    # Monotone decay after widening by the confidence intervals.
    for i in range(2):
        assert curve.errors[i] + curve.ci_halfwidths[i] > curve.errors[i + 1] - curve.ci_halfwidths[i + 1]
    assert curve.fitted_slope < -0.5
    lam = lambda_constant(PB)
    assert curve.lambda_over_n == tuple(lam / n for n in (8, 16, 32))
    assert curve.protocol["n_ref"] == 128
    assert curve.protocol["scheme"] == "rect"


def test_strong_error_curve_has_no_overlay_where_the_error_constant_overflows():
    steep = dataclasses.replace(PB, eta=20.0)
    curve = strong_error_curve(SchemeKind.RECTANGLE, (8, 16), 32, 1000, steep, seed=0)
    assert curve.lambda_over_n is None
    assert all(e > 0 for e in curve.errors)


def test_strong_error_trapezoid_has_no_overlay_and_decays_faster():
    rect = strong_error_curve(SchemeKind.RECTANGLE, (8, 16, 32), 256, 4000, PA, seed=0)
    trap = strong_error_curve(SchemeKind.TRAPEZOID, (8, 16, 32), 256, 4000, PA, seed=0)
    assert trap.lambda_over_n is None
    assert trap.fitted_slope < rect.fitted_slope
    assert all(t < r for t, r in zip(trap.errors, rect.errors))


def test_strong_error_determinism():
    a = strong_error_curve(SchemeKind.RECTANGLE, (8, 16), 64, 2000, PB, seed=3)
    b = strong_error_curve(SchemeKind.RECTANGLE, (8, 16), 64, 2000, PB, seed=3)
    assert a.errors == b.errors


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("total", [1, 3, 179, 2365])
@pytest.mark.parametrize("n_ref", [64, 768])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_strong_error_coarse_grids_match_the_one_pass_oracle(scheme, n_ref, total):
    # The coarse grids weight every 2nd, 4th and 8th point of the block
    # the kernel exponentiated once; each must agree, per draw, with the
    # one-pass oracle's scheme on the restricted sample.  The bound is
    # relative, as the two are different arithmetic; measured at most
    # 3.3e-15 here on a 2-core x86-64 host with OpenBLAS.
    spec = gaussian_spec(PB, n_ref)
    steps = (2, 4, 8)
    key = (DOMAIN_EXPERIMENT, 1)
    kernel = vix2_runs(scheme, [(spec, total, key, steps)], 21)
    oracle = oracle_batches(scheme, spec, total, 21, key, coarse_steps=steps)
    for (_, fine, coarse, cv), (fine_ref, coarse_ref, _) in zip(kernel, oracle, strict=True):
        assert cv is None
        np.testing.assert_allclose(fine, fine_ref, rtol=2e-14, atol=0)
        for c, c_ref in zip(coarse, coarse_ref, strict=True):
            np.testing.assert_allclose(c, c_ref, rtol=2e-14, atol=0)


def test_strong_error_curves_are_pinned():
    # The coarse grids take steps 16, 8, 4 and 2 (docs/formats.md lists
    # the curves' past values).
    pinned = {
        SchemeKind.RECTANGLE: (
            ["0x1.9972726e49609p-10", "0x1.aaa24c592d220p-11",
             "0x1.8d32497a6258dp-12", "0x1.19374da347a79p-13"],
            ["0x1.25705c2d856c8p-13", "0x1.36143028c8b0ap-14",
             "0x1.244f94de4de2ap-15", "0x1.a1c6cf1157788p-17"],
        ),
        SchemeKind.TRAPEZOID: (
            ["0x1.42d7aa46b1e56p-9", "0x1.1d8dcda141a2ep-10",
             "0x1.d31cb96132d07p-12", "0x1.2b786c68aae9dp-13"],
            ["0x1.36028bea80d56p-12", "0x1.13b975571ffd7p-13",
             "0x1.c77d08bc33ec3p-15", "0x1.27c533b40220ap-16"],
        ),
    }
    for scheme, (errors, halfwidths) in pinned.items():
        curve = strong_error_curve(scheme, (8, 16, 32, 64), 128, 4000, PB, seed=5)
        assert _hex(curve.errors) == errors, pin_message()
        assert _hex(curve.ci_halfwidths) == halfwidths, pin_message()


def test_strong_curve_points_are_the_unshifted_sums_of_their_columns():
    # Each coarse grid is one sample column, summed without a shift: its
    # point is ``sqrt(s2 / M)`` and the half-width of ``s2 / M`` over twice
    # that, from ``max(s4 - s2^2 / M, 0) / (M - 1)``, as a loop over the same
    # kernel call gives them, for a curve of one grid and of four.
    M, key = 4000, (DOMAIN_EXPERIMENT, 1)
    for scheme in SchemeKind:
        for n_values in [(16,), (8, 16, 32, 64)]:
            run = (gaussian_spec(PB, 128), M, key, [128 // n for n in n_values])
            sums = [([], []) for _ in n_values]
            for _, fine, coarse, _ in vix2_runs(scheme, [run], 5):
                for (s2, s4), v in zip(sums, coarse, strict=True):
                    sq = (fine - v) * (fine - v)
                    s2.append(float(np.sum(sq)))
                    s4.append(float(np.sum(sq * sq)))
            errors, halfwidths = [], []
            for s2, s4 in sums:
                s2, s4 = math.fsum(s2), math.fsum(s4)
                errors.append(math.sqrt(s2 / M))
                variance = max(s4 - s2 * s2 / M, 0.0) / (M - 1)
                halfwidths.append(Z95 * math.sqrt(variance / M) / (2.0 * errors[-1]))
            curve = strong_error_curve(scheme, n_values, 128, M, PB, seed=5)
            assert _hex(curve.errors) == _hex(errors)
            assert _hex(curve.ci_halfwidths) == _hex(halfwidths)


# --- weak error -------------------------------------------------------------


def test_weak_error_degenerate_model_is_exact():
    exact = math.exp(X0 / 2) - 0.1
    curve = weak_error_curve(
        SchemeKind.RECTANGLE, (4, 5, 6), CALL, exact, 0.0, 100, FLAT, seed=0
    )
    assert curve.errors == (0.0, 0.0, 0.0)
    assert math.isnan(curve.fitted_slope)


def test_weak_error_decays_and_documents_protocol():
    curve = weak_error_curve(
        SchemeKind.RECTANGLE,
        tuple(range(5, 11)),
        CALL,
        0.13093742,
        5e-8,
        50_000,
        PA,
        seed=0,
    )
    assert len(curve.errors) == 6
    assert curve.fitted_slope < -0.5
    assert curve.protocol["reference_price"] == 0.13093742
    assert len(curve.protocol["estimates"]) == 6
    assert not curve.protocol["reference_ci_warning"]


def test_a_study_on_a_curve_records_the_curve():
    curve = X0Curve(knots=(0.25, 0.3), values=(X0, X0 + 0.1))
    params = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=curve)
    study = weak_error_curve(SchemeKind.RECTANGLE, (4,), CALL, 0.1, 0.0, 10, params, seed=0)
    recorded = json.loads(json.dumps(study.protocol["params"]["x0"]))
    assert recorded == {"knots": [0.25, 0.3], "values": [X0, X0 + 0.1], "mode": "step"}


def test_weak_error_flags_a_loose_reference():
    curve = weak_error_curve(
        SchemeKind.RECTANGLE, (5, 6, 7), CALL, 0.13093742, 0.1, 5000, PA, seed=0
    )
    assert curve.protocol["reference_ci_warning"]


def test_weak_error_validation():
    with pytest.raises(UsageError):
        weak_error_curve(SchemeKind.RECTANGLE, (), CALL, 0.1, 0.0, 100, PA, seed=0)
    with pytest.raises(UsageError):
        weak_error_curve(SchemeKind.RECTANGLE, (5,), CALL, 0.1, -1.0, 100, PA, seed=0)
    with pytest.raises(UsageError):
        weak_error_curve(SchemeKind.RECTANGLE, (5,), CALL, 0.1, 0.0, 1, PA, seed=0)
    for n_values in [(5.9, 6, 7), (0,), (math.nan,)]:
        with pytest.raises(UsageError, match="grid size must be an integer"):
            weak_error_curve(SchemeKind.RECTANGLE, n_values, CALL, 0.1, 0.0, 10, PA, seed=0)
    for n_values in [(5, 5), (5, 6, 5.0)]:
        with pytest.raises(UsageError, match="without repeats"):
            weak_error_curve(SchemeKind.RECTANGLE, n_values, CALL, 0.1, 0.0, 10, PA, seed=0)


@pytest.mark.parametrize(
    "reference_price, reference_ci",
    [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf), (True, 0.0),
     (0.1, True)],
)
def test_weak_error_refuses_a_non_finite_reference(reference_price, reference_ci):
    with pytest.raises(UsageError, match="reference"):
        weak_error_curve(
            SchemeKind.RECTANGLE, (4,), CALL, reference_price, reference_ci, 10, PA,
            seed=0,
        )


# --- mse versus cost --------------------------------------------------------


def test_mse_cost_validation():
    with pytest.raises(UsageError):
        mse_cost_curve("qmc", (0.04,), 10, 0.121971, PB, CALL, seed=0)
    with pytest.raises(UsageError):
        mse_cost_curve("ml-rect", (), 10, 0.121971, PB, CALL, seed=0)
    with pytest.raises(UsageError):
        mse_cost_curve("ml-rect", (-0.1,), 10, 0.121971, PB, CALL, seed=0)
    with pytest.raises(UsageError):
        mse_cost_curve("ml-rect", (0.04,), 1, 0.121971, PB, CALL, seed=0)
    for N_mse in [2.5, math.nan, math.inf]:
        with pytest.raises(UsageError, match="N_mse must be an integer"):
            mse_cost_curve("mc-rect", (0.2,), N_mse, 0.121971, PB, CALL, seed=0)
    curve = mse_cost_curve("mc-rect", (0.2,), 2.0, 0.121971, PB, CALL, seed=0)
    assert curve.protocol["N_mse"] == 2 and type(curve.protocol["N_mse"]) is int
    assert curve.mses == mse_cost_curve("mc-rect", (0.2,), 2, 0.121971, PB, CALL, seed=0).mses


@pytest.mark.parametrize(
    "family, epsilons, reference_price",
    [
        ("mc-rect", (math.nan,), 0.121971),
        ("ml-rect", (0.04, math.nan), 0.121971),
        ("mc-rect", (0.04, math.inf), 0.121971),
        ("ml-rect", (0.04,), math.nan),
        ("mc-rect", (0.04,), math.inf),
        ("mc-rect", (True,), 0.121971),
        ("ml-rect", (True,), 0.121971),
        ("ml-trap", (0.04, True), 0.121971),
        ("ml-rect", (0.04,), True),
    ],
)
def test_mse_cost_refuses_non_finite_input(family, epsilons, reference_price):
    with pytest.raises(UsageError):
        mse_cost_curve(family, epsilons, 2, reference_price, PB, CALL, seed=0)


def test_mse_cost_ml_costs_match_the_plans():
    curve = mse_cost_curve(
        "ml-rect", (0.04, 0.02, 0.01), 8, 0.121971, PB, CALL, seed=0
    )
    assert curve.costs == (288.0, 4212.0, 37332.0)
    assert all(m > 0 for m in curve.mses)
    assert len(curve.protocol["plans"]) == 3
    assert curve.fitted_slope < 0


def test_mse_cost_mc_uses_ceiling_allocations():
    curve = mse_cost_curve("mc-rect", (0.2, 0.1, 0.05), 6, 0.121971, PB, CALL, seed=0)
    # n = ceil(1/eps), M = ceil(1/eps^2).
    assert curve.costs == (25.0 * 25, 100.0 * 100, 400.0 * 400)
    assert curve.protocol["plans"] == []


def test_mse_cost_determinism():
    a = mse_cost_curve("ml-trap", (0.04, 0.02), 5, 0.121971, PB, CALL, seed=1)
    b = mse_cost_curve("ml-trap", (0.04, 0.02), 5, 0.121971, PB, CALL, seed=1)
    assert a.mses == b.mses


# --- presets ----------------------------------------------------------------


def test_preset_names_cover_all_protocols():
    assert set(PRESET_NAMES) >= {
        "fig1",
        "fig1-h01",
        "fig1-h02",
        "fig1-h03",
        "fig2",
        "fig3",
        "ref-a",
        "ref-b",
    }
    with pytest.raises(UsageError):
        preset("fig9")


def test_strong_presets_use_divisor_grids_at_both_scales():
    for paper in (False, True):
        for name in ("fig1", "fig1-h02", "fig1-h03"):
            proto = preset(name, paper_scale=paper)
            n_ref = proto["n_ref"]
            assert all(n_ref % n == 0 and n < n_ref for n in proto["n_values"])


def test_preset_scales_differ_only_in_effort():
    desk = preset("fig2")
    paper = preset("fig2", paper_scale=True)
    assert desk["M"] < paper["M"]
    model = ("H", "eta", "T", "Delta", "x0")
    assert [desk[k] for k in model] == [paper[k] for k in model]
    assert desk["reference_price"] == paper["reference_price"]
    desk3 = preset("fig3")
    paper3 = preset("fig3", paper_scale=True)
    assert desk3["n_mse"] == 100 and paper3["n_mse"] == 400
    assert desk3["epsilons"] == paper3["epsilons"] == (0.04, 0.02, 0.01, 0.005)
    assert desk3["n0"] == 6


def test_reference_price_presets():
    a = preset("ref-a")
    assert (a["n"], a["M"], a["cv"]) == (400, 100_000, True)
    a_full = preset("ref-a", paper_scale=True)
    assert a_full["M"] == 3_000_000
    b = preset("ref-b")
    assert (b["n"], b["M"]) == (250, 200_000)
    b_full = preset("ref-b", paper_scale=True)
    assert (b_full["n"], b_full["M"]) == (500, 10_000_000)
