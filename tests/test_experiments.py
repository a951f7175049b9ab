"""Experiment drivers: error curves, MSE-cost tables, slope fitting, presets."""

import math

import numpy as np
import pytest

from roughvix import (
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    fit_loglog_slope,
    lambda_constant,
    mse_cost_curve,
    preset,
    strong_error_curve,
    weak_error_curve,
)
from roughvix.experiments import PRESET_NAMES
from roughvix.model import gaussian_spec
from roughvix.sampler import DOMAIN_EXPERIMENT
from roughvix.schemes import vix2_batches

from oracles import public_path_batches

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


# --- strong error -----------------------------------------------------------


def test_strong_error_requires_divisor_grid_and_enough_samples():
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (7,), 64, 2000, PB, seed=0)
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (64,), 64, 2000, PB, seed=0)
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (8,), 64, 999, PB, seed=0)
    with pytest.raises(UsageError):
        strong_error_curve(SchemeKind.RECTANGLE, (), 64, 2000, PB, seed=0)


def test_strong_error_degenerate_model_has_zero_error():
    curve = strong_error_curve(SchemeKind.RECTANGLE, (8, 16, 32), 64, 1000, FLAT, seed=0)
    assert curve.errors == (0.0, 0.0, 0.0)
    assert math.isnan(curve.fitted_slope)
    assert curve.lambda_over_n == (0.0, 0.0, 0.0)


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
def test_strong_error_coarse_grids_match_the_public_path(scheme, n_ref, total):
    # The coarse grids read every 2nd, 4th and 8th point of the block the
    # kernel exponentiated once; each must equal scheme_vix2 on the
    # restricted sample, per draw, as hex floats.
    spec = gaussian_spec(PB, n_ref)
    steps = (2, 4, 8)
    key = (DOMAIN_EXPERIMENT, 1)
    kernel = vix2_batches(scheme, spec, total, 21, key, coarse_steps=steps)
    public = public_path_batches(scheme, spec, total, 21, key, coarse_steps=steps)
    for (fine, coarse, cv), (fine_ref, coarse_ref, _) in zip(kernel, public, strict=True):
        assert cv is None
        assert _hex(fine) == _hex(fine_ref)
        assert [_hex(c) for c in coarse] == [_hex(c) for c in coarse_ref]


def test_strong_error_curves_are_pinned():
    # As the low-rank factor first gave them; the batch kernel moved no
    # bit.  The coarse grids take steps 16, 8, 4 and 2.
    pinned = {
        SchemeKind.RECTANGLE: (
            ["0x1.9972726e49612p-10", "0x1.aaa24c592d236p-11",
             "0x1.8d32497a625b9p-12", "0x1.19374da347b06p-13"],
            ["0x1.25705c2d856e2p-13", "0x1.36143028c8b46p-14",
             "0x1.244f94de4dea6p-15", "0x1.a1c6cf1157a53p-17"],
        ),
        SchemeKind.TRAPEZOID: (
            ["0x1.42d7aa46b1e55p-9", "0x1.1d8dcda141a27p-10",
             "0x1.d31cb96132cf6p-12", "0x1.2b786c68aae58p-13"],
            ["0x1.36028bea80d4bp-12", "0x1.13b975571ffacp-13",
             "0x1.c77d08bc33e98p-15", "0x1.27c533b40208ap-16"],
        ),
    }
    for scheme, (errors, halfwidths) in pinned.items():
        curve = strong_error_curve(scheme, (8, 16, 32, 64), 128, 4000, PB, seed=5)
        assert _hex(curve.errors) == errors
        assert _hex(curve.ci_halfwidths) == halfwidths


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
    assert desk["params"] == paper["params"]
    assert desk["reference_price"] == paper["reference_price"]
    desk3 = preset("fig3")
    paper3 = preset("fig3", paper_scale=True)
    assert desk3["N_mse"] == 100 and paper3["N_mse"] == 400
    assert desk3["epsilons"] == paper3["epsilons"] == (0.04, 0.02, 0.01, 0.005)
    assert desk3["n0"] == 6


def test_reference_price_presets():
    a = preset("ref-a")
    assert (a["n"], a["M"], a["use_cv"]) == (400, 100_000, True)
    assert a["reference_price"] == 0.13093742
    a_full = preset("ref-a", paper_scale=True)
    assert a_full["M"] == 3_000_000
    b = preset("ref-b")
    assert (b["n"], b["M"]) == (250, 200_000)
    b_full = preset("ref-b", paper_scale=True)
    assert (b_full["n"], b_full["M"]) == (500, 10_000_000)
