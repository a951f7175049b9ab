"""Gaussian law of the log forward variance: mean, covariance, grids."""

import dataclasses
import math

import numpy as np
import pytest

from roughvix import (
    Grid,
    HypothesisError,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    X0Curve,
    cholesky_factor,
    covariance_entry,
    covariance_matrix,
    covariance_quadrature_oracle,
    gaussian_spec,
    grid_for,
    kernel_eval,
    lambda_integral,
    mc_price,
    mean_vector,
)

X0 = math.log(0.235**2)
PA = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)


# --- initial curve ----------------------------------------------------------


def test_x0_constant_float_round_trip():
    assert PA.x0_is_constant
    assert PA.x0_constant_value == X0
    assert PA.x0_at(PA.T + 0.01) == X0
    np.testing.assert_array_equal(
        PA.x0_at(np.array([PA.T, PA.T + 0.02])), np.array([X0, X0])
    )


def test_step_curve_is_left_continuous():
    curve = X0Curve(knots=(1.0, 2.0, 3.0), values=(10.0, 20.0, 30.0), mode="step")
    # Value on (k_{j-1}, k_j] is values[j]; at a knot, the left piece wins.
    assert curve(2.0) == 20.0
    assert curve(2.0 + 1e-9) == 30.0
    assert curve(1.5) == 20.0
    # Clamped outside the knot range.
    assert curve(0.5) == 10.0
    assert curve(4.0) == 30.0


def test_linear_curve_interpolates_and_clamps():
    curve = X0Curve(knots=(0.0, 1.0), values=(0.0, 2.0), mode="linear")
    assert curve(0.25) == pytest.approx(0.5)
    assert curve(-1.0) == 0.0
    assert curve(5.0) == 2.0


def test_curve_validation():
    with pytest.raises(UsageError):
        X0Curve(knots=(1.0, 1.0), values=(0.0, 0.0))
    with pytest.raises(UsageError):
        X0Curve(knots=(1.0,), values=(0.0, 1.0))
    with pytest.raises(UsageError):
        X0Curve(knots=(), values=())
    with pytest.raises(UsageError):
        X0Curve(knots=(1.0,), values=(0.0,), mode="cubic")
    with pytest.raises(UsageError):
        X0Curve(knots=(1.0,), values=(float("nan"),))


def test_curve_constancy_detection():
    flat = X0Curve(knots=(1.0, 2.0), values=(3.0, 3.0))
    assert flat.is_constant
    params = ModelParams(H=0.2, eta=0.5, T=1.0, Delta=0.5, x0=flat)
    assert params.x0_constant_value == 3.0
    sloped = X0Curve(knots=(1.0, 2.0), values=(3.0, 4.0))
    params2 = ModelParams(H=0.2, eta=0.5, T=1.0, Delta=0.5, x0=sloped)
    assert not params2.x0_is_constant
    with pytest.raises(HypothesisError):
        params2.x0_constant_value


def test_params_validation():
    with pytest.raises(UsageError):
        ModelParams(H=0.0, eta=0.5, T=1.0, Delta=0.5, x0=0.0)
    with pytest.raises(UsageError):
        ModelParams(H=1.0, eta=0.5, T=1.0, Delta=0.5, x0=0.0)
    with pytest.raises(UsageError):
        ModelParams(H=0.3, eta=-0.1, T=1.0, Delta=0.5, x0=0.0)
    with pytest.raises(UsageError):
        ModelParams(H=0.3, eta=0.5, T=0.0, Delta=0.5, x0=0.0)
    with pytest.raises(UsageError):
        ModelParams(H=0.3, eta=0.5, T=1.0, Delta=0.0, x0=0.0)
    with pytest.raises(UsageError):
        ModelParams(H=0.3, eta=0.5, T=1.0, Delta=0.5, x0=float("inf"))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["eta", "T", "Delta"])
def test_params_refuse_non_finite_values(key, value):
    good = dict(H=0.3, eta=0.5, T=1.0, Delta=0.5, x0=0.0)
    with pytest.raises(UsageError, match=key):
        ModelParams(**{**good, key: value})


# --- grid -------------------------------------------------------------------


def test_grid_points_span_the_window():
    grid = grid_for(PA, 8)
    assert grid.points[0] == PA.T
    assert grid.points[-1] == pytest.approx(PA.T + PA.Delta, rel=1e-15)
    assert grid.h == pytest.approx(PA.Delta / 8)
    assert len(grid.points) == 9
    with pytest.raises(UsageError):
        grid_for(PA, 0)


@pytest.mark.parametrize(
    "T, Delta", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)]
)
def test_grid_refuses_non_finite_dates(T, Delta):
    with pytest.raises(UsageError):
        Grid(T=T, Delta=Delta, n=8)


def test_grid_step_count_must_be_a_whole_number():
    for n in [2.5, 0, -1, math.nan, math.inf]:
        with pytest.raises(UsageError, match="grid step count must be an integer"):
            Grid(T=1.0, Delta=0.5, n=n)
    assert Grid(T=1.0, Delta=0.5, n=8.0) == Grid(T=1.0, Delta=0.5, n=8)
    assert type(Grid(T=1.0, Delta=0.5, n=np.int64(8)).n) is int


# --- kernel and mean --------------------------------------------------------


def test_kernel_frozen_value():
    params = ModelParams(H=0.3, eta=0.5, T=0.75, Delta=0.5, x0=0.0)
    assert kernel_eval(1.0, 0.75, params) == pytest.approx(
        0.6597539553864471, rel=1e-15
    )


def test_kernel_requires_prior_time():
    with pytest.raises(UsageError):
        kernel_eval(1.0, 1.0, PA)


def test_mean_vector_frozen_and_formula():
    grid = grid_for(PA, 4)
    mean = mean_vector(PA, 4)
    # Frozen value at the right endpoint u = T + Delta.
    assert mean[-1] == pytest.approx(-2.957198248749224, rel=1e-15)
    # Direct formula at the left endpoint u = T.
    H, eta, T = PA.H, PA.eta, PA.T
    expected0 = X0 - eta**2 / (4 * H) * T ** (2 * H)
    assert mean[0] == pytest.approx(expected0, rel=1e-15)
    # The drift is half the diagonal of the covariance, bit for bit.
    half_variance = [0.5 * covariance_entry(u, u, PA) for u in grid.points]
    assert np.array_equal(mean, X0 - np.array(half_variance))


def test_mean_vector_with_curve_matches_constant():
    flat_curve = X0Curve(knots=(PA.T,), values=(X0,))
    params = ModelParams(H=PA.H, eta=PA.eta, T=PA.T, Delta=PA.Delta, x0=flat_curve)
    np.testing.assert_allclose(mean_vector(params, 6), mean_vector(PA, 6), rtol=0, atol=0)


# --- covariance -------------------------------------------------------------


def test_variance_frozen_value():
    u = PA.T + PA.Delta
    assert covariance_entry(u, u, PA) == pytest.approx(
        0.12171743814653516, rel=1e-15
    )


def test_covariance_offdiag_frozen_value():
    u = PB.T + PB.Delta / 3
    v = PB.T + 2 * PB.Delta / 3
    closed = covariance_entry(u, v, PB)
    assert closed == pytest.approx(0.4470986785679284, rel=1e-12)
    assert covariance_quadrature_oracle(u, v, PB) == pytest.approx(
        0.4470986785679284, rel=1e-13
    )


def test_covariance_is_symmetric_in_arguments():
    u = PA.T + 0.3 * PA.Delta
    v = PA.T + 0.9 * PA.Delta
    assert covariance_entry(u, v, PA) == covariance_entry(v, u, PA)


@pytest.mark.parametrize(
    "H",
    [0.05, 0.15, 0.25, 0.35, 0.45, 1e-6, 1e-4, 0.005, 0.4999, 0.5 - 1e-8,
     0.5 + 1e-8, 0.5 - 1e-13, 0.5 + 1e-13, 0.75, 0.99, 0.99999, 0.9999999],
)
def test_closed_form_matches_quadrature(H):
    params = ModelParams(H=H, eta=0.8, T=0.4, Delta=0.2, x0=0.0)
    offsets = [(0.0, 1.0), (0.1, 0.9), (0.3, 0.35), (0.5, 0.5), (0.99, 1.0)]
    for fu, fv in offsets:
        u = params.T + fu * params.Delta
        v = params.T + fv * params.Delta
        closed = covariance_entry(u, v, params)
        quad = covariance_quadrature_oracle(u, v, params)
        assert closed == pytest.approx(quad, rel=1e-9)


def test_covariance_matrix_properties():
    grid = grid_for(PB, 16)
    cov = covariance_matrix(PB, 16)
    assert cov.shape == (17, 17)
    np.testing.assert_allclose(cov, cov.T, rtol=0, atol=0)
    # PSD up to roundoff.
    eigmin = float(np.linalg.eigvalsh(cov).min())
    assert eigmin >= -1e-12 * np.trace(cov)
    # Cauchy-Schwarz on every pair.
    diag = np.diag(cov)
    bound = np.sqrt(np.outer(diag, diag))
    assert np.all(cov <= bound * (1 + 1e-12))
    # Entries agree with the scalar evaluator.
    u, v = grid.points[3], grid.points[11]
    assert cov[3, 11] == pytest.approx(covariance_entry(u, v, PB), rel=1e-14)


def test_covariance_entry_range_checks():
    with pytest.raises(UsageError):
        covariance_entry(PA.T - 0.01, PA.T, PA)
    with pytest.raises(UsageError):
        covariance_entry(PA.T, PA.T + 2 * PA.Delta, PA)


# --- window integral and full spec ------------------------------------------


def test_window_integral_frozen_values():
    assert lambda_integral(PB) == pytest.approx(2.044275132423383, rel=1e-12)
    assert lambda_integral(PA) == pytest.approx(0.5832630908588115, rel=1e-12)


def test_window_integral_equals_boundary_covariance():
    # The window integral coincides with C(T, T+Delta) / eta^2.
    for params in (PA, PB):
        expect = covariance_entry(params.T, params.T + params.Delta, params)
        assert lambda_integral(params) * params.eta**2 == pytest.approx(
            expect, rel=1e-12
        )


def test_window_integral_requires_rough_regime():
    with pytest.raises(HypothesisError):
        lambda_integral(ModelParams(H=0.5, eta=0.5, T=0.5, Delta=0.1, x0=0.0))
    with pytest.raises(HypothesisError):
        lambda_integral(ModelParams(H=0.7, eta=0.5, T=0.5, Delta=0.1, x0=0.0))


def test_gaussian_spec_shapes_and_cache():
    gaussian_spec.cache_clear()
    spec1 = gaussian_spec(PA, 12)
    spec2 = gaussian_spec(PA, 12)
    assert spec1 is spec2
    assert spec1.mean.shape == (13,)
    # The full covariance is built on first read, then kept read-only.
    assert "cov" not in vars(spec1)
    assert spec1.cov.shape == (13, 13)
    assert spec1.cov is spec1.cov
    np.testing.assert_array_equal(spec1.cov, covariance_matrix(PA, 12))
    assert not spec1.mean.flags.writeable
    assert not spec1.cov.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec1.cov = np.zeros((13, 13))
    assert spec1.cov is spec2.cov


def test_nested_grid_covariance_restriction_is_exact():
    # Halving the grid visits a subset of the same dates, so the coarse
    # covariance is an exact submatrix of the fine one.
    fine = gaussian_spec(PB, 8)
    coarse = gaussian_spec(PB, 4)
    np.testing.assert_array_equal(fine.cov[::2, ::2], coarse.cov)
    np.testing.assert_array_equal(fine.mean[::2], coarse.mean)


# --- factor from the diagonal and pivot rows ---------------------------------

# (H, T, Delta, n): laws across n, H and T, then the domain sweep of
# tests/test_sampler.py at n = 1000.
_FACTOR_LAWS = sorted(
    {(0.1, 0.5, 1.0 / 12.0, n) for n in (6, 12, 250, 1000, 2000)}
    | {
        (0.3, 0.5, 1.0 / 12.0, 768),
        (0.4999, 0.5, 1.0 / 12.0, 1000),
        (0.005, 0.5, 1.0 / 12.0, 1000),
        (0.1, 1e-4, 1.0 / 12.0, 1000),
        (0.75, 0.5, 1.0 / 12.0, 1000),
        (0.99, 0.5, 1.0 / 12.0, 500),
    }
    | {
        (H, T, Delta, 1000)
        for H in (0.005, 0.05, 0.3, 0.4999, 0.75, 0.99)
        for T, Delta in ((0.5, 1.0 / 12.0), (1e-4, 1.0 / 12.0), (0.5, 1e-6))
    }
)


@pytest.mark.parametrize("H, T, Delta, n", _FACTOR_LAWS)
def test_factor_from_rows_equals_factor_of_full_matrix(H, T, Delta, n):
    # The law's factor reads only the diagonal and the pivot rows, with the
    # same elementwise operations as covariance_matrix, so it is the same
    # factor bit for bit.
    params = ModelParams(H=H, eta=0.5, T=T, Delta=Delta, x0=X0)
    gaussian_spec.cache_clear()
    spec = gaussian_spec(params, n)
    reference = cholesky_factor(covariance_matrix(params, n))
    assert np.array_equal(spec.factor.L, reference.L)
    assert "cov" not in vars(spec)


def test_sampling_never_builds_the_covariance():
    gaussian_spec.cache_clear()
    call = Payoff(PayoffKind.CALL, strike=0.1)
    for scheme in SchemeKind:
        mc_price(scheme, 40, 64, call, True, PB, seed=0)
    spec = gaussian_spec(PB, 40)
    assert "factor" in vars(spec)
    assert "cov" not in vars(spec)
