"""Payoffs, lognormal pricing, and the geometric-average control variate."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from roughvix import (
    CvMoments,
    HypothesisError,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    black_scholes,
    cv_corrected_payoff,
    cv_moments,
    cv_price,
    factor_for,
    gaussian_spec,
    lipschitz_constant,
    payoff_eval,
    stream_for,
)

from roughvix.schemes import geometric_projection

from oracles import bs_price_quad, fraction_mean, geometric_vix2, sample_fine, scheme_vix2

X0 = math.log(0.235**2)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)
PUT = Payoff(PayoffKind.PUT, strike=0.1)
FUTURE = Payoff(PayoffKind.FUTURE)


# --- payoff basics ----------------------------------------------------------


def test_payoff_validation():
    with pytest.raises(UsageError):
        Payoff(PayoffKind.CALL)
    with pytest.raises(UsageError):
        Payoff(PayoffKind.PUT, strike=-0.5)
    with pytest.raises(UsageError):
        Payoff(PayoffKind.FUTURE, strike=0.1)
    for kind in (PayoffKind.CALL, PayoffKind.PUT):
        with pytest.raises(UsageError, match="strike must be a number, not a bool"):
            Payoff(kind, strike=True)


@pytest.mark.parametrize("strike", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("kind", [PayoffKind.CALL, PayoffKind.PUT])
def test_payoff_refuses_a_non_finite_strike(kind, strike):
    with pytest.raises(UsageError, match="strike must be finite and > 0"):
        Payoff(kind, strike=strike)


def test_payoff_eval_on_vix():
    vix2 = np.array([0.0064, 0.0001, 0.09])  # vix = 0.08, 0.01, 0.3
    np.testing.assert_allclose(
        payoff_eval(CALL, vix2), [0.0, 0.0, 0.2], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        payoff_eval(PUT, vix2), [0.02, 0.09, 0.0], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(payoff_eval(FUTURE, vix2), [0.08, 0.01, 0.3], rtol=1e-15)
    with pytest.raises(UsageError):
        payoff_eval(CALL, np.array([-1e-12]))


def test_lipschitz_constants():
    assert lipschitz_constant(CALL) == pytest.approx(1.0 / 0.2)
    assert lipschitz_constant(PUT) == pytest.approx(1.0 / 0.2)
    with pytest.raises(HypothesisError):
        lipschitz_constant(FUTURE)


# --- lognormal pricing ------------------------------------------------------


def test_black_scholes_frozen_value():
    assert black_scholes(PayoffKind.CALL, 1.0, 1.0, 0.2) == pytest.approx(
        0.07965567455405798, rel=1e-13
    )


@pytest.mark.parametrize(
    "kind,x,y,z",
    [
        (PayoffKind.CALL, 1.0, 1.2, 0.35),
        (PayoffKind.CALL, 0.05, 0.02, 0.8),
        (PayoffKind.PUT, 1.0, 0.8, 0.15),
        (PayoffKind.PUT, 0.22, 0.25, 0.6),
    ],
)
def test_black_scholes_matches_quadrature(kind, x, y, z):
    label = "call" if kind is PayoffKind.CALL else "put"
    assert black_scholes(kind, x, y, z) == pytest.approx(
        bs_price_quad(label, x, y, z), rel=1e-12
    )


def test_black_scholes_zero_vol_is_intrinsic():
    assert black_scholes(PayoffKind.CALL, 1.3, 1.0, 0.0) == pytest.approx(0.3)
    assert black_scholes(PayoffKind.CALL, 0.7, 1.0, 0.0) == 0.0
    assert black_scholes(PayoffKind.PUT, 0.7, 1.0, 0.0) == pytest.approx(0.3)


def test_put_call_parity():
    for x, y, z in [(1.0, 1.0, 0.2), (0.22, 0.1, 0.66), (0.5, 0.9, 1.1)]:
        call = black_scholes(PayoffKind.CALL, x, y, z)
        put = black_scholes(PayoffKind.PUT, x, y, z)
        assert call - put == pytest.approx(x - y, abs=1e-12)


def test_black_scholes_validation():
    with pytest.raises(UsageError):
        black_scholes(PayoffKind.CALL, -1.0, 1.0, 0.2)
    with pytest.raises(UsageError):
        black_scholes(PayoffKind.CALL, 1.0, 0.0, 0.2)
    with pytest.raises(UsageError):
        black_scholes(PayoffKind.CALL, 1.0, 1.0, -0.2)


@pytest.mark.parametrize("kind", [PayoffKind.CALL, PayoffKind.PUT])
@pytest.mark.parametrize(
    "x, y, z",
    [
        (1.0, 1.0, math.inf),
        (math.inf, 1.0, 0.2),
        (math.nan, 1.0, 0.2),
        (1.0, math.inf, 0.2),
        (1.0, math.nan, 0.2),
        (1.0, 1.0, math.nan),
    ],
)
def test_black_scholes_refuses_non_finite_inputs(kind, x, y, z):
    with pytest.raises(UsageError, match="finite"):
        black_scholes(kind, x, y, z)


# --- control variate --------------------------------------------------------


def test_cv_moments_frozen_values():
    spec = gaussian_spec(PB, 8)
    mom = cv_moments(spec)
    assert mom.mu_n == pytest.approx(-3.120433379563016, rel=1e-15)
    assert mom.sigma_n == pytest.approx(0.6659837829364103, rel=1e-15)


def test_cv_moments_match_exact_rational_mean():
    spec = gaussian_spec(PB, 8)
    mom = cv_moments(spec)
    mean = np.asarray(spec.mean)
    assert mom.mu_n == pytest.approx(fraction_mean(mean[1:]), rel=1e-15)
    cov = np.asarray(spec.cov)
    exact_var = fraction_mean([cov[i, j] for i in range(1, 9) for j in range(1, 9)])
    assert mom.sigma_n**2 == pytest.approx(exact_var, rel=1e-14)


def test_cv_price_frozen_values():
    spec = gaussian_spec(PB, 8)
    mom = cv_moments(spec)
    assert cv_price(FUTURE, mom) == pytest.approx(0.22206727779518431, rel=1e-14)
    assert cv_price(CALL, mom) == pytest.approx(0.12220240441973863, rel=1e-14)


def test_cv_price_is_the_geometric_payoff_expectation():
    # Monte Carlo estimate of E[payoff(exp(mean of X))] must agree with
    # the closed form within 4 standard errors.
    n, m = 6, 200_000
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    sample = sample_fine(factor, spec.mean, stream_for(21, 6), size=m)
    geo = geometric_vix2(sample.values)
    for payoff in (CALL, PUT, FUTURE):
        draws = payoff_eval(payoff, geo)
        se = float(np.std(draws, ddof=1)) / math.sqrt(m)
        assert float(np.mean(draws)) == pytest.approx(
            cv_price(payoff, cv_moments(spec)), abs=4 * se
        )


def test_corrected_payoff_shifts_by_the_control_term():
    n, m = 6, 64
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    sample = sample_fine(factor, spec.mean, stream_for(5, 5), size=m)
    vix2 = scheme_vix2(SchemeKind.RECTANGLE, sample)
    geo = geometric_vix2(sample.values)
    cv_n = cv_price(CALL, cv_moments(spec))
    corrected = cv_corrected_payoff(CALL, vix2, geo, cv_n)
    plain = payoff_eval(CALL, vix2)
    control = payoff_eval(CALL, geo)
    np.testing.assert_allclose(corrected, plain - control + cv_n, rtol=1e-15)


def test_corrected_payoff_variance_is_much_smaller():
    n, m = 8, 50_000
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    sample = sample_fine(factor, spec.mean, stream_for(17, 3), size=m)
    vix2 = scheme_vix2(SchemeKind.RECTANGLE, sample)
    geo = geometric_vix2(sample.values)
    cv_n = cv_price(CALL, cv_moments(spec))
    corrected = cv_corrected_payoff(CALL, vix2, geo, cv_n)
    plain = payoff_eval(CALL, vix2)
    assert np.var(corrected) < 1e-3 * np.var(plain)


def test_trapezoid_cv_moments_use_trapezoid_weights():
    n = 8
    spec = gaussian_spec(PB, n)
    mom = cv_moments(spec, SchemeKind.TRAPEZOID)
    w = np.full(n + 1, 1.0 / n)
    w[0] = w[-1] = 0.5 / n
    mean = np.asarray(spec.mean)
    cov = np.asarray(spec.cov)
    weighted = [(n + 1) * w[i] * mean[i] for i in range(n + 1)]
    assert mom.mu_n == pytest.approx(fraction_mean(weighted), rel=1e-14)
    pairs = [w[i] * w[j] * cov[i, j] for i in range(n + 1) for j in range(n + 1)]
    exact_var = fraction_mean(pairs) * (n + 1) ** 2
    assert mom.sigma_n**2 == pytest.approx(exact_var, rel=1e-14)


def test_trapezoid_geometric_value_uses_trapezoid_weights():
    # The kernel's control variate is exp(w.mu + (F^T w).G); for a law
    # whose factor is the identity, F^T w is the weight vector itself.
    values = np.random.default_rng(4).normal(-3.0, 0.5, size=7)
    law = SimpleNamespace(n=6, mean=values, factor=SimpleNamespace(L=np.eye(7)))
    offset, projection = geometric_projection(SchemeKind.TRAPEZOID, law)
    np.testing.assert_allclose(projection, np.r_[0.5, np.ones(5), 0.5] / 6, rtol=1e-15)
    logs = (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]) / 6
    assert offset == pytest.approx(logs, rel=1e-14)


def test_trapezoid_cv_price_is_its_geometric_payoff_expectation():
    n, m = 6, 200_000
    spec = gaussian_spec(PB, n)
    sample = sample_fine(factor_for(PB, n), spec.mean, stream_for(21, 7), size=m)
    geo = geometric_vix2(sample.values, SchemeKind.TRAPEZOID)
    mom = cv_moments(spec, SchemeKind.TRAPEZOID)
    for payoff in (CALL, PUT, FUTURE):
        draws = payoff_eval(payoff, geo)
        se = float(np.std(draws, ddof=1)) / math.sqrt(m)
        assert float(np.mean(draws)) == pytest.approx(
            cv_price(payoff, mom), abs=4 * se
        )


def test_trapezoid_cv_corrects_the_endpoint_term():
    # A right-point geometric average leaves the trapezoid's endpoint term
    # (exp(X_0) - exp(X_n)) / (2n) in the corrected payoff; the matched
    # weights remove it.  The gain is largest where that term dominates:
    # about 80x in variance for the H = 0.3, T = 0.25 weak-error protocol,
    # about 5x for PB.
    weak = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
    n, m = 14, 50_000
    for params, bound in ((weak, 0.05), (PB, 0.5)):
        spec = gaussian_spec(params, n)
        sample = sample_fine(
            factor_for(params, n), spec.mean, stream_for(17, 4), size=m
        )
        vix2 = scheme_vix2(SchemeKind.TRAPEZOID, sample)
        variances = {}
        for cv_scheme in (SchemeKind.RECTANGLE, SchemeKind.TRAPEZOID):
            geo = geometric_vix2(sample.values, cv_scheme)
            cv_n = cv_price(CALL, cv_moments(spec, cv_scheme))
            corrected = cv_corrected_payoff(CALL, vix2, geo, cv_n)
            variances[cv_scheme] = float(np.var(corrected))
        ratio = variances[SchemeKind.TRAPEZOID] / variances[SchemeKind.RECTANGLE]
        assert ratio < bound, (params.H, ratio)


def test_cv_moments_validation():
    spec = gaussian_spec(PB, 8)
    with pytest.raises(UsageError):
        cv_moments(spec, "trap")
    with pytest.raises(UsageError):
        CvMoments(mu_n=0.0, sigma_n=-1.0)
