"""End-to-end acceptance suite.

One test per acceptance criterion, in order, each printing a single
``[criterion N] PASS/FAIL`` line with the measured quantities before
asserting.  All runs use fixed seeds so results are reproducible
bit-for-bit across machines.
"""

import math
import time

import numpy as np
import pytest

from roughvix import (
    MlmcPlan,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    batch_sizes,
    black_scholes,
    cholesky_factor,
    covariance_entry,
    covariance_matrix,
    covariance_quadrature_oracle,
    cv_corrected_payoff,
    cv_moments,
    cv_price,
    factor_for,
    fit_loglog_slope,
    gaussian_spec,
    lambda_constant,
    level_statistics,
    mc_price,
    mlmc_price,
    mse_cost_curve,
    payoff_eval,
    stream_for,
    strong_error_curve,
    weak_error_curve,
)
from roughvix.sampler import DOMAIN_MC

from oracles import (
    GaussianSample,
    exact_second_moment,
    exact_variance,
    geometric_vix2,
    quadrature_weights,
    sample_fine,
    scheme_vix2,
)

X0 = math.log(0.235**2)
PARAMS_A = ModelParams(H=0.3, eta=0.5, T=0.25, Delta=1.0 / 12.0, x0=X0)
PARAMS_B = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)

# The ref-a price: the rectangle scheme with control variate at n = 400,
# so it carries the rectangle's grid bias (see _limit_price_a).
REFERENCE_A = 0.13093742
REFERENCE_A_CI = 5e-8
REFERENCE_B = 0.121971
REFERENCE_B_CI = 6e-7


def _emit(capsys, criterion: int, passed: bool, details: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} — {details}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    return line


def test_criterion_1_covariance_closed_form_vs_quadrature(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    pairs = 120
    start = time.perf_counter()
    for index in range(pairs):
        params = ModelParams(
            H=float(rng.uniform(0.05, 0.45)),
            eta=float(rng.uniform(0.1, 2.0)),
            T=float(rng.uniform(0.1, 1.5)),
            Delta=float(rng.uniform(1.0 / 24.0, 1.0 / 3.0)),
            x0=X0,
        )
        u, v = np.sort(rng.uniform(params.T, params.T + params.Delta, size=2))
        if index % 6 == 0:
            v = u
        closed = covariance_entry(float(u), float(v), params)
        quad = covariance_quadrature_oracle(float(u), float(v), params)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 10.0
    line = _emit(
        capsys, 1, passed,
        f"{pairs} random (u,v,params) pairs, max relative deviation "
        f"{worst:.3e} (tol 1e-9), {elapsed:.2f}s (limit 10s)",
    )
    assert passed, line


def test_criterion_2_reference_price_a(capsys):
    est = mc_price(
        SchemeKind.RECTANGLE, 400, 100_000, CALL, True, PARAMS_A, seed=0
    )
    diff = abs(est.value - REFERENCE_A)
    tol = 4.0 * est.std_error
    passed = diff <= tol
    line = _emit(
        capsys, 2, passed,
        f"rectangle n=400 M=1e5 CV price {est.value:.8f} vs reference "
        f"{REFERENCE_A}, |diff|={diff:.2e} (tol 4*se={tol:.2e})",
    )
    assert passed, line


def test_criterion_3_reference_price_b(capsys):
    est = mc_price(
        SchemeKind.RECTANGLE, 250, 200_000, CALL, True, PARAMS_B, seed=0
    )
    diff = abs(est.value - REFERENCE_B)
    tol = max(4.0 * est.std_error, 2e-3)
    passed = diff <= tol
    line = _emit(
        capsys, 3, passed,
        f"rectangle n=250 M=2e5 CV price {est.value:.8f} vs reference "
        f"{REFERENCE_B}, |diff|={diff:.2e} (tol max(4*se, 2e-3)={tol:.2e})",
    )
    assert passed, line


def test_criterion_4_strong_rates_and_leading_constant(capsys):
    """Strong rates, and the rectangle's leading constant Lambda.

    `strong_error_curve` measures the RMS distance to the ``n_ref`` grid,
    not to the true integral.  Under the restriction coupling
    ``V_n - V_{n_ref} ~ (exp(X_{T+Delta}) - exp(X_T)) (1/n - 1/n_ref) / 2``,
    so the measured error tends to ``Lambda * (1/n - 1/n_ref)``, and the
    leading-constant window is checked against that.

    At H = 0.1 the constant is reached slowly: with ``n_ref = 4096`` the
    exact ratio is still 0.665 at n = 64 and 0.797 at n = 1024, so no
    desk-scale n lands in the window.  There the test checks instead that
    every measured error agrees with the exact finite-n error from the
    closed-form law (within twice its 95% half-width), and that the exact
    ratio rises with n and stays below the window's upper edge.
    """
    n_values = (8, 16, 32, 64, 128)
    n_ref = 512
    failures = []
    parts = []
    for hurst in (0.1, 0.3):
        params = ModelParams(H=hurst, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
        rect = strong_error_curve(
            SchemeKind.RECTANGLE, n_values, n_ref, 20_000, params, seed=0
        )
        trap = strong_error_curve(
            SchemeKind.TRAPEZOID, n_values, n_ref, 20_000, params, seed=0
        )
        if abs(rect.fitted_slope - (-1.0)) > 0.1:
            failures.append(f"H={hurst} rect slope {rect.fitted_slope:.3f}")
        if abs(trap.fitted_slope - (-(1.0 + hurst))) > 0.1:
            failures.append(f"H={hurst} trap slope {trap.fitted_slope:.3f}")

        spec = gaussian_spec(params, n_ref)
        exact = {}
        for scheme, curve in (("rect", rect), ("trap", trap)):
            reference = quadrature_weights(scheme, n_ref, n_ref)
            exact[scheme] = [
                math.sqrt(
                    exact_second_moment(
                        spec, quadrature_weights(scheme, n_ref, n) - reference
                    )
                )
                for n in n_values
            ]
            for n, err, hw, ex in zip(
                n_values, curve.errors, curve.ci_halfwidths, exact[scheme]
            ):
                if abs(err - ex) > 2.0 * hw:
                    failures.append(
                        f"H={hurst} {scheme} error {err:.4e} at n={n} is not "
                        f"within 2 half-widths ({2 * hw:.1e}) of exact {ex:.4e}"
                    )

        lam = lambda_constant(params)
        asymptote = [lam * (1.0 / n - 1.0 / n_ref) for n in n_values]
        if hurst == 0.3:
            ratios = [rect.errors[i] / asymptote[i] for i in (-2, -1)]
            for n, ratio in zip(n_values[-2:], ratios):
                if not 0.85 <= ratio <= 1.15:
                    failures.append(
                        f"H={hurst} error/(Lambda(1/n-1/n_ref)) at n={n} is "
                        f"{ratio:.3f}"
                    )
            constant = (
                f"error/(Lambda(1/n-1/n_ref)) at n={n_values[-2]},"
                f"{n_values[-1]} = {ratios[0]:.3f},{ratios[1]:.3f} "
                "(window [0.85,1.15])"
            )
        else:
            ratios = [e / a for e, a in zip(exact["rect"], asymptote)]
            rising = all(b > a for a, b in zip(ratios, ratios[1:]))
            if not (rising and max(ratios) < 1.15):
                failures.append(
                    f"H={hurst} exact ratios {[round(r, 3) for r in ratios]} "
                    "do not rise below 1.15"
                )
            constant = (
                "pre-asymptotic exact error/(Lambda(1/n-1/n_ref)) at n="
                f"{','.join(map(str, n_values))} = "
                f"{','.join(f'{r:.3f}' for r in ratios)} "
                "(rising, < 1.15); measured errors within 2 half-widths of exact"
            )
        parts.append(
            f"H={hurst}: rect slope {rect.fitted_slope:.3f} (target -1±0.1), "
            f"trap slope {trap.fitted_slope:.3f} (target {-(1 + hurst)}±0.1), "
            + constant
        )
    passed = not failures
    detail = "; ".join(parts)
    if failures:
        detail += " — out of tolerance: " + "; ".join(failures)
    line = _emit(capsys, 4, passed, detail)
    assert passed, line


def _limit_price_a(M: int, seed: int) -> tuple:
    """The n -> infinity price of the ref-a protocol, and its 95% half-width.

    `REFERENCE_A` is a rectangle price at n = 400 and carries that
    scheme's grid bias.  The bias is removed with a coupled run: the
    control-variate-corrected rectangle and trapezoid payoffs at n = 400,
    on the same draws, differ by the rectangle's bias less the
    trapezoid's.  The trapezoid's own bias at n = 400 (about 1e-8 when
    its weak error at n = 14 is extrapolated at the fitted rate) stays
    inside `REFERENCE_A_CI`.
    """
    n = 400
    spec = gaussian_spec(PARAMS_A, n)
    factor = factor_for(PARAMS_A, n)
    schemes = (SchemeKind.RECTANGLE, SchemeKind.TRAPEZOID)
    cv_n = {s: cv_price(CALL, cv_moments(spec, s)) for s in schemes}
    diffs = []
    for index, width in enumerate(batch_sizes(n, M)):
        sample = sample_fine(
            factor, spec.mean, stream_for(seed, DOMAIN_MC, index), size=width
        )
        rect, trap = (
            cv_corrected_payoff(
                CALL, scheme_vix2(s, sample), geometric_vix2(sample.values, s),
                cv_n[s],
            )
            for s in schemes
        )
        diffs.append(rect - trap)
    diffs = np.concatenate(diffs)
    bias = float(np.mean(diffs))
    z95 = 1.959963984540054  # two-sided 95% normal quantile
    halfwidth = z95 * float(np.std(diffs, ddof=1)) / math.sqrt(M)
    return REFERENCE_A - bias, REFERENCE_A_CI + halfwidth


def test_criterion_5_weak_rates(capsys):
    """Weak-error slopes against the limit price of the ref-a protocol.

    Both schemes are measured against the n -> infinity price rather than
    `REFERENCE_A`, whose rectangle grid bias (about 1.9e-6) is half the
    trapezoid's error at n = 14 and would flatten its slope.  The
    rectangle's weak rate is 1.  For the trapezoid, ``1 + H`` is the
    strong rate, which for a Lipschitz payoff only bounds the weak error,
    so its slope is checked as a bound: at most ``-(1 + H) + 0.15``.
    """
    limit, limit_ci = _limit_price_a(10_000, seed=0)
    n_values = tuple(range(5, 15))
    rect = weak_error_curve(
        SchemeKind.RECTANGLE, n_values, CALL, limit, limit_ci,
        200_000, PARAMS_A, seed=0,
    )
    trap = weak_error_curve(
        SchemeKind.TRAPEZOID, n_values, CALL, limit, limit_ci,
        200_000, PARAMS_A, seed=0,
    )
    trap_bound = -(1.0 + PARAMS_A.H) + 0.15
    rect_ok = abs(rect.fitted_slope - (-1.0)) <= 0.15
    trap_ok = trap.fitted_slope <= trap_bound
    # A slope fitted to errors that the noise can hide shows nothing: the
    # standard errors and the limit's half-width must be below a tenth of
    # every error (the same rule as `reference_ci_warning`).
    resolved = all(
        not curve.protocol["reference_ci_warning"]
        and all(
            se <= 0.1 * err
            for se, err in zip(curve.protocol["std_errors"], curve.errors)
        )
        for curve in (rect, trap)
    )
    passed = rect_ok and trap_ok and resolved
    line = _emit(
        capsys, 5, passed,
        f"n=5..14 M=2e5 CV against limit price {limit:.9f} (±{limit_ci:.1e}): "
        f"rect slope {rect.fitted_slope:.3f} "
        f"(target -1±0.15, {'ok' if rect_ok else 'out'}), "
        f"trap slope {trap.fitted_slope:.3f} "
        f"(target <= {trap_bound:.2f}, {'ok' if trap_ok else 'out'}); "
        f"trap se/error at n=14 {trap.protocol['std_errors'][-1]:.1e}/"
        f"{trap.errors[-1]:.1e} (noise below a tenth of every error: "
        f"{'ok' if resolved else 'out'})",
    )
    assert passed, line


def test_criterion_6_level_variance_decay(capsys):
    """Level-variance decay, measured against the exact decay of the law.

    At H = 0.1 and n0 = 6 the levels 1..5 are pre-asymptotic: the exact
    variances of the VIX^2 corrections, from the closed-form law, decay
    with per-level slopes that are still moving toward -2 (rectangle) and
    -2(1+H) (trapezoid).  The measured payoff-correction slope is checked
    within ±0.3 of the exact slope over the same levels, and the exact
    per-level slopes up to level 8 must approach the asymptotic rate
    monotonically without crossing it.
    """
    n0, top_level = 6, 8
    levels = np.arange(1, 6, dtype=float)
    n_top = n0 * 2**top_level
    spec = gaussian_spec(PARAMS_B, n_top)
    results = []
    failures = []
    for scheme, asymptote in (
        (SchemeKind.RECTANGLE, -2.0),
        (SchemeKind.TRAPEZOID, -2.0 * (1.0 + PARAMS_B.H)),
    ):
        exact_log2_v = [
            math.log2(
                exact_variance(
                    spec,
                    quadrature_weights(scheme.value, n_top, n0 * 2**level)
                    - quadrature_weights(scheme.value, n_top, n0 * 2 ** (level - 1)),
                )
            )
            for level in range(1, top_level + 1)
        ]
        target = float(np.polyfit(levels, exact_log2_v[:5], 1)[0])
        gaps = np.diff(exact_log2_v) - asymptote
        monotone = bool(
            (np.all(gaps > 0) or np.all(gaps < 0))
            and np.all(np.diff(np.abs(gaps)) < 0)
        )

        plan = MlmcPlan(
            n0=n0,
            m_levels=(1, 1, 1, 1, 1, 1),
            lam=None,
            c1=1.0,
            c2=1.0,
            epsilon=0.01,
            scheme=scheme,
        )
        stats = level_statistics(plan, CALL, PARAMS_B, probe_M=10_000, seed=0)
        log2_v = [math.log2(stats[level].variance) for level in range(1, 6)]
        slope = float(np.polyfit(levels, log2_v, 1)[0])
        ok = abs(slope - target) <= 0.3 and monotone
        results.append(
            f"{scheme.value} slope {slope:.3f} (target exact {target:.3f}±0.3), "
            f"exact per-level slopes to level {top_level} "
            f"{','.join(f'{g + asymptote:.2f}' for g in gaps)} "
            f"{'monotone toward' if monotone else 'NOT monotone toward'} "
            f"{asymptote:.1f} ({'ok' if ok else 'out'})"
        )
        if not ok:
            failures.append(scheme.value)
    passed = not failures
    line = _emit(
        capsys, 6, passed,
        "log2 level-variance decay over levels 1..5, probe_M=1e4: "
        + "; ".join(results),
    )
    assert passed, line


def test_criterion_7_mse_cost_complexity(capsys):
    """MSE against cost for plain MC and both multilevel families.

    The abstract gives the complexities only as orders: eps^-4 for plain
    MC, eps^-2 log^2(eps) and eps^-2 for the multilevel rectangle and
    trapezoid.  Neither the constant inside the logarithm nor the eps at
    which a rate shows is stated.  Over this grid the planned level count
    grows only from 0 to 3, and the trapezoid plan reuses the rectangle's
    M0, including its (L + 1) factor; its per-level sum
    ``sum_{l<=L} 2^{-H l}`` is still close to L + 1.  Both multilevel
    families therefore follow ``MSE ~ cost^s`` with ``s`` the slope of
    eps^2 against eps^-2 ln^2(1/eps) on this eps grid, which the test
    computes and checks within ±0.1.
    """
    epsilons = (0.04, 0.02, 0.01, 0.005)
    curves = {
        family: mse_cost_curve(
            family, epsilons, 100, REFERENCE_B, PARAMS_B, CALL, seed=0
        )
        for family in ("mc-rect", "ml-rect", "ml-trap")
    }
    mc, mlr, mlt = curves["mc-rect"], curves["ml-rect"], curves["ml-trap"]
    eps = np.asarray(epsilons)
    ml_target = fit_loglog_slope(eps**-2 * np.log(1.0 / eps) ** 2, eps**2)[0]
    failures = []
    if abs(mc.fitted_slope - (-0.5)) > 0.1:
        failures.append(f"mc-rect slope {mc.fitted_slope:.3f}")
    if abs(mlr.fitted_slope - ml_target) > 0.1:
        failures.append(f"ml-rect slope {mlr.fitted_slope:.3f}")
    if abs(mlt.fitted_slope - ml_target) > 0.1:
        failures.append(f"ml-trap slope {mlt.fitted_slope:.3f}")

    fits = {
        name: fit_loglog_slope(curve.costs, curve.mses)
        for name, curve in curves.items()
    }

    def predicted_mse(name: str, cost: float) -> float:
        slope, intercept, _ = fits[name]
        return math.exp(intercept + slope * math.log(cost))

    matched = []
    for cost in (min(mc.costs), max(mc.costs)):
        mc_mse = predicted_mse("mc-rect", cost)
        below = (
            predicted_mse("ml-rect", cost) < mc_mse
            and predicted_mse("ml-trap", cost) < mc_mse
        )
        matched.append(below)
        if not below:
            failures.append(f"MLMC not below plain MC at cost {cost:.3g}")
    passed = not failures
    line = _emit(
        capsys, 7, passed,
        f"slopes: mc-rect {mc.fitted_slope:.3f} (target -0.5±0.1), "
        f"ml-rect {mlr.fitted_slope:.3f} and ml-trap {mlt.fitted_slope:.3f} "
        f"(target {ml_target:.3f}±0.1, the eps^-2 ln^2(1/eps) slope on this "
        f"grid); MLMC below MC at matched costs: {matched}"
        + (" — out of tolerance: " + "; ".join(failures) if failures else ""),
    )
    assert passed, line


def test_criterion_8_mse_guarantee_at_target(capsys):
    epsilon = 0.01
    curve = mse_cost_curve(
        "ml-rect", (epsilon,), 100, REFERENCE_B, PARAMS_B, CALL, seed=0
    )
    mse = curve.mses[0]
    bound = 1.5 * epsilon**2
    passed = mse <= bound
    line = _emit(
        capsys, 8, passed,
        f"ml-rect at epsilon={epsilon}, 100 replications: empirical MSE "
        f"{mse:.3e} <= 1.5*epsilon^2 = {bound:.3e}: {passed}",
    )
    assert passed, line


def test_criterion_9_property_suite(capsys):
    start = time.perf_counter()
    checks = []

    # Covariance matrix structure.
    cov = covariance_matrix(PARAMS_B, 32)
    checks.append(("covariance symmetry", bool(np.array_equal(cov, cov.T))))
    eigmin = float(np.linalg.eigvalsh(cov).min())
    checks.append(("covariance PSD", eigmin >= -1e-12 * float(np.trace(cov))))
    bound = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    checks.append(
        ("Cauchy-Schwarz", bool(np.all(np.abs(cov) <= bound * (1 + 1e-12))))
    )

    # Cholesky reconstruction.
    factor = cholesky_factor(cov)
    recon = float(np.max(np.abs(factor.L @ factor.L.T - cov)))
    checks.append(
        ("Cholesky reconstruction", recon <= 1e-10 * float(np.max(np.abs(cov))))
    )

    # Trapezoid is the mean of the left and right rectangle rules.
    rng = np.random.default_rng(3)
    values = rng.normal(-3.0, 0.5, size=(9, 7))
    sample = GaussianSample(values=values, grid_n=8)
    trap = scheme_vix2(SchemeKind.TRAPEZOID, sample)
    left = np.exp(values[:-1]).mean(axis=0)
    right = np.exp(values[1:]).mean(axis=0)
    checks.append(
        ("trapezoid = mean of rectangles",
         bool(np.allclose(trap, 0.5 * (left + right), rtol=1e-14))),
    )

    # Put-call parity for the lognormal pricer.
    parity_ok = all(
        abs(
            black_scholes(PayoffKind.CALL, x, y, z)
            - black_scholes(PayoffKind.PUT, x, y, z)
            - (x - y)
        ) <= 1e-12
        for x, y, z in ((1.0, 1.0, 0.2), (0.05, 0.11, 0.7), (0.3, 0.1, 1.5))
    )
    checks.append(("put-call parity", parity_ok))

    # Control-variate closed form against simulation.
    n, m = 6, 100_000
    spec = gaussian_spec(PARAMS_B, n)
    draws = payoff_eval(
        CALL,
        geometric_vix2(
            sample_fine(
                factor_for(PARAMS_B, n), spec.mean, stream_for(0, 9), size=m
            ).values
        ),
    )
    se = float(np.std(draws, ddof=1)) / math.sqrt(m)
    cv_gap = abs(float(np.mean(draws)) - cv_price(CALL, cv_moments(spec)))
    checks.append(("CV closed form vs simulation", cv_gap <= 4 * se))

    # Flat model (zero vol-of-vol) is priced exactly by both schemes.
    flat = ModelParams(H=0.3, eta=0.0, T=0.25, Delta=1.0 / 12.0, x0=X0)
    exact = math.exp(X0 / 2) - 0.1
    flat_ok = True
    for scheme in (SchemeKind.RECTANGLE, SchemeKind.TRAPEZOID):
        for use_cv in (False, True):
            est = mc_price(scheme, 4, 10, CALL, use_cv, flat, seed=0)
            flat_ok &= (
                math.isclose(est.value, exact, rel_tol=1e-13)
                and est.std_error == 0.0
            )
    checks.append(("flat-model exactness", flat_ok))
    plan = MlmcPlan(
        n0=6, m_levels=(50, 30, 10), lam=None,
        c1=1.0, c2=1.0, epsilon=0.1, scheme=SchemeKind.RECTANGLE,
    )
    ml = mlmc_price(plan, CALL, flat, seed=0)
    checks.append(
        ("flat-model MLMC corrections vanish",
         ml.bias_proxy == 0.0 and math.isclose(ml.value, exact, rel_tol=1e-13)),
    )

    # Determinism under a fixed seed.
    first = mc_price(SchemeKind.RECTANGLE, 16, 5000, CALL, True, PARAMS_B, seed=42)
    second = mc_price(SchemeKind.RECTANGLE, 16, 5000, CALL, True, PARAMS_B, seed=42)
    checks.append(
        ("determinism",
         first.value == second.value and first.std_error == second.std_error),
    )

    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks if not ok]
    passed = not failed and elapsed < 60.0
    line = _emit(
        capsys, 9, passed,
        f"{len(checks)} property checks in {elapsed:.2f}s (limit 60s)"
        + (": all passed" if not failed else f"; failed: {', '.join(failed)}"),
    )
    assert passed, line
