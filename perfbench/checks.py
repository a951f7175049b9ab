"""Correctness checks on the engine's outputs, computed apart from the engine.

Nothing here imports the package under test: the covariance is recomputed
by adaptive quadrature, the mean by the closed-form drift, and the
pricing checks compare against published reference prices or against
properties the estimators promise.  Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# ref-b reference price and its uncertainty (docs/formats.md), which is
# also the fig3 reference: the two protocols share their parameters.
REF_B = 0.121971
REF_B_SE = 6e-7

COV_RTOL = 1e-9
FACTOR_RTOL = 1e-10
MEAN_ATOL = 1e-12


def covariance_by_quadrature(u: float, v: float, H: float, eta: float, T: float) -> float:
    """``eta^2 * int_0^T (u-s)^{H-1/2} (v-s)^{H-1/2} ds`` for ``u, v >= T``.

    With ``r = T - s``, ``a = min(u, v) - T`` and ``b = max(u, v) - T`` the
    integrand is ``(a+r)^{H-1/2} (b+r)^{H-1/2}``, singular at ``r = 0``
    when ``a = 0``.  The substitution ``r = t^q`` absorbs the singularity:
    with ``q = 1/(2H)`` the integrand becomes the constant ``q`` when
    ``a = b = 0``, and with ``q = 1/(H+1/2)`` it becomes
    ``q (b+t^q)^{H-1/2}`` when ``a = 0 < b``.  For ``a > 0`` the same ``q``
    smooths the steep start, and the integration is split where
    ``t^q`` crosses ``a`` and ``b``.
    """
    a, b = sorted((u - T, v - T))
    if a < 0:
        raise ValueError(f"dates must be >= T, got ({u}, {v}) with T={T}")
    if b == 0.0:
        q = 1.0 / (2.0 * H)
        return eta**2 * q * T ** (1.0 / q)
    q = 1.0 / (H + 0.5)

    def integrand(t):
        r = t**q
        if a == 0.0:
            return q * (b + r) ** (H - 0.5)
        return q * t ** (q - 1.0) * (a + r) ** (H - 0.5) * (b + r) ** (H - 0.5)

    upper = T ** (1.0 / q)
    breaks = sorted({x ** (1.0 / q) for x in (a, b) if 0.0 < x ** (1.0 / q) < upper})
    edges = [0.0, *breaks, upper]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        value, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)
        total += value
    return eta**2 * total


def sample_pairs(n: int) -> list:
    """Fixed covariance entries to check: diagonal, adjacent and far pairs."""
    mid, quarter = n // 2, n // 4
    pairs = [
        (0, 0), (mid, mid), (n, n),
        (0, 1), (mid - 1, mid), (n - 1, n),
        (0, n), (0, mid), (quarter, n - quarter),
    ]
    return sorted(set(pairs))


def check_covariance(cov, H, eta, T, Delta, n) -> list:
    """Sampled entries of `cov` against :func:`covariance_by_quadrature`."""
    points = np.linspace(T, T + Delta, n + 1)
    failures = []
    for i, j in sample_pairs(n):
        expected = covariance_by_quadrature(points[i], points[j], H, eta, T)
        got = float(cov[i, j])
        if not abs(got - expected) <= COV_RTOL * abs(expected):
            failures.append(
                f"cov[{i},{j}] = {got!r}, quadrature {expected!r} "
                f"(relative error {abs(got - expected) / abs(expected):.2e} > {COV_RTOL})"
            )
    return failures


def drift_mean(H, eta, T, Delta, n, x0) -> np.ndarray:
    """Closed-form mean ``x0 - eta^2/(4H) (u^{2H} - (u-T)^{2H})`` on the grid."""
    u = np.linspace(T, T + Delta, n + 1)
    return x0 - eta**2 / (4.0 * H) * (u ** (2 * H) - (u - T) ** (2 * H))


def check_mean(mean, H, eta, T, Delta, n, x0) -> list:
    expected = drift_mean(H, eta, T, Delta, n, x0)
    worst = float(np.max(np.abs(np.asarray(mean) - expected)))
    limit = MEAN_ATOL * max(1.0, float(np.max(np.abs(expected))))
    if not worst <= limit:
        return [f"mean differs from the closed-form drift by {worst:.3e} > {limit:.1e}"]
    return []


def check_factor(F, cov) -> list:
    """The sampled law reproduces the covariance: ``max|F F^T - C| <= 1e-10 max|C|``.

    `F` may have any number of columns.
    """
    F = np.asarray(F)
    cov = np.asarray(cov)
    if F.ndim != 2 or F.shape[0] != cov.shape[0]:
        return [f"factor shape {F.shape} does not match covariance {cov.shape}"]
    worst = float(np.max(np.abs(F @ F.T - cov)))
    limit = FACTOR_RTOL * float(np.max(np.abs(cov)))
    if not worst <= limit:
        return [f"max|F F^T - C| = {worst:.3e} > {limit:.3e}"]
    return []


def lambda_constant(H, eta, T, Delta, x0) -> float:
    """The rectangle scheme's L^2 error constant ``Lambda`` (H < 1/2, flat x0).

    ``I = int_0^T t^{H-1/2} (Delta+t)^{H-1/2} dt`` is integrated under
    ``t = tau^{2/(2H+1)}``, which removes the singularity at ``t = 0``.
    """
    q = 2.0 / (2.0 * H + 1.0)
    integral, _ = integrate.quad(
        lambda tau: q * (Delta + tau**q) ** (H - 0.5), 0.0, T ** (1.0 / q),
        epsabs=0.0, epsrel=1e-13, limit=500,
    )
    t1 = math.exp(eta**2 * T ** (2 * H) / (2 * H))
    t2 = math.exp(eta**2 * ((T + Delta) ** (2 * H) - Delta ** (2 * H)) / (2 * H))
    t3 = math.exp(eta**2 * integral)
    return 0.5 * math.exp(x0) * math.sqrt(max(t1 + t2 - 2.0 * t3, 0.0))


def check_refb_estimate(value, std_error, grid_bias_bound) -> list:
    """ref-b price against the reference, allowing the n = 250 grid bias.

    The reference is the grid limit, so the rectangle price at n = 250
    may differ from it by its weak error, which the Lipschitz bound
    ``L_phi * ||V_n - V||_2 <= L_phi * Lambda / n`` caps (`grid_bias_bound`).
    """
    failures = []
    if not std_error > 0:
        failures.append(f"std_error = {std_error!r}, expected > 0")
    combined = math.sqrt(std_error**2 + REF_B_SE**2)
    limit = 4.0 * combined + grid_bias_bound
    if not abs(value - REF_B) <= limit:
        failures.append(
            f"ref-b price {value!r} is {abs(value - REF_B):.3e} from {REF_B} "
            f"(limit 4 combined standard errors + grid bias bound = {limit:.3e})"
        )
    return failures


def check_consistent(values, std_errors) -> list:
    """Estimates on distinct seeds agree with one another within their errors.

    Each estimate must lie within 4 combined standard errors of the mean
    of the others: an unbiased estimator with a correct standard error
    passes, a wrong standard error or a seed-dependent bias does not.
    """
    k = len(values)
    if k < 2:
        return []
    failures = []
    for i in range(k):
        others = [v for j, v in enumerate(values) if j != i]
        others_var = sum(s**2 for j, s in enumerate(std_errors) if j != i) / (k - 1) ** 2
        combined = math.sqrt(std_errors[i] ** 2 + others_var)
        gap = abs(values[i] - sum(others) / (k - 1))
        if not gap <= 4.0 * combined:
            failures.append(
                f"estimate {i} = {values[i]!r} is {gap:.3e} from the mean of the "
                f"other {k - 1} (limit 4 combined standard errors = {4.0 * combined:.3e})"
            )
    return failures


def check_ml_estimate(value, epsilon, reference=REF_B) -> list:
    if not abs(value - reference) <= 4.0 * epsilon:
        return [f"estimate {value!r} is {abs(value - reference):.3e} from {reference} > 4 eps"]
    return []


def mse_bound(epsilon: float, count: int) -> float:
    """Upper limit for the empirical MSE of `count` estimates at target `epsilon`.

    Criterion 8 allows ``1.5 eps^2`` for 100 estimates.  An estimator whose
    true MSE is the whole budget ``eps^2`` has squared errors of mean
    ``eps^2`` and standard deviation about ``sqrt(2) eps^2``, so the mean of
    `count` of them has standard deviation ``eps^2 sqrt(2/count)``; the
    limit keeps four of those above ``eps^2`` when that is more than 1.5.
    """
    return epsilon**2 * max(1.5, 1.0 + 4.0 * math.sqrt(2.0 / count))


def check_mse(values, epsilon, reference=REF_B) -> list:
    if not values:
        return []
    mse = math.fsum((v - reference) ** 2 for v in values) / len(values)
    limit = mse_bound(epsilon, len(values))
    if not mse <= limit:
        return [f"empirical MSE {mse:.3e} over {len(values)} estimates > {limit:.3e}"]
    return []
