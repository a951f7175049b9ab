"""Each correctness check of the benchmark passes on a true input and fails
on a perturbed one.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import roughvix as rv  # noqa: E402

H, ETA, T, DELTA, N = 0.1, 0.5, 0.5, 1.0 / 12.0, 32
X0 = math.log(0.235**2)
EPS = 5e-4


@pytest.fixture(scope="module")
def law():
    params = rv.ModelParams(H=H, eta=ETA, T=T, Delta=DELTA, x0=X0)
    return rv.gaussian_spec(params, N), rv.factor_for(params, N)


def test_quadrature_matches_the_diagonal_closed_form():
    for u in (T, T + 0.5 * DELTA, T + DELTA):
        exact = ETA**2 / (2 * H) * (u ** (2 * H) - (u - T) ** (2 * H))
        assert checks.covariance_by_quadrature(u, u, H, ETA, T) == pytest.approx(exact, rel=1e-12)


def test_covariance_check_catches_a_perturbed_entry(law):
    spec, _ = law
    assert checks.check_covariance(spec.cov, H, ETA, T, DELTA, N) == []
    cov = np.array(spec.cov)
    i, j = checks.sample_pairs(N)[4]
    cov[i, j] *= 1 + 1e-8
    assert len(checks.check_covariance(cov, H, ETA, T, DELTA, N)) == 1


def test_mean_check_catches_a_perturbed_entry(law):
    spec, _ = law
    assert checks.check_mean(spec.mean, H, ETA, T, DELTA, N, X0) == []
    mean = np.array(spec.mean)
    mean[N // 2] += 1e-10
    assert checks.check_mean(mean, H, ETA, T, DELTA, N, X0) != []


def test_factor_check_catches_a_perturbed_factor(law):
    spec, factor = law
    assert checks.check_factor(factor.L, spec.cov) == []
    F = np.array(factor.L)
    F[N, 3] += 1e-6 * np.max(np.abs(F))
    assert checks.check_factor(F, spec.cov) != []
    assert checks.check_factor(F[:, :-1], spec.cov) != []


def test_factor_check_accepts_a_low_rank_factor(law):
    spec, _ = law
    values, vectors = np.linalg.eigh(spec.cov)
    keep = values > 1e-16 * values[-1]
    F = vectors[:, keep] * np.sqrt(values[keep])
    assert F.shape[1] < N + 1
    assert checks.check_factor(F, spec.cov) == []


def test_refb_check_catches_a_shifted_price_and_a_zero_error():
    bound = 5e-4
    assert checks.check_refb_estimate(checks.REF_B + 3e-6, 1.5e-6, bound) == []
    assert checks.check_refb_estimate(checks.REF_B + 2 * bound, 1.5e-6, bound) != []
    assert checks.check_refb_estimate(checks.REF_B, 0.0, bound) != []


def test_consistency_check_catches_an_outlier():
    values = [0.121974, 0.1219755, 0.1219725, 0.121974]
    errors = [1.5e-6] * 4
    assert checks.check_consistent(values, errors) == []
    values[2] += 2e-5
    assert checks.check_consistent(values, errors) != []


def test_ml_check_catches_a_far_estimate():
    assert checks.check_ml_estimate(checks.REF_B + 3 * EPS, EPS) == []
    assert checks.check_ml_estimate(checks.REF_B + 5 * EPS, EPS) != []


@pytest.mark.parametrize("count", [5, 30, 100])
def test_mse_check_passes_a_plan_that_spends_its_whole_budget(count):
    # Errors of RMS exactly eps, the worst a correct plan may do.
    rng = np.random.default_rng(count)
    errors = rng.standard_normal(count)
    errors *= EPS / math.sqrt(np.mean(errors**2))
    assert checks.check_mse(list(checks.REF_B + errors), EPS) == []
    assert checks.check_mse(list(checks.REF_B + 2.0 * errors), EPS) != []


def test_mse_bound_is_criterion_8_at_100_estimates():
    assert checks.mse_bound(EPS, 100) == pytest.approx(1.5 * EPS**2, rel=0.05)
    assert checks.mse_bound(EPS, 1000) == 1.5 * EPS**2
