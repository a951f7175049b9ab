"""Exact Gaussian sampling: factorization, streams, restriction, batching."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from roughvix import (
    FactorizationError,
    GaussianSample,
    ModelParams,
    SchemeKind,
    UsageError,
    batch_size,
    batch_sizes,
    cholesky_factor,
    covariance_matrix,
    cv_moments,
    factor_for,
    gaussian_spec,
    grid_for,
    restrict_to_coarse,
    sample_fine,
    stream_for,
)
from roughvix.sampler import _standard_normals
from roughvix.schemes import geometric_projection

X0 = math.log(0.235**2)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)


# --- factorization ----------------------------------------------------------


def test_cholesky_reconstructs_the_matrix():
    # The rough-kernel covariance has a small numerical rank (10-16 here)
    # at every n, so the pivoted factor is thin and still reproduces the
    # matrix at rounding level.
    for n in (32, 250, 1000):
        cov = covariance_matrix(grid_for(PB, n), PB)
        factor = cholesky_factor(cov)
        assert factor.L.shape == (n + 1, factor.rank)
        assert factor.rank <= 20
        recon = factor.L @ factor.L.T
        assert np.max(np.abs(recon - cov)) <= 1e-13 * np.max(np.abs(cov))


# Every law of the documented domain at n = 1000 factors to 1e-10.  T, Delta
# = 1e-6 is left out: there the closed-form entries themselves are only
# accurate to about 3e-11 relative.
@pytest.mark.parametrize(
    "H, T, Delta",
    [
        (H, T, Delta)
        for H in (0.005, 0.05, 0.3, 0.4999, 0.75, 0.99)
        for T, Delta in ((0.5, 1.0 / 12.0), (1e-4, 1.0 / 12.0), (0.5, 1e-6))
    ]
    + [(0.1, 1e-4, 1.0 / 12.0)],
)
def test_factor_reconstructs_across_the_domain(H, T, Delta):
    params = ModelParams(H=H, eta=0.5, T=T, Delta=Delta, x0=X0)
    cov = covariance_matrix(grid_for(params, 1000), params)
    factor = cholesky_factor(cov)
    recon = factor.L @ factor.L.T
    assert np.max(np.abs(recon - cov)) <= 1e-10 * np.max(np.abs(cov))


def test_well_conditioned_matrix_factors_at_full_rank():
    cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]])
    factor = cholesky_factor(cov)
    assert factor.rank == 3
    np.testing.assert_allclose(factor.L @ factor.L.T, cov, rtol=0, atol=1e-15)


def test_zero_matrix_factors_to_zero():
    factor = cholesky_factor(np.zeros((4, 4)))
    assert factor.L.shape == (4, 0)
    assert factor.rank == 0


def test_rank_one_matrix_gives_rank_one():
    v = np.array([1.0, 2.0, 3.0])
    rank_one = np.outer(v, v)
    factor = cholesky_factor(rank_one)
    assert factor.rank == 1
    recon = factor.L @ factor.L.T
    assert np.max(np.abs(recon - rank_one)) <= 1e-15 * np.max(rank_one)


def test_indefinite_matrix_is_rejected():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError):
        cholesky_factor(indefinite)


def test_cv_moments_match_the_sampled_law():
    # The control variate's variance is that of the sampled law,
    # |F^T w|^2 with w = a/d.  It must agree with a^T C a / d^2 from the
    # full closed-form covariance, or the control variate would be biased.
    n = 250
    spec = gaussian_spec(PB, n)
    trapezoid = np.full(n + 1, 2.0)
    trapezoid[0] = trapezoid[-1] = 1.0
    rectangle = np.ones(n + 1)
    rectangle[0] = 0.0
    for scheme, a, d in (
        (SchemeKind.RECTANGLE, rectangle, n),
        (SchemeKind.TRAPEZOID, trapezoid, 2 * n),
    ):
        full = math.fsum((np.outer(a, a) * spec.cov).ravel().tolist()) / d**2
        sampled = cv_moments(spec, n, scheme).sigma_n ** 2
        assert abs(sampled - full) <= 1e-12 * full


@pytest.mark.parametrize("n", [*(6 * 2**level for level in range(8)), 250])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_cv_moments_share_the_kernel_projection(scheme, n):
    # The batch kernel samples the control variate as w.mu + (F^T w).G
    # from geometric_projection; its closed-form price must come from the
    # same pair, bit for bit.
    spec = gaussian_spec(PB, n)
    offset, projection = geometric_projection(scheme, spec)
    moments = cv_moments(spec, n, scheme)
    assert projection.shape == (spec.factor.rank,)
    assert moments.mu_n == offset
    assert moments.sigma_n == math.sqrt(math.fsum((projection * projection).tolist()))


def test_factor_cache_returns_same_object():
    f1 = factor_for(PB, 20)
    f2 = factor_for(PB, 20)
    assert f1 is f2
    assert f1 is gaussian_spec(PB, 20).factor
    assert not f1.L.flags.writeable
    # The factor lives in the one law cache, so clearing it drops the factor too.
    gaussian_spec.cache_clear()
    f3 = factor_for(PB, 20)
    assert f3 is not f1
    np.testing.assert_array_equal(f3.L, f1.L)
    # A law whose factorization fails still has its spec, and the failure
    # is not cached: every call factors again and raises again.
    bad = ModelParams(H=0.99, eta=0.5, T=1e-6, Delta=1.0 / 12.0, x0=X0)
    spec = gaussian_spec(bad, 1000)
    for _ in range(2):
        with pytest.raises(FactorizationError):
            factor_for(bad, 1000)
    assert gaussian_spec(bad, 1000) is spec
    assert "factor" not in vars(spec)


# --- streams ----------------------------------------------------------------


def test_streams_are_deterministic_and_keyed():
    a = stream_for(7, 1, 0).standard_normal(4)
    b = stream_for(7, 1, 0).standard_normal(4)
    c = stream_for(7, 2, 0).standard_normal(4)
    d = stream_for(8, 1, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# --- sampling ---------------------------------------------------------------


def test_sample_shapes():
    spec = gaussian_spec(PB, 6)
    factor = factor_for(PB, 6)
    single = sample_fine(factor, spec.mean, stream_for(0, 9))
    assert single.values.shape == (7,)
    assert single.grid_n == 6
    batch = sample_fine(factor, spec.mean, stream_for(0, 9), size=5)
    assert batch.values.shape == (7, 5)


def test_sample_consumes_rank_normals_per_draw():
    # Stream contract: a batch of m draws takes an (r, m) block of
    # inverse-CDF normals from 53-bit integers, r being the factor's rank,
    # and is the one product [F | mean] @ [G; 1].
    n, m = 40, 6
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    sample = sample_fine(factor, spec.mean, stream_for(5, 1, 0), size=m)
    raw = stream_for(5, 1, 0).integers(0, 1 << 53, size=(factor.rank, m), dtype=np.uint64)
    normals = ndtri((raw.astype(np.float64) + 0.5) * 2.0**-53)
    expected = np.column_stack((factor.L, spec.mean)) @ np.vstack((normals, np.ones(m)))
    np.testing.assert_array_equal(sample.values, expected)
    np.testing.assert_array_equal(sample.normals, normals)
    # A single draw takes the stream's first r normals.
    single = sample_fine(factor, spec.mean, stream_for(5, 1, 0))
    first = normals.ravel()[: factor.rank]
    np.testing.assert_array_equal(single.normals, first)
    np.testing.assert_array_equal(
        single.values, np.column_stack((factor.L, spec.mean)) @ np.append(first, 1.0)
    )
    assert factor.rank < n + 1


@pytest.mark.parametrize("n", [*(6 * 2**level for level in range(8)), 250])
def test_sample_equals_the_factor_product_plus_mean_at_full_width(n):
    # At the full batch width of every fig3 grid and of ref-b, the mean
    # folded into the product adds the same bits as a separate pass.
    spec = gaussian_spec(PB, n)
    sample = sample_fine(spec.factor, spec.mean, stream_for(3, 1, 0), size=batch_size(n))
    expected = spec.factor.L @ sample.normals
    expected += spec.mean[:, None]
    assert np.array_equal(sample.values, expected)


def test_normals_match_the_integer_route_and_stream_state():
    # Generator.random + 2^-54 gives the floats (k + 0.5) 2^-53 of the
    # integers route from the same 64-bit words, and consumes as many,
    # also when it fills the leading rows of a larger block.
    ours, ref = stream_for(7, 2), stream_for(7, 2)
    block = np.full((15, 50_000), 7.0)
    normals = _standard_normals(ours, block[:14])
    assert normals.base is block
    raw = ref.integers(0, 1 << 53, size=(14, 50_000), dtype=np.uint64)
    expected = ndtri((raw.astype(np.float64) + 0.5) * 2.0**-53)
    np.testing.assert_array_equal(normals, expected)
    assert np.all(block[14] == 7.0)
    np.testing.assert_array_equal(
        ours.bit_generator.random_raw(9), ref.bit_generator.random_raw(9)
    )


def test_sample_writes_into_out():
    spec = gaussian_spec(PB, 6)
    factor = factor_for(PB, 6)
    out = np.empty((7, 5))
    normals_out = np.empty((factor.rank + 1, 5))
    sample = sample_fine(
        factor, spec.mean, stream_for(0, 9), size=5, out=out, normals_out=normals_out
    )
    assert sample.values is out
    assert sample.normals.base is normals_out
    fresh = sample_fine(factor, spec.mean, stream_for(0, 9), size=5)
    np.testing.assert_array_equal(out, fresh.values)
    np.testing.assert_array_equal(normals_out[:-1], fresh.normals)
    np.testing.assert_array_equal(normals_out[-1], np.ones(5))
    for bad in (np.empty((7, 4)), np.empty((5, 7)).T, np.empty((7, 5), dtype=np.float32)):
        with pytest.raises(UsageError):
            sample_fine(factor, spec.mean, stream_for(0, 9), size=5, out=bad)
    rows = factor.rank + 1
    for bad in (np.empty((rows - 1, 5)), np.empty((5, rows)).T, np.empty(rows)):
        with pytest.raises(UsageError):
            sample_fine(factor, spec.mean, stream_for(0, 9), size=5, normals_out=bad)


def test_sample_dimension_mismatch_rejected():
    spec = gaussian_spec(PB, 6)
    factor = factor_for(PB, 8)
    with pytest.raises(UsageError):
        sample_fine(factor, spec.mean, stream_for(0, 9))


def test_sampling_is_bit_reproducible():
    spec = gaussian_spec(PB, 10)
    factor = factor_for(PB, 10)
    one = sample_fine(factor, spec.mean, stream_for(3, 4, 5), size=8)
    two = sample_fine(factor, spec.mean, stream_for(3, 4, 5), size=8)
    np.testing.assert_array_equal(one.values, two.values)


def test_degenerate_model_samples_equal_the_mean():
    params = ModelParams(H=0.3, eta=0.0, T=0.5, Delta=0.25, x0=-1.0)
    spec = gaussian_spec(params, 5)
    factor = factor_for(params, 5)
    sample = sample_fine(factor, spec.mean, stream_for(0, 1), size=3)
    np.testing.assert_array_equal(sample.values, np.tile(spec.mean[:, None], 3))


def test_empirical_moments_match_the_law():
    n, m = 4, 200_000
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    sample = sample_fine(factor, spec.mean, stream_for(11, 13), size=m)
    emp_mean = sample.values.mean(axis=1)
    emp_cov = np.cov(sample.values)
    # Standard error of a mean entry is sqrt(C_ii/m) ~ 1.6e-3.
    assert np.max(np.abs(emp_mean - spec.mean)) < 5 * math.sqrt(
        np.max(np.diag(spec.cov)) / m
    )
    assert np.max(np.abs(emp_cov - spec.cov)) < 8e-3


# --- restriction ------------------------------------------------------------


def test_restriction_halves_the_grid_keeping_endpoints():
    spec = gaussian_spec(PB, 8)
    factor = factor_for(PB, 8)
    fine = sample_fine(factor, spec.mean, stream_for(0, 2), size=3)
    coarse = restrict_to_coarse(fine)
    assert coarse.grid_n == 4
    np.testing.assert_array_equal(coarse.values, fine.values[::2])
    again = restrict_to_coarse(coarse)
    np.testing.assert_array_equal(again.values, fine.values[::4])


def test_restriction_needs_even_grid():
    sample = GaussianSample(values=np.zeros(6), grid_n=5)
    with pytest.raises(UsageError):
        restrict_to_coarse(sample)


# --- batching ---------------------------------------------------------------


def test_batch_partition_is_exact_and_capped():
    for n, total in [(6, 10), (6, 100_000), (500, 70_001), (2**24, 3)]:
        sizes = batch_sizes(n, total)
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)
        assert all(s <= batch_size(n) for s in sizes)
    assert batch_size(6) == 32768
    assert batch_size(2**24) == 1


def test_batching_does_not_change_the_stream_contract():
    # The partition is a pure function of (n, total): identical inputs
    # must produce identical batch layouts, or reproducibility breaks.
    assert batch_sizes(100, 99_999) == batch_sizes(100, 99_999)
