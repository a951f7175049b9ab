"""Exact Gaussian sampling: factorization, streams, row-blocked draws, batching."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from roughvix import (
    FactorizationError,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    batch_size,
    batch_sizes,
    cv_moments,
    factor_for,
    gaussian_spec,
    mc_price,
    stream_for,
    strong_error_curve,
)
from roughvix import sampler
from roughvix.sampler import (
    DOMAIN_MC,
    _draw_normals,
    _row_blocks,
    _standard_normals,
    vix2_runs,
)
from roughvix.schemes import _weight_rows, geometric_projection

from oracles import contract_normals, dense_factor, row_block_batches, single_product

X0 = math.log(0.235**2)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)


# --- factorization ----------------------------------------------------------


def test_cholesky_reconstructs_the_matrix():
    # The rough-kernel covariance has a small numerical rank (10-16 here)
    # at every n, so the pivoted factor is thin and still reproduces the
    # matrix at rounding level.
    for n in (32, 250, 1000):
        spec = gaussian_spec(PB, n)
        cov, factor = spec.cov, spec.factor
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
    spec = gaussian_spec(params, 1000)
    cov, factor = spec.cov, spec.factor
    recon = factor.L @ factor.L.T
    assert np.max(np.abs(recon - cov)) <= 1e-10 * np.max(np.abs(cov))


def test_well_conditioned_matrix_factors_at_full_rank():
    cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]])
    factor = dense_factor(cov)
    assert factor.rank == 3
    np.testing.assert_allclose(factor.L @ factor.L.T, cov, rtol=0, atol=1e-15)
    # More than 32 pivots: the factor's row buffer grows past its first size.
    a = np.random.default_rng(40).standard_normal((40, 40))
    cov = a @ a.T + 40.0 * np.eye(40)
    factor = dense_factor(cov)
    assert factor.rank == 40
    assert np.max(np.abs(factor.L @ factor.L.T - cov)) <= 1e-15 * np.max(cov)


def test_zero_matrix_factors_to_zero():
    factor = dense_factor(np.zeros((4, 4)))
    assert factor.L.shape == (4, 0)
    assert factor.rank == 0


def test_rank_one_matrix_gives_rank_one():
    v = np.array([1.0, 2.0, 3.0])
    rank_one = np.outer(v, v)
    factor = dense_factor(rank_one)
    assert factor.rank == 1
    recon = factor.L @ factor.L.T
    assert np.max(np.abs(recon - rank_one)) <= 1e-15 * np.max(rank_one)


def test_indefinite_matrix_is_rejected():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError):
        dense_factor(indefinite)


def test_factorization_error_names_only_a_law():
    # A law's failure names (params, n).
    bad = ModelParams(H=0.99, eta=0.5, T=1e-6, Delta=1.0 / 12.0, x0=X0)
    with pytest.raises(FactorizationError, match=r"key=\(ModelParams\(H=0\.99, .*\), 1000\)"):
        factor_for(bad, 1000)


def test_cv_moments_match_the_sampled_law():
    # The control variate's variance is that of the sampled law,
    # |F^T w|^2 with w = a/d.  It must agree with a^T C a / d^2 from the
    # full closed-form covariance, or the control variate would be biased.
    n = 250
    spec = gaussian_spec(PB, n)
    cov = spec.cov
    trapezoid = np.full(n + 1, 2.0)
    trapezoid[0] = trapezoid[-1] = 1.0
    rectangle = np.ones(n + 1)
    rectangle[0] = 0.0
    for scheme, a, d in (
        (SchemeKind.RECTANGLE, rectangle, n),
        (SchemeKind.TRAPEZOID, trapezoid, 2 * n),
    ):
        full = math.fsum((np.outer(a, a) * cov).ravel().tolist()) / d**2
        sampled = cv_moments(spec, scheme).sigma_n ** 2
        assert abs(sampled - full) <= 1e-12 * full


@pytest.mark.parametrize("n", [*(6 * 2**level for level in range(8)), 250])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_cv_moments_share_the_kernel_projection(scheme, n):
    # The batch kernel samples the control variate as w.mu + (F^T w).G
    # from geometric_projection; its closed-form price must come from the
    # same pair, bit for bit.
    spec = gaussian_spec(PB, n)
    (a,), (d,) = _weight_rows(scheme, n, (1,))
    offset, projection = geometric_projection(a, d, spec)
    moments = cv_moments(spec, scheme)
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


def test_stream_without_key_items():
    ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    np.testing.assert_array_equal(stream_for(5).random(4), ref.random(4))
    for seed in (-1, 2**64):
        with pytest.raises(UsageError, match="an integer seed"):
            stream_for(seed)


# --- sampling ---------------------------------------------------------------


def _draws(spec, stream, width):
    """A batch's draws and normals, formed as the batch kernel forms them:
    normals into ``[G; 1]``, then ``[F | mean] @ [G; 1]`` by row blocks."""
    block = np.empty((spec.factor.rank + 1, width))
    normals = _draw_normals(stream, block)
    weights = np.column_stack((spec.factor.L, spec.mean))
    rows = [weights[a:b] @ block for a, b in _row_blocks(spec.n + 1, width)]
    return np.concatenate(rows), normals


def test_sample_consumes_rank_normals_per_draw():
    # Stream contract: a batch of m draws takes an (r, m) block of
    # inverse-CDF normals from 53-bit integers, r being the factor's rank,
    # and is the one product [F | mean] @ [G; 1].
    n, m = 40, 6
    spec = gaussian_spec(PB, n)
    factor = factor_for(PB, n)
    values, normals = _draws(spec, stream_for(5, 1, 0), m)
    expected_normals = contract_normals(stream_for(5, 1, 0), (factor.rank, m))
    np.testing.assert_array_equal(normals, expected_normals)
    expected = np.column_stack((factor.L, spec.mean)) @ np.vstack((normals, np.ones(m)))
    np.testing.assert_array_equal(values, expected)
    assert values.shape == (n + 1, m)
    assert factor.rank < n + 1


# (n, width): one-block batches, split batches whose widths are not a
# multiple of 8, and full batch widths whose last block has one row; in
# both of the latter the row blocks can move a draw's last bits.
BLOCKED_PRODUCT_CASES = [
    *((250, width) for width in (1, 2, 3, 179, 2365)),
    (6, 3),
    (96, 5669),
    (96, 32768),
    (768, 5669),
    (768, 21816),
    (1500, 11177),
    (3000, 179),
]


@pytest.mark.parametrize("n,width", BLOCKED_PRODUCT_CASES)
def test_blocked_product_agrees_with_the_single_product(n, width):
    # Two computations of the same (r+1)-term dot products differ by at
    # most 2 (r+1) 2^-53 |[F | mu]| @ |[G; 1]|, elementwise.
    spec = gaussian_spec(PB, n)
    values, normals = _draws(spec, stream_for(3, 1, 0), width)
    expected = single_product(spec.factor, spec.mean, normals)
    weights = np.abs(np.column_stack((spec.factor.L, spec.mean)))
    stacked = np.abs(np.vstack((normals, np.ones(width))))
    scale = 2 * (spec.factor.rank + 1) * 2.0**-53
    for a in range(0, n + 1, 128):  # a few rows at a time, to hold little memory
        bound = scale * (weights[a : a + 128] @ stacked)
        assert np.all(np.abs(values[a : a + 128] - expected[a : a + 128]) <= bound)


# (n, total): batches whose widths are multiples of the 4096-column tile
# (32768 at n = 6 and 250, 8192 as a remainder at n = 768 and 2000) and
# batches of one tile (remainders of 2365 and 3392, n = 768's full width
# of 21816 and n = 2000's of 8384).
TILED_CASES = [
    (6, 2 * batch_size(6) + 2365),
    (250, batch_size(250) + 3392),
    (768, batch_size(768) + 8192),
    (2000, batch_size(2000) + 8192),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("n,total", TILED_CASES)
def test_column_tiles_give_the_bits_of_full_width_row_blocks(
    monkeypatch, n, total, scheme, workers
):
    # The kernel's column tiles and worker pool must give, bit for bit,
    # the batch formed in full-width row blocks by its documented contract.
    # The oracle's products run on one BLAS thread, as the kernel's do: on
    # some OpenBLAS cores (Haswell) a product's bits depend on the count.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    spec = gaussian_spec(PB, n)
    kernel = list(vix2_runs(scheme, [(spec, total, (DOMAIN_MC, n), (2,))], 8, geometric=True))
    with sampler._ONE_BLAS_THREAD:
        oracle = list(row_block_batches(scheme, spec, total, 8, (DOMAIN_MC, n), (2,), True))
    assert len(kernel) == len(oracle) == len(batch_sizes(n, total))

    def hexes(fine, coarse, cv):
        return [[x.hex() for x in a.tolist()] for a in (fine, *coarse, cv)]

    for (_, *got), want in zip(kernel, oracle):
        assert hexes(*got) == hexes(*want)


@pytest.mark.parametrize("n", [1, 6, 12, 24, 250, 768, 1500, 3000])
def test_row_blocks_split_the_product(n):
    rows = n + 1
    for width in (1, 2, 3, 179, 2365, batch_size(n), 2**19, 2**20):
        blocks = _row_blocks(rows, width)
        assert blocks == _row_blocks(rows, width)
        assert [a for a, _ in blocks] == [0, *(b for _, b in blocks[:-1])]
        assert blocks[-1][1] == rows
        assert all(b - a >= 1 for a, b in blocks)
        assert all((b - a) * width <= 2**19 or b - a == 1 for a, b in blocks)
        assert all(b - a == blocks[0][1] for a, b in blocks[:-1])
        if rows * width <= 2**19:
            assert blocks == [(0, rows)]


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


def test_sampling_is_bit_reproducible():
    spec = gaussian_spec(PB, 10)
    one, _ = _draws(spec, stream_for(3, 4, 5), 8)
    two, _ = _draws(spec, stream_for(3, 4, 5), 8)
    np.testing.assert_array_equal(one, two)
    for scheme in SchemeKind:
        runs = [
            list(vix2_runs(scheme, [(spec, 70_001, (4, 5), (2, 5))], 3, geometric=True))
            for _ in range(2)
        ]
        for (_, f1, c1, v1), (_, f2, c2, v2) in zip(*runs, strict=True):
            assert np.array_equal(f1, f2) and np.array_equal(v1, v2)
            assert all(np.array_equal(a, b) for a, b in zip(c1, c2, strict=True))


def test_degenerate_model_samples_equal_the_mean():
    params = ModelParams(H=0.3, eta=0.0, T=0.5, Delta=0.25, x0=-1.0)
    spec = gaussian_spec(params, 5)
    values, _ = _draws(spec, stream_for(0, 1), 3)
    np.testing.assert_array_equal(values, np.tile(spec.mean[:, None], 3))


def test_empirical_moments_match_the_law():
    n, m = 4, 200_000
    spec = gaussian_spec(PB, n)
    values, _ = _draws(spec, stream_for(11, 13), m)
    emp_mean = values.mean(axis=1)
    emp_cov = np.cov(values)
    # Standard error of a mean entry is sqrt(C_ii/m) ~ 1.6e-3.
    assert np.max(np.abs(emp_mean - spec.mean)) < 5 * math.sqrt(
        np.max(np.diag(spec.cov)) / m
    )
    assert np.max(np.abs(emp_cov - spec.cov)) < 8e-3


# --- batching ---------------------------------------------------------------


def test_batch_partition_is_exact_and_capped():
    for n, total in [(6, 10), (6, 100_000), (500, 70_001), (2**24, 3)]:
        sizes = batch_sizes(n, total)
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)
        assert all(s <= batch_size(n) for s in sizes)
    assert batch_size(6) == 32768
    assert batch_size(2**24) == 1


def test_a_sample_count_must_be_an_integer():
    assert batch_sizes(6, np.int64(40_000)) == [32768, 7232]
    calls = [
        lambda: batch_sizes(6, 100.5),
        lambda: batch_sizes(6, 100.0),
        lambda: batch_sizes(6, True),
        lambda: mc_price(SchemeKind.RECTANGLE, 8, 100.5, CALL, False, PB, seed=0),
        lambda: mc_price(SchemeKind.RECTANGLE, 8, math.nan, CALL, True, PB, seed=0),
        lambda: strong_error_curve(SchemeKind.RECTANGLE, (8,), 16, 2000.5, PB, seed=0),
    ]
    for call in calls:
        with pytest.raises(UsageError, match="sample count must be an integer"):
            call()


def test_batching_does_not_change_the_stream_contract():
    # The partition is a pure function of (n, total): identical inputs
    # must produce identical batch layouts, or reproducibility breaks.
    assert batch_sizes(100, 99_999) == batch_sizes(100, 99_999)
