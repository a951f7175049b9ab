"""Exact simulation of the log-forward-variance Gaussian vector.

A sample is the one product ``[F | mean] @ [G; 1]``, i.e. ``mean + F @ G``,
with ``G`` a vector of ``r`` independent standard normals and ``F`` the
``(n+1) x r`` pivoted Cholesky factor of the covariance, which
:mod:`.model` builds and caches with the rest of the law
(:attr:`~roughvix.model.GaussianSpec.factor`).  The sample carries the
normals it consumed, so a linear functional of the draw, such as the
control variate's log average, can be taken from them in ``r`` steps.
Fine and coarse grids are coupled by index restriction — the coarse
vector is exactly the fine vector at every second grid point.

Reproducibility contract
------------------------
All randomness flows from one 64-bit root seed.  A stream is the Philox
counter-based generator seeded by ``SeedSequence(root_seed, spawn_key=key)``
where `key` is a tuple of small integers identifying its role (documented
in docs/formats.md).  Standard normals are produced by inverse-CDF from
the 53-bit uniforms ``(k + 1/2) 2^-53``, so a stream's output is a pure
function of (seed, key) and the draw count.  A draw consumes ``r``
normals, the factor's rank.  Work is split into fixed-size batches that
depend only on the grid size, so results are bit-identical across runs.
The product's bits depend on the batch width and its row blocks (BLAS
picks its kernel by the product's shape), which the fixed partition
keeps deterministic.

A batch of ``m`` draws is drawn from one ``(r+1, m)`` block of normals
whose last row is ones, and its product is formed a block of rows at a
time (:func:`_row_blocks`, about ``2^19`` values each, so that a block
is still in cache when it is used).  The estimators never hold the
``(n+1, m)`` draw: they exponentiate and average each row block as it
is formed (:func:`~roughvix.schemes.vix2_batches`), so a call's peak
batch memory is one normals block and one row block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import UsageError
from .model import CholeskyFactor, ModelParams, gaussian_spec

__all__ = [
    "GaussianSample",
    "factor_for",
    "sample_fine",
    "restrict_to_coarse",
    "stream_for",
    "batch_size",
    "batch_sizes",
]

# Target elements per batch, (n+1) x width.  It sets the batch partition,
# on which the streams and the product's bits depend; the estimators'
# memory is set by the row blocks below, not by it.
_BLOCK_BUDGET = 2**24
# Target elements per row block of a batch's product (4 MiB of float64),
# small enough to stay in cache from its product through its exp and
# average.
_ROW_BLOCK_BUDGET = 2**19

# Stream-key domains (first component of every spawn key).
DOMAIN_MC = 1
DOMAIN_MLMC = 2
DOMAIN_PILOT = 3
DOMAIN_EXPERIMENT = 4


@dataclass(frozen=True, eq=False)
class GaussianSample:
    """A draw (or batch of draws) of ``(X_T^{u_i})`` for ``i = 0..n``.

    `values` has shape ``(n+1,)`` for a single draw or ``(n+1, m)`` for a
    batch of m draws; axis 0 always indexes the grid.  For a draw of
    :func:`sample_fine`, `normals` holds the ``(r,)`` or ``(r, m)``
    standard normals ``G`` it consumed (None for other samples).
    """

    values: np.ndarray
    grid_n: int
    normals: np.ndarray | None = None


def factor_for(params: ModelParams, n: int) -> CholeskyFactor:
    """Pivoted Cholesky factor of the law of `params` on the n-step grid.

    The factor is cached with the law in :func:`~roughvix.model.gaussian_spec`.
    """
    return gaussian_spec(params, n).factor


def stream_for(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for the given root seed and spawn-key tuple."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


def _standard_normals(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with inverse-CDF standard normals from 53-bit uniforms.

    ``Generator.random`` returns ``k 2^-53`` for the top 53 bits ``k`` of
    one 64-bit word, the ``k`` that ``integers(0, 2**53)`` returns; adding
    ``2^-54`` rounds exactly as ``(k + 0.5) 2^-53`` does.  The uniforms
    are written into `out` (C-contiguous float64, filled in row-major
    order) and turned into normals in place.  No rejection.
    """
    stream.random(out=out)
    out += 2.0**-54
    return ndtri(out, out=out)


def _draw_normals(stream: np.random.Generator, block: np.ndarray) -> np.ndarray:
    """Fill `block` with ``[G; 1]`` and return ``G``, its leading rows.

    The standard normals ``G`` fill every row of `block` but the last,
    which is set to ones, so ``[F | mean] @ block`` is ``mean + F G``.
    """
    normals = _standard_normals(stream, block[:-1])
    block[-1] = 1.0
    return normals


def _row_blocks(rows: int, width: int) -> list:
    """Row bounds ``(a, b)`` in which a ``rows x width`` product is formed.

    The blocks cover rows ``0..rows-1`` in order with
    ``_ROW_BLOCK_BUDGET // width`` rows each, at least 2 (the last block
    may have fewer), so a batch that fits in the budget is one block.  No block has exactly one row: a
    one-row product takes BLAS's matrix-vector route, whose bits differ,
    so a one-row tail takes a row from the block before it (or joins it,
    when that block has only 2 rows).  The split is a pure function of
    ``(rows, width)``.
    """
    size = max(2, _ROW_BLOCK_BUDGET // max(width, 1))
    bounds = [*range(0, rows, size), rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        if size == 2:
            del bounds[-2]
        else:
            bounds[-2] -= 1
    return list(zip(bounds, bounds[1:]))


def sample_fine(
    factor: CholeskyFactor,
    mean: np.ndarray,
    stream: np.random.Generator,
    size: int | None = None,
) -> GaussianSample:
    """Draw from ``N(mean, L L^T)`` as the product ``[L | mean] @ [G; 1]``.

    ``G`` holds the factor's rank ``r`` standard normals per draw, taken
    from `stream` as an ``(r,)`` vector, or an ``(r, size)`` block; the
    sample's `normals` is ``G``.  Each call draws into fresh arrays.  The
    product is formed block by block over the rows of :func:`_row_blocks`,
    as the estimators' kernel forms it, so the two give the same bits.

    Parameters
    ----------
    factor : CholeskyFactor
        Factor whose row count matches `mean`.
    mean : numpy.ndarray
        Mean vector of length n+1.
    stream : numpy.random.Generator
        Source of randomness (see :func:`stream_for`).
    size : int, optional
        If given, draw a batch of `size` samples; values get shape
        ``(n+1, size)``.
    """
    dim = mean.shape[0]
    if factor.L.shape[0] != dim:
        raise UsageError(
            f"factor dimension {factor.L.shape} does not match mean length {dim}"
        )
    batch = () if size is None else (size,)
    block = np.empty((factor.rank + 1, *batch))
    normals = _draw_normals(stream, block)
    weights = np.column_stack((factor.L, mean))
    values = np.empty((dim, *batch))
    for a, b in _row_blocks(dim, size or 1):
        np.matmul(weights[a:b], block, out=values[a:b])
    return GaussianSample(values=values, grid_n=dim - 1, normals=normals)


def restrict_to_coarse(fine: GaussianSample) -> GaussianSample:
    """Coarse sample at every second grid point (indices 0, 2, ..., n).

    Because the grid is uniform, the restricted vector is exactly the
    Gaussian vector of the grid with half as many steps, coupled to the
    fine sample through shared randomness.  Requires an even step count.
    """
    if fine.grid_n % 2 != 0:
        raise UsageError(
            f"restriction needs an even step count, got n={fine.grid_n}"
        )
    return GaussianSample(values=fine.values[::2], grid_n=fine.grid_n // 2)


def batch_size(n: int) -> int:
    """Samples per batch at grid size `n`: the width of the fixed partition.

    At most 32768 and at most ``2^24 / (n+1)``.  The widths fix the
    streams and the product's bits; they do not bound the estimators'
    memory, which holds one row block of a batch at a time.
    """
    return max(1, min(32_768, _BLOCK_BUDGET // (n + 1)))


def batch_sizes(n: int, total: int) -> list:
    """The fixed partition of `total` samples into batches at grid size `n`."""
    if total < 1:
        raise UsageError(f"sample count must be >= 1, got {total}")
    width = batch_size(n)
    full, rest = divmod(total, width)
    return [width] * full + ([rest] if rest else [])
