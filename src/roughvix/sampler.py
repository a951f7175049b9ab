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
The product's bits depend on the batch width (BLAS picks its kernel by
the column count), which the fixed partition keeps deterministic.

A batch of ``m`` draws is one ``(n+1, m)`` block, drawn from one
``(r+1, m)`` block of normals whose last row is ones; the estimators
write every batch of a call into one pair of such blocks
(``sample_fine(..., out=, normals_out=)``) and exponentiate the draws in
place, so a call's peak batch memory is one draw block and one normals
block (:func:`~roughvix.schemes.vix2_batches`).
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

# Target elements per sample block: a call holds one block of at most
# 2**24 float64 values (128 MiB), reused by all its batches, whatever n.
_BLOCK_BUDGET = 2**24

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


def _check_out(name: str, array: np.ndarray | None, shape: tuple) -> None:
    if array is not None and (
        array.shape != shape
        or array.dtype != np.float64
        or not array.flags.c_contiguous
    ):
        raise UsageError(f"{name} must be a C-contiguous float64 array of shape {shape}")


def sample_fine(
    factor: CholeskyFactor,
    mean: np.ndarray,
    stream: np.random.Generator,
    size: int | None = None,
    out: np.ndarray | None = None,
    normals_out: np.ndarray | None = None,
) -> GaussianSample:
    """Draw from ``N(mean, L L^T)`` as the one product ``[L | mean] @ [G; 1]``.

    ``G`` holds the factor's rank ``r`` standard normals per draw, taken
    from `stream` as an ``(r,)`` vector, or an ``(r, size)`` block; the
    sample's `normals` is ``G``.

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
    out : numpy.ndarray, optional
        C-contiguous float64 array of the values' shape to write the draw
        into; the sample's `values` is then `out`.  Contiguity keeps the
        product's bits those of a fresh product.
    normals_out : numpy.ndarray, optional
        C-contiguous float64 array of shape ``(r+1,)`` or ``(r+1, size)``
        to hold ``[G; 1]``: the normals fill its first ``r`` rows and its
        last row is set to ones.
    """
    dim = mean.shape[0]
    if factor.L.shape[0] != dim:
        raise UsageError(
            f"factor dimension {factor.L.shape} does not match mean length {dim}"
        )
    batch = () if size is None else (size,)
    rank = factor.rank
    _check_out("out", out, (dim, *batch))
    _check_out("normals_out", normals_out, (rank + 1, *batch))
    if normals_out is None:
        normals_out = np.empty((rank + 1, *batch))
    normals = _standard_normals(stream, normals_out[:rank])
    normals_out[rank] = 1.0
    values = np.matmul(np.column_stack((factor.L, mean)), normals_out, out=out)
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
    """Samples per batch at grid size `n` (fixed partition, memory-bounded)."""
    return max(1, min(32_768, _BLOCK_BUDGET // (n + 1)))


def batch_sizes(n: int, total: int) -> list:
    """The fixed partition of `total` samples into batches at grid size `n`."""
    if total < 1:
        raise UsageError(f"sample count must be >= 1, got {total}")
    width = batch_size(n)
    full, rest = divmod(total, width)
    return [width] * full + ([rest] if rest else [])
