"""Exact simulation of the log-forward-variance Gaussian vector.

A sample is ``mean + F @ G`` with ``G`` a vector of ``r`` independent
standard normals and ``F`` the ``(n+1) x r`` pivoted Cholesky factor of
the covariance.  The rough-kernel covariance has a numerical rank of
about 15 whatever n, so the factorization stops once every residual
variance is at rounding level (Harbrecht, Peters & Schneider 2012,
Appl. Numer. Math. 62) and a draw needs ``r`` normals, not ``n+1``.
Fine and coarse grids are coupled by index restriction — the coarse
vector is exactly the fine vector at every second grid point.

Reproducibility contract
------------------------
All randomness flows from one 64-bit root seed.  A stream is the Philox
counter-based generator seeded by ``SeedSequence(root_seed, spawn_key=key)``
where `key` is a tuple of small integers identifying its role (documented
in docs/formats.md).  Standard normals are produced by inverse-CDF from
53-bit uniforms, so a stream's output is a pure function of (seed, key)
and the draw count.  A draw consumes ``r`` normals, the factor's rank.
Work is split into fixed-size batches that depend only on the grid size,
so results are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import FactorizationError, UsageError
from .model import ModelParams, gaussian_spec

__all__ = [
    "CholeskyFactor",
    "GaussianSample",
    "cholesky_factor",
    "factor_for",
    "sample_fine",
    "restrict_to_coarse",
    "stream_for",
    "batch_size",
    "batch_sizes",
]

# Pivoted Cholesky stops once the largest residual variance is at most
# RANK_TOL * max diag(C).  1e-14 keeps max|F F^T - C| at rounding level
# (<= 1e-14 max|C| at the ref-b law, n = 250...2000) with r = 14-16.
RANK_TOL = 1e-14
# A residual variance below -_INDEFINITE_TOL * max diag(C) is no rounding
# noise: no factor could then reproduce C to the 1e-10 the package promises.
_INDEFINITE_TOL = 1e-10
# Target elements per sample block: bounds peak memory regardless of n.
_BLOCK_BUDGET = 2**24

# Stream-key domains (first component of every spawn key).
DOMAIN_MC = 1
DOMAIN_MLMC = 2
DOMAIN_PILOT = 3
DOMAIN_EXPERIMENT = 4


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Low-rank factor of a covariance matrix, from pivoted Cholesky.

    Attributes
    ----------
    L : numpy.ndarray
        ``(n+1) x r`` matrix with ``L @ L.T`` reconstructing the
        covariance up to rounding.  Its columns are in pivot order, so
        it is not triangular; ``r = 0`` for a zero covariance.
    source_key : tuple
        Identifier of what was factored (parameter set and grid size, or
        a caller-supplied tag).
    """

    L: np.ndarray
    source_key: tuple

    @property
    def rank(self) -> int:
        """Number of columns, i.e. standard normals per draw."""
        return self.L.shape[1]


@dataclass(frozen=True, eq=False)
class GaussianSample:
    """A draw (or batch of draws) of ``(X_T^{u_i})`` for ``i = 0..n``.

    `values` has shape ``(n+1,)`` for a single draw or ``(n+1, m)`` for a
    batch of m draws; axis 0 always indexes the grid.
    """

    values: np.ndarray
    grid_n: int


def cholesky_factor(cov: np.ndarray, source_key: tuple = ()) -> CholeskyFactor:
    """Pivoted Cholesky factor of a symmetric PSD matrix, stopped at rounding level.

    Each step takes the largest residual variance as pivot and subtracts
    its column's contribution from the residual diagonal.  It stops when
    that variance is at most ``RANK_TOL * max diag(cov)``.  The entries
    of the remaining Schur complement are bounded by its diagonal
    (Cauchy–Schwarz), so dropping it leaves ``max|L L^T - cov|`` at that
    level.  A zero matrix (e.g. zero vol-of-vol) gives a factor with no
    columns.

    Raises
    ------
    FactorizationError
        If a residual variance falls below ``-1e-10 * max diag(cov)``,
        i.e. the matrix is indefinite beyond rounding.
    """
    cov = np.asarray(cov, dtype=float)
    residual = np.diag(cov).copy()
    dim = residual.shape[0]
    scale = float(np.max(residual, initial=0.0))
    rows = np.empty((min(dim, 32), dim))  # rows of L.T, grown by doubling
    rank = 0
    while True:
        worst = int(np.argmin(residual))
        if residual[worst] < -_INDEFINITE_TOL * scale:
            raise FactorizationError(
                f"covariance matrix is not positive semidefinite: residual "
                f"variance {residual[worst]:.3e} at index {worst} after {rank} "
                f"pivots (max diagonal {scale:.3e}, key={source_key})"
            )
        pivot = int(np.argmax(residual))
        if rank == dim or residual[pivot] <= RANK_TOL * scale:
            break
        if rank == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        column = (cov[pivot] - rows[:rank, pivot] @ rows[:rank]) / np.sqrt(residual[pivot])
        rows[rank] = column
        residual -= column * column
        residual[pivot] = 0.0
        rank += 1
    return CholeskyFactor(np.ascontiguousarray(rows[:rank].T), source_key)


_factor_cache: dict = {}


def factor_for(params: ModelParams, n: int) -> CholeskyFactor:
    """Cached pivoted Cholesky factor of the covariance for (`params`, `n`)."""
    key = (params, n)
    hit = _factor_cache.get(key)
    if hit is None:
        cov = gaussian_spec(params, n).cov
        hit = cholesky_factor(cov, source_key=key)
        hit.L.flags.writeable = False
        if len(_factor_cache) >= 64:
            _factor_cache.pop(next(iter(_factor_cache)))
        _factor_cache[key] = hit
    return hit


def stream_for(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for the given root seed and spawn-key tuple."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


def _standard_normals(stream: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF standard normals from 53-bit uniforms (no rejection)."""
    raw = stream.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    uniforms = (raw.astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(uniforms)


def sample_fine(
    factor: CholeskyFactor,
    mean: np.ndarray,
    stream: np.random.Generator,
    size: int | None = None,
) -> GaussianSample:
    """Draw from ``N(mean, L L^T)`` as ``mean + L @ G``.

    ``G`` holds the factor's rank ``r`` standard normals per draw, taken
    from `stream` as an ``(r,)`` vector, or an ``(r, size)`` block.

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
    shape = (factor.rank,) if size is None else (factor.rank, size)
    normals = _standard_normals(stream, shape)
    values = factor.L @ normals
    values += mean if size is None else mean[:, None]
    return GaussianSample(values=values, grid_n=dim - 1)


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
