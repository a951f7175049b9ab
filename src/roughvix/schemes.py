"""Quadrature schemes mapping a Gaussian sample to a discretized VIX^2.

VIX^2 is the window average ``(1/Delta) * int_T^{T+Delta} exp(X_T^u) du``;
the rectangle scheme applies the right-point rule on the uniform grid and
the trapezoidal scheme the trapezoid rule.  Grid averages add the rows
in order, one column per draw, so the average of a column does not
depend on the other columns of its batch; rounding stays far below the
quadrature error being studied.  The draws themselves come from a factor
product whose bits do depend on the batch width (see :mod:`.sampler`).

The estimators evaluate their draws through one batch kernel,
:func:`vix2_batches`: it forms each batch a cache-sized block of grid
rows at a time in one reused buffer, exponentiates the block in place,
and adds its rows to running averages of the fine grid and of every
restricted coarse grid.  :func:`quadrature_mean` is the same running
average fed the whole grid at once, so both give the same bits.  The
control variate's log average ``w . X`` is linear in the draw, so the
kernel takes it from the batch's ``r`` normals as ``w . mu + (F^T w) .
G`` (:func:`geometric_projection`), not from the ``n+1`` grid values.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import UsageError
from .model import GaussianSpec
from .sampler import GaussianSample, _draw_normals, _row_blocks, batch_sizes, stream_for

__all__ = [
    "SchemeKind",
    "rectangle_vix2",
    "trapezoid_vix2",
    "scheme_vix2",
    "vix_from_vix2",
]


class SchemeKind(Enum):
    """The two quadrature rules for the VIX^2 window integral."""

    RECTANGLE = "rect"
    TRAPEZOID = "trap"


class _RowMean:
    """Running mean of the grid rows ``start, start + step, ...`` below `stop`.

    The rows arrive in order, a block of consecutive grid rows at a time
    (:meth:`fold`).  The mean is the first row plus the mean deviation
    from it, the deviations added in row order, one column per draw:
    ``np.sum`` would switch to pairwise summation for a 1-D input or a
    width-1 batch, so a column's bits would depend on the batch width.
    The shift makes equal rows average to exactly that row, so a flat
    model gives the same value on every grid.
    """

    def __init__(self, start: int, stop: int, step: int):
        self.start, self.stop, self.step = start, stop, step
        self.count = len(range(start, stop, step))
        self.last = start + (self.count - 1) * step
        self.first = self.total = self.value = None

    def fold(self, block: np.ndarray, offset: int) -> None:
        """Add the rows of `block`, which holds grid rows ``offset, offset + 1, ...``."""
        # This side's first row at or after grid row `offset`.
        start = max(self.start, offset + (self.start - offset) % self.step)
        rows = block[start - offset : max(self.stop - offset, 0) : self.step]
        fresh = self.first is None and len(rows) > 0
        if fresh:
            self.first, self.total = rows[0], np.zeros_like(rows[0])
            rows = rows[1:]
        first, total = self.first, self.total
        for row in rows:
            total += row - first
        if offset <= self.last < offset + len(block):
            self.value = first + total / self.count
            self.first = self.total = None  # the next side reuses this memory while cached
        elif fresh:
            self.first = first.copy()  # later blocks overwrite this one

    def mean(self):
        """The mean of the rows, once all are folded in: an array of one
        value per draw, or a scalar for single draws."""
        return self.value


class _GridMean:
    """Running :func:`quadrature_mean` of every `step`-th row of an ``(n+1)``-row grid.

    Fed blocks of consecutive rows in order (:meth:`fold`), it adds each
    row exactly as the one-shot average of the whole grid does.
    """

    def __init__(self, kind: SchemeKind, n: int, step: int = 1):
        self.sides = [_RowMean(step, n + 1, step)]
        if kind is SchemeKind.TRAPEZOID:
            self.sides.append(_RowMean(0, n + 1 - step, step))
        elif kind is not SchemeKind.RECTANGLE:
            raise UsageError(f"unknown scheme kind: {kind!r}")

    def fold(self, block: np.ndarray, offset: int) -> None:
        for side in self.sides:
            side.fold(block, offset)

    def value(self):
        if len(self.sides) == 1:
            return self.sides[0].mean()
        right, left = self.sides
        return 0.5 * (right.mean() + left.mean())


def quadrature_mean(kind: SchemeKind, rows: np.ndarray):
    """The scheme's weighted average of `rows` along axis 0 (grid points 0..n).

    Right points 1..n for the rectangle; the mean of the left- and
    right-point averages for the trapezoid.  Applied to ``exp(X)`` it is
    the scheme's VIX^2, and to ``X`` the control variate's log average.
    """
    grid = _GridMean(kind, rows.shape[0] - 1)
    grid.fold(rows, 0)
    return grid.value()


def _quadrature_weights(kind: SchemeKind, n: int) -> tuple:
    """Integer weights ``a`` on indices 0..n and divisor ``d`` with ``w = a/d``.

    Rectangle: ``a = (0, 1, ..., 1)``, ``d = n``.  Trapezoid:
    ``a = (1, 2, ..., 2, 1)``, ``d = 2n``.  Products with these weights
    are exact in floating point, so the extended-precision sum of
    ``a . mu`` in :func:`geometric_projection` is correctly rounded.
    """
    if kind is SchemeKind.RECTANGLE:
        a = np.ones(n + 1)
        a[0] = 0.0
        return a, n
    if kind is SchemeKind.TRAPEZOID:
        a = np.full(n + 1, 2.0)
        a[0] = a[-1] = 1.0
        return a, 2 * n
    raise UsageError(f"unknown scheme kind: {kind!r}")


def geometric_projection(kind: SchemeKind, spec: GaussianSpec) -> tuple:
    """The scheme-weighted log average as a function of the draw's normals.

    For the scheme's quadrature weights ``w`` and the law's mean ``mu``
    and factor ``F``, a draw ``X = mu + F G`` has ``w . X = w . mu +
    (F^T w) . G``.  Returns the pair ``(w . mu, F^T w)``: a float, with
    ``a . mu`` summed in extended precision, and an ``(r,)`` array.  The
    sampled control variate and its exact moments
    (:func:`~roughvix.payoffs.cv_moments`) both come from this pair.
    """
    a, d = _quadrature_weights(kind, spec.grid.n)
    offset = math.fsum((a * spec.mean).tolist()) / d
    return offset, (spec.factor.L.T @ a) / d


def _exp_values(sample: GaussianSample) -> np.ndarray:
    if sample.grid_n < 1:
        raise UsageError(f"scheme needs at least one step, got n={sample.grid_n}")
    if sample.values.shape[0] != sample.grid_n + 1:
        raise UsageError(
            f"sample of grid size n={sample.grid_n} must carry n+1 values, "
            f"got {sample.values.shape[0]}"
        )
    return np.exp(sample.values)


def rectangle_vix2(sample: GaussianSample):
    """Right-point rectangle value ``(1/n) * sum_{i=1..n} exp(X_T^{u_i})``.

    Returns a float for a single draw, an array for a batched sample.
    """
    out = quadrature_mean(SchemeKind.RECTANGLE, _exp_values(sample))
    return float(out) if out.ndim == 0 else out


def trapezoid_vix2(sample: GaussianSample):
    """Trapezoid value ``(1/2n) * sum_{i=1..n} (exp(X^{u_i}) + exp(X^{u_{i-1}}))``.

    Identically the mean of the left- and right-point rectangle rules.
    """
    out = quadrature_mean(SchemeKind.TRAPEZOID, _exp_values(sample))
    return float(out) if out.ndim == 0 else out


def scheme_vix2(kind: SchemeKind, sample: GaussianSample):
    """Apply the scheme selected by `kind`."""
    if kind is SchemeKind.RECTANGLE:
        return rectangle_vix2(sample)
    if kind is SchemeKind.TRAPEZOID:
        return trapezoid_vix2(sample)
    raise UsageError(f"unknown scheme kind: {kind!r}")


def vix2_batches(
    kind: SchemeKind,
    spec: GaussianSpec,
    total: int,
    seed: int,
    key: tuple,
    coarse_steps=(),
    geometric: bool = False,
):
    """The batch kernel: VIX^2 of `total` draws of the law `spec`, batch by batch.

    Batch ``i`` of the fixed partition ``batch_sizes(n, total)`` draws
    its normals ``G`` from ``stream_for(seed, *key, i)`` into one
    ``(r+1) x width`` block ``[G; 1]``, which every batch of the call
    reuses.  The draws ``[F | mu] @ [G; 1]`` are formed one row block at
    a time (:func:`~roughvix.sampler._row_blocks`) in one small buffer,
    also reused: each block is exponentiated in place and its rows are
    added to running averages of the fine grid and of each coarse grid
    (every ``step``-th point, for ``step`` in `coarse_steps`), in grid
    order.  No ``(n+1) x width`` block is ever held.

    Yields ``(fine, coarse, cv)`` per batch: the scheme's VIX^2 per draw,
    the list of coarse VIX^2 arrays, and, when `geometric` is set, the
    control variate ``exp(w . mu + (F^T w) . G)`` from the batch's
    normals ``G`` and :func:`geometric_projection` (None otherwise).
    The fine and coarse values equal, bit for bit, what
    :func:`scheme_vix2` gives on the :func:`~roughvix.sampler.sample_fine`
    draw of the same stream, which forms its product over the same row
    blocks.  The control variate is the Gaussian functional that
    :func:`~roughvix.payoffs.cv_price` prices; it agrees with
    :func:`~roughvix.payoffs.geometric_vix2` of the draw up to the
    rounding of the two sums.
    """
    n = spec.grid.n
    for step in coarse_steps:
        if step < 1 or n % step != 0:
            raise UsageError(f"coarse step {step} does not divide n={n}")
    widths = batch_sizes(n, total)
    rank = spec.factor.rank
    weights = np.column_stack((spec.factor.L, spec.mean))
    stacked_block = np.empty((rank + 1) * widths[0])
    block = np.empty(
        max((b - a) * width for width in set(widths) for a, b in _row_blocks(n + 1, width))
    )
    if geometric:
        offset, projection = geometric_projection(kind, spec)
    for index, width in enumerate(widths):
        stacked = stacked_block[: (rank + 1) * width].reshape(rank + 1, width)
        normals = _draw_normals(stream_for(seed, *key, index), stacked)
        cv = np.exp(offset + projection @ normals) if geometric else None
        grids = [_GridMean(kind, n, step) for step in (1, *coarse_steps)]
        for a, b in _row_blocks(n + 1, width):
            rows = block[: (b - a) * width].reshape(b - a, width)
            np.matmul(weights[a:b], stacked, out=rows)
            np.exp(rows, out=rows)
            for grid in grids:
                grid.fold(rows, a)
        fine, *coarse = (grid.value() for grid in grids)
        yield fine, coarse, cv


def vix_from_vix2(v):
    """The VIX level ``sqrt(v)`` from a VIX^2 value ``v >= 0``."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise UsageError(f"VIX^2 must be >= 0, got {arr[arr < 0].flat[0]}")
    out = np.sqrt(arr)
    return float(out) if np.ndim(v) == 0 else out
