"""Quadrature schemes mapping a Gaussian sample to a discretized VIX^2.

VIX^2 is the window average ``(1/Delta) * int_T^{T+Delta} exp(X_T^u) du``;
the rectangle scheme applies the right-point rule on the uniform grid and
the trapezoidal scheme the trapezoid rule.  Both are fixed linear
weights ``w = a/d`` on ``exp(X_T^{u_i})``, with integer weights ``a``
and divisor ``d`` (:func:`_quadrature_weights`), and that one statement
of each rule serves the VIX^2 values, the control variate and its exact
moments.  A coarse grid of the multilevel coupling reads every
``s``-th point of the fine grid, so its rule is the ``n/s`` grid's
weights placed on fine indices ``0, s, 2s, ...`` (:func:`_weight_rows`).

The estimators evaluate their draws through one batch kernel,
:func:`vix2_batches`: while worker threads draw later batches' normals
(:func:`~roughvix.sampler._normals_ahead`, which also holds OpenBLAS
at one thread for the call), it forms each batch a
cache-sized block of grid rows at a time in one reused buffer,
exponentiates the block in place,
and adds one product of the weight rows with the block, shifted by the
exponentiated grid row 0, to a per-grid accumulator.  The integer rows
sum to exactly their divisors, so a flat model gives exactly that row 0
on every grid.  Rounding stays far below the quadrature error being
studied; a draw's bits may depend on its batch width through the
factor product and the weight product (see :mod:`.sampler`).  The
control variate's log average ``w . X`` is linear in the draw, so the
kernel takes it from the batch's ``r`` normals as ``w . mu + (F^T w) .
G`` (:func:`geometric_projection`), not from the ``n+1`` grid values.
"""

from __future__ import annotations

import math
from contextlib import closing
from enum import Enum

import numpy as np

from .errors import UsageError
from .model import GaussianSpec
from .sampler import _draw_rows, _normals_ahead, _row_blocks, batch_sizes

__all__ = [
    "SchemeKind",
    "vix_from_vix2",
]


class SchemeKind(Enum):
    """The two quadrature rules for the VIX^2 window integral."""

    RECTANGLE = "rect"
    TRAPEZOID = "trap"


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


def _weight_rows(kind: SchemeKind, n: int, steps) -> tuple:
    """Integer weight rows on fine indices 0..n of the grids with these steps.

    Row ``g`` is the ``n/s`` grid's rule :func:`_quadrature_weights` for
    ``s = steps[g]``, placed on indices ``0, s, 2s, ..., n`` (zero
    elsewhere), and ``d[g]`` its divisor; each row sums to exactly
    ``d[g]``.  Returns ``(rows, d)``, a ``(len(steps), n+1)`` array and
    a ``(len(steps),)`` array.
    """
    rows = np.zeros((len(steps), n + 1))
    divisors = np.empty(len(steps))
    for g, step in enumerate(steps):
        if step < 1 or n % step != 0:
            raise UsageError(f"coarse step {step} does not divide n={n}")
        rows[g, ::step], divisors[g] = _quadrature_weights(kind, n // step)
    return rows, divisors


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
    its normals ``G`` from ``stream_for(seed, *key, i)`` into an
    ``(r+1) x width`` block ``[G; 1]``.  With more than one batch and
    more than one CPU, a pool of worker threads draws up to one batch
    per CPU ahead of the batch being formed, into reused blocks
    (:func:`~roughvix.sampler._normals_ahead`); a draw's bits do not
    depend on the worker count, and closing the generator, or an error
    in a worker, stops the pool.  The draws ``[F | mu] @ [G; 1]`` are
    formed one row block at a time (:func:`~roughvix.sampler._draw_rows`)
    in one small buffer, also reused, and each block is exponentiated
    in place.  With ``e0``
    the exponentiated grid row 0, kept from the first block, the weight
    rows ``A`` of the fine grid and of each coarse grid (every
    ``step``-th point, for ``step`` in `coarse_steps`) add ``A[:, a:b] @
    (block - e0)`` to a ``grids x width`` accumulator, and grid ``g``'s
    VIX^2 is ``e0 + acc[g] / d[g]``.  No ``(n+1) x width`` block is ever
    held.

    Yields ``(fine, coarse, cv)`` per batch: the scheme's VIX^2 per draw,
    the list of coarse VIX^2 arrays, and, when `geometric` is set, the
    control variate ``exp(w . mu + (F^T w) . G)`` from the batch's
    normals ``G`` and :func:`geometric_projection` (None otherwise): the
    Gaussian functional that :func:`~roughvix.payoffs.cv_price` prices.
    """
    n = spec.grid.n
    weight_rows, divisors = _weight_rows(kind, n, (1, *coarse_steps))
    widths = batch_sizes(n, total)
    factor_mean = np.column_stack((spec.factor.L, spec.mean))
    block = np.empty(
        max((b - a) * width for width in set(widths) for a, b in _row_blocks(n + 1, width))
    )
    if geometric:
        offset, projection = geometric_projection(kind, spec)
    with closing(_normals_ahead(seed, key, widths, spec.factor.rank)) as stacked_blocks:
        for stacked in stacked_blocks:
            cv = np.exp(offset + projection @ stacked[:-1]) if geometric else None
            acc = np.zeros((len(divisors), stacked.shape[1]))
            for a, rows in _draw_rows(factor_mean, stacked, block):
                np.exp(rows, out=rows)
                if a == 0:
                    e0 = rows[0].copy()
                rows -= e0
                acc += weight_rows[:, a : a + len(rows)] @ rows
            fine, *coarse = e0 + acc / divisors[:, None]
            yield fine, coarse, cv


def vix_from_vix2(v):
    """The VIX level ``sqrt(v)`` from a VIX^2 value ``v >= 0``."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise UsageError(f"VIX^2 must be >= 0, got {arr[arr < 0].flat[0]}")
    out = np.sqrt(arr)
    return float(out) if np.ndim(v) == 0 else out
