"""Quadrature schemes mapping a Gaussian sample to a discretized VIX^2.

VIX^2 is the window average ``(1/Delta) * int_T^{T+Delta} exp(X_T^u) du``;
the rectangle scheme applies the right-point rule on the uniform grid and
the trapezoidal scheme the trapezoid rule.  Grid averages add the rows
in order, one column per draw, so the average of a column does not
depend on the other columns of its batch; rounding stays far below the
quadrature error being studied.  The draws themselves come from a factor
product whose bits do depend on the batch width (see :mod:`.sampler`).

The estimators evaluate their draws through one batch kernel,
:func:`vix2_batches`: it writes each batch into one reused block,
exponentiates it in place, and reads the fine grid and every restricted
coarse grid from those exponentials.  The control variate's log average
``w . X`` is linear in the draw, so the kernel takes it from the batch's
``r`` normals as ``w . mu + (F^T w) . G`` (:func:`geometric_projection`),
not from the ``n+1`` grid values.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import UsageError
from .model import GaussianSpec
from .sampler import GaussianSample, batch_sizes, sample_fine, stream_for

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


def row_mean(values: np.ndarray) -> np.ndarray:
    """Mean along axis 0: the first row plus the mean deviation from it.

    For a 1-D input returns a scalar; for shape (k, m) returns the m
    column means.  The deviations are added in row order, one column per
    draw: ``np.sum`` would switch to pairwise summation for a 1-D input or
    a width-1 batch, so a column's bits would depend on the batch width.
    The shift makes equal rows average to exactly that row, so a flat
    model gives the same value on every grid.
    """
    first = values[0]
    total = np.zeros_like(first)
    for row in values[1:]:
        total += row - first
    return first + total / values.shape[0]


def quadrature_mean(kind: SchemeKind, rows: np.ndarray):
    """The scheme's weighted average of `rows` along axis 0 (grid points 0..n).

    Right points 1..n for the rectangle; the mean of the left- and
    right-point averages for the trapezoid.  Applied to ``exp(X)`` it is
    the scheme's VIX^2, and to ``X`` the control variate's log average.
    """
    if kind is SchemeKind.RECTANGLE:
        return row_mean(rows[1:])
    if kind is SchemeKind.TRAPEZOID:
        return 0.5 * (row_mean(rows[1:]) + row_mean(rows[:-1]))
    raise UsageError(f"unknown scheme kind: {kind!r}")


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
    from ``stream_for(seed, *key, i)`` into one ``(n+1) x width`` block
    and one ``(r+1) x width`` block of normals, which every batch of the
    call reuses.  The block is exponentiated in place, and the fine grid
    and each coarse grid (every ``step``-th point, for ``step`` in
    `coarse_steps`) are averaged from those exponentials.

    Yields ``(fine, coarse, cv)`` per batch: the scheme's VIX^2 per draw,
    the list of coarse VIX^2 arrays, and, when `geometric` is set, the
    control variate ``exp(w . mu + (F^T w) . G)`` from the batch's
    normals ``G`` and :func:`geometric_projection` (None otherwise).
    The fine and coarse values equal, bit for bit, what
    :func:`scheme_vix2` gives on the :func:`~roughvix.sampler.sample_fine`
    draw of the same stream.  The control variate is the Gaussian
    functional that :func:`~roughvix.payoffs.cv_price` prices; it agrees
    with :func:`~roughvix.payoffs.geometric_vix2` of the draw up to the
    rounding of the two sums.
    """
    n = spec.grid.n
    for step in coarse_steps:
        if step < 1 or n % step != 0:
            raise UsageError(f"coarse step {step} does not divide n={n}")
    widths = batch_sizes(n, total)
    rank = spec.factor.rank
    block = np.empty((n + 1) * widths[0])
    normals_block = np.empty((rank + 1) * widths[0])
    if geometric:
        offset, projection = geometric_projection(kind, spec)
    for index, width in enumerate(widths):
        values = block[: (n + 1) * width].reshape(n + 1, width)
        normals = normals_block[: (rank + 1) * width].reshape(rank + 1, width)
        stream = stream_for(seed, *key, index)
        sample = sample_fine(
            spec.factor, spec.mean, stream, size=width, out=values, normals_out=normals
        )
        cv = np.exp(offset + projection @ sample.normals) if geometric else None
        np.exp(values, out=values)
        fine = quadrature_mean(kind, values)
        yield fine, [quadrature_mean(kind, values[::step]) for step in coarse_steps], cv


def vix_from_vix2(v):
    """The VIX level ``sqrt(v)`` from a VIX^2 value ``v >= 0``."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise UsageError(f"VIX^2 must be >= 0, got {arr[arr < 0].flat[0]}")
    out = np.sqrt(arr)
    return float(out) if np.ndim(v) == 0 else out
