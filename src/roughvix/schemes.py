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

The batch kernel (:func:`~roughvix.sampler.vix2_batches`) applies these
rules to every sampled batch.  The control variate's log average ``w . X``
is linear in the draw, so :func:`geometric_projection` states it on the
draw's ``r`` normals, for both the kernel and the exact moments.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import UsageError
from .model import GaussianSpec

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
    a, d = _quadrature_weights(kind, spec.n)
    offset = math.fsum((a * spec.mean).tolist()) / d
    return offset, (spec.factor.L.T @ a) / d


def vix_from_vix2(v):
    """The VIX level ``sqrt(v)`` from a VIX^2 value ``v >= 0``."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise UsageError(f"VIX^2 must be >= 0, got {arr[arr < 0].flat[0]}")
    out = np.sqrt(arr)
    return float(out) if np.ndim(v) == 0 else out
