"""Quadrature schemes mapping a Gaussian sample to a discretized VIX^2.

VIX^2 is the window average ``(1/Delta) * int_T^{T+Delta} exp(X_T^u) du``;
the rectangle scheme applies the right-point rule on the uniform grid and
the trapezoidal scheme the trapezoid rule.  Grid averages add the rows
in order, one column per draw, so a draw's value does not depend on its
batch; rounding stays far below the quadrature error being studied.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import UsageError
from .sampler import GaussianSample

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
    e = _exp_values(sample)
    out = row_mean(e[1:])
    return float(out) if out.ndim == 0 else out


def trapezoid_vix2(sample: GaussianSample):
    """Trapezoid value ``(1/2n) * sum_{i=1..n} (exp(X^{u_i}) + exp(X^{u_{i-1}}))``.

    Identically the mean of the left- and right-point rectangle rules.
    """
    e = _exp_values(sample)
    out = 0.5 * (row_mean(e[1:]) + row_mean(e[:-1]))
    return float(out) if out.ndim == 0 else out


def scheme_vix2(kind: SchemeKind, sample: GaussianSample):
    """Apply the scheme selected by `kind`."""
    if kind is SchemeKind.RECTANGLE:
        return rectangle_vix2(sample)
    if kind is SchemeKind.TRAPEZOID:
        return trapezoid_vix2(sample)
    raise UsageError(f"unknown scheme kind: {kind!r}")


def vix_from_vix2(v):
    """The VIX level ``sqrt(v)`` from a VIX^2 value ``v >= 0``."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise UsageError(f"VIX^2 must be >= 0, got {arr[arr < 0].flat[0]}")
    out = np.sqrt(arr)
    return float(out) if np.ndim(v) == 0 else out
