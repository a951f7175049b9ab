"""Quadrature schemes mapping a Gaussian sample to a discretized VIX^2.

VIX^2 is the window average ``(1/Delta) * int_T^{T+Delta} exp(X_T^u) du``;
the rectangle scheme applies the right-point rule on the uniform grid and
the trapezoidal scheme the trapezoid rule.  Both are fixed linear
weights ``w = a/d`` on ``exp(X_T^{u_i})``, with integer weights ``a``
and divisor ``d``.  A coarse grid of the multilevel coupling reads
every ``s``-th point of the fine grid, so its rule is the ``n/s``
grid's weights placed on fine indices ``0, s, 2s, ...``.
:func:`_weight_rows` is the one statement of both rules and their
coarse restrictions, and it serves the VIX^2 values, the control
variate and its exact moments.

The batch kernel (:func:`~roughvix.sampler.vix2_runs`) applies these
rules to every sampled batch.  The control variate's log average ``w . X``
is linear in the draw, so :func:`geometric_projection` states it on the
draw's ``r`` normals from the fine weight row, for both the kernel and
the exact moments.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import UsageError, _choice
from .model import GaussianSpec

__all__ = [
    "SchemeKind",
]


class SchemeKind(Enum):
    """The two quadrature rules for the VIX^2 window integral."""

    RECTANGLE = "rect"
    TRAPEZOID = "trap"


def _weight_rows(kind: SchemeKind, n: int, steps) -> tuple:
    """Integer weight rows on fine indices 0..n of the grids with these steps.

    The one statement of both rules.  On a k-step grid the rectangle is
    ``a = (0, 1, ..., 1)``, ``d = k``, and the trapezoid ``a = (1, 2, ...,
    2, 1)``, ``d = 2k``.  Row ``g`` is the rule of the ``n/s`` grid, ``s =
    steps[g]``, on indices ``0, s, 2s, ..., n`` (zero elsewhere), and
    ``d[g]`` its divisor; each row sums to exactly ``d[g]``.  Products
    with integer weights are exact, so :func:`geometric_projection`'s
    extended-precision ``a . mu`` is correctly rounded.  Returns ``(rows,
    d)``, of shapes ``(len(steps), n+1)`` and ``(len(steps),)``.
    """
    kind = _choice(kind, SchemeKind, "scheme")
    rows = np.zeros((len(steps), n + 1))
    divisors = np.empty(len(steps))
    for g, step in enumerate(steps):
        if step < 1 or n % step != 0:
            raise UsageError(f"coarse step {step} does not divide n={n}")
        if kind is SchemeKind.RECTANGLE:
            rows[g, step::step], divisors[g] = 1.0, n // step
        else:
            rows[g, ::step], divisors[g] = 2.0, 2 * n // step
            rows[g, [0, n]] = 1.0
    return rows, divisors


def geometric_projection(a: np.ndarray, d: float, spec: GaussianSpec) -> tuple:
    """The weighted log average ``w . X`` as a function of the draw's normals.

    For a weight row ``a`` and divisor ``d`` of :func:`_weight_rows`, ``w =
    a/d``, a draw ``X = mu + F G`` of the law has ``w . X = w . mu + (F^T
    w) . G``.  Returns ``(w . mu, F^T w)``: a float, with ``a . mu`` summed
    in extended precision, and an ``(r,)`` array.  The sampled control
    variate and its exact moments (:func:`~roughvix.payoffs.cv_moments`)
    both come from this pair.
    """
    offset = math.fsum((a * spec.mean).tolist()) / float(d)
    return offset, (spec.factor.L.T @ a) / d
