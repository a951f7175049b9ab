"""Gauss hypergeometric function 2F1 on the nonpositive real axis.

The covariance closed form needs 2F1(a, b; c; x) with a = 1/2 - H,
b = 1/2 + H, c = 3/2 + H and x in (-inf, 0]; |x| reaches about
n * T / Delta.  Values come from ``scipy.special.hyp2f1``.  For large |x|
scipy uses the 1/x transformation, whose two terms cancel as a - b nears
a nonzero integer: against mpmath at 40 digits its relative error grows
like 2e-17 / |a - b + 1| (H near 1/2) and 2e-15 / |a - b + 2| (H near 1).
Within 3e-5 of |a - b| = 1, or within 3e-3 of |a - b| = 2 and beyond, the
value is taken through the Pfaff transformation instead, whose argument
x / (x - 1) lies in [0, 1).  That route is 50 to 110 times slower: best
of 5 runs on x = -logspace(5, 8) with scipy 1.17 on a 2-core x86-64 Xeon,
39-44 us per argument at H = 0.49999 and 0.9995 against 0.4-0.8 us at
H = 0.4999 and 0.99.  So the first band is narrow enough to leave
H = 0.4999 on the direct call.

On the covariance family the relative error against mpmath is at most
1e-12 for H in [3e-4, 1 - 1e-9] and x in -logspace(-10, 8), band edges
included.  As a - b nears 0 the direct call degrades like 2e-16 / H
(6e-11 at H = 1e-6); within 1e-9 of H = 1 the Pfaff route reaches 1e-8.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import UsageError
from .errors import _FINITE, _POSITIVE, _real, _reals

# Half-widths of the Pfaff bands around |a - b| = 1 and |a - b| >= 2.
_PFAFF_BAND_ONE = 3e-5
_PFAFF_BAND_TWO = 3e-3

__all__ = ["hyp2f1"]


def hyp2f1(a: float, b: float, c: float, x):
    """Evaluate the Gauss hypergeometric function 2F1(a, b; c; x) for x <= 0.

    Parameters
    ----------
    a, b, c : float
        Function parameters, finite numbers (not bools); `c` must be positive.
    x : float or array_like
        Argument(s), each finite and <= 0.

    Returns
    -------
    float or numpy.ndarray
        Function value(s) in the shape of `x`; a scalar input returns a
        scalar.  The module docstring gives the route and its accuracy.

    Raises
    ------
    UsageError
        If a parameter is not a finite real number (a bool is none),
        ``c <= 0``, or an argument is no number, positive or not finite.
    """
    a, b, c = _real(a, "a", _FINITE), _real(b, "b", _FINITE), _real(c, "c", _POSITIVE)
    x_arr = _reals(x, "x")
    if np.any(x_arr > 0) or not np.all(np.isfinite(x_arr)):
        bad = x_arr[(x_arr > 0) | ~np.isfinite(x_arr)].flat[0]
        raise UsageError(f"hyp2f1 supports only finite x <= 0, got x={bad}")
    k = round(a - b)
    band = _PFAFF_BAND_ONE if abs(k) == 1 else _PFAFF_BAND_TWO
    if k != 0 and abs(a - b - k) < band:
        out = (1.0 - x_arr) ** (-a) * special.hyp2f1(a, c - b, c, x_arr / (x_arr - 1.0))
    else:
        out = special.hyp2f1(a, b, c, x_arr)
    return float(out) if x_arr.ndim == 0 else out
