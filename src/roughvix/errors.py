"""Exception hierarchy for the pricing engine.

Every error deliberately raised by this package derives from
:class:`RoughVixError`, so callers can catch one base class.  The CLI maps
the three concrete categories to exit codes (usage -> 2, numeric -> 3,
I/O -> 4).  The one warning category, :class:`DegenerateEstimateWarning`,
flags an estimate whose standard error cannot be trusted.

One rule checks each kind of argument, here because every layer can
import this module.  :func:`_whole` takes a whole number of at least a
least value, and :func:`_real` a real number within a bound.  A bound
is a pair ``(condition, text)``, such as :data:`_POSITIVE`; the library
and the CLI's :class:`~roughvix.cli.RunConfig` read the same pairs.
:func:`_choice` takes one of a set of choices, an Enum's members or
strings, and :func:`_items` a non-empty list, each item checked by
another rule.  :func:`_reals` takes an array of real numbers.  No rule
takes a bool for a number, or text for a number or a list.
"""

import math
import numbers

__all__ = [
    "RoughVixError", "UsageError", "HypothesisError", "NumericError", "FactorizationError",
    "DegenerateEstimateWarning",
]


class RoughVixError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RoughVixError, ValueError):
    """Invalid arguments, configuration, or violated preconditions."""


class HypothesisError(UsageError):
    """A closed-form shortcut was requested outside its domain of validity.

    Raised, for example, when the rectangle-scheme error constant is
    requested for H >= 1/2 or for a non-constant initial curve.  Callers
    that can fall back to pilot estimation catch this and do so.
    """


class NumericError(RoughVixError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class FactorizationError(NumericError):
    """The covariance is indefinite beyond rounding.

    Raised when a residual variance of the pivoted Cholesky
    factorization falls below ``-1e-10`` times the largest variance: no
    factor could then reproduce the matrix to the package's accuracy.
    """


class DegenerateEstimateWarning(UserWarning):
    """An estimate's samples have a variance of exactly 0 under a random law.

    Warned, for example, when every draw's VIX^2 underflows to 0 at a
    large vol-of-vol, so every payoff is the same: the reported standard
    error of 0 then says nothing about the estimate's error.  A flat
    model (a factor of rank 0) is exact and never warns.
    """


# Bounds are stated as the condition a value must meet, so NaN fails them.
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
_FINITE = (math.isfinite, "finite")
_UNIT_INTERVAL = (lambda v: 0 < v < 1, "in (0, 1)")


def _whole(value, least: int, what: str) -> int:
    """`value` as an int, if it is a whole number ``>= least``; else UsageError.

    Integral floats such as ``8.0`` pass; ``8.7``, nan, inf and bools do not.
    """
    whole = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    )
    if whole and value >= least:
        return int(value)
    raise UsageError(f"{what} must be an integer >= {least}, got {value}")


def _real(value, what: str, bound: tuple) -> float:
    """`value` as a float, if it is a real number within `bound`; else UsageError.

    A bool, a string or an array is no real number.  An int beyond the
    float range is taken as infinite, so a bound refuses it.
    """
    # A float first: the numbers.Real check alone takes about 0.8 us.
    real = isinstance(value, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )
    if not real:
        raise UsageError(
            f"{what} must be a number, not a {type(value).__name__}, got {what}={value!r}"
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    condition, text = bound
    if not condition(number):
        raise UsageError(f"{what} must be {text}, got {what}={value!r}")
    return number


def _choice(value, choices, what: str):
    """The member of `choices` that `value` is; else UsageError.

    The members are compared one by one, a string by equality and any
    other value by identity, so text is never an Enum's member:
    ``"call" in PayoffKind`` raises TypeError before Python 3.12 and is
    True from 3.12 on.
    """
    for choice in choices:
        if value is choice or (isinstance(value, str) and value == choice):
            return choice
    raise UsageError(f"unknown {what} {value!r}; choose from {', '.join(map(str, choices))}")


def _items(values, what: str, item) -> tuple:
    """``item(v)`` for each `v` in `values`, if it is a non-empty list; else UsageError.

    A list is any iterable but text, such as a tuple or an array.
    """
    try:
        listed = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:  # a scalar, or a 0-d array
        listed = None
    if listed is None:
        raise UsageError(f"{what} must be a list, got {what}={values!r}")
    if not listed:
        raise UsageError(f"{what} must not be empty")
    return tuple(map(item, listed))


def _reals(values, what: str):
    """`values` as a float array, if its entries are numbers; else UsageError.

    Text, a bool or None is none, where numpy reads ``"0.04"`` as 0.04.
    """
    import numpy as np  # here, so that this module loads without numpy

    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise UsageError(f"{what} must be an array of numbers, got {what}={values!r}")
    return array.astype(float, copy=False)
