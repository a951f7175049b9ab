"""Exception hierarchy for the pricing engine.

Every error deliberately raised by this package derives from
:class:`RoughVixError`, so callers can catch one base class.  The CLI maps
the three concrete categories to exit codes (usage -> 2, numeric -> 3,
I/O -> 4).
"""


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
