"""Exception hierarchy for the pricing engine.

Every error deliberately raised by this package derives from
:class:`RoughVixError`, so callers can catch one base class.  The CLI maps
the three concrete categories to exit codes (usage -> 2, numeric -> 3,
I/O -> 4).  The one warning category, :class:`DegenerateEstimateWarning`,
flags an estimate whose standard error cannot be trusted.
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


class DegenerateEstimateWarning(UserWarning):
    """An estimate's samples have a variance of exactly 0 under a random law.

    Warned, for example, when every draw's VIX^2 underflows to 0 at a
    large vol-of-vol, so every payoff is the same: the reported standard
    error of 0 then says nothing about the estimate's error.  A flat
    model (a factor of rank 0) is exact and never warns.
    """
