"""Model parameters, grid, and the exact Gaussian law of log forward variances.

The forward variance for date ``u`` seen at time ``T`` is ``exp(X_T^u)``
where, under the power-law kernel ``K(u, s) = eta * (u - s)**(H - 1/2)``,
the vector ``(X_T^{u_i})`` over a grid of dates is Gaussian with explicit
mean and covariance:

- ``mu(u)   = X0(u) - eta^2/(4H) * (u^{2H} - (u-T)^{2H})``
- ``C(u, u) = eta^2/(2H) * (u^{2H} - (u-T)^{2H})``
- ``C(u, v) = eta^2 * int_0^T (u-s)^{H-1/2} (v-s)^{H-1/2} ds`` for u != v,
  which has a closed form in terms of the Gauss hypergeometric function.

The law on a grid is built once per ``(params, n)`` and cached by
:func:`gaussian_spec`: its mean and the low-rank pivoted Cholesky factor
that :mod:`.sampler` draws from.  The rough-kernel covariance has a
numerical rank of about 15 whatever n, so the factorization stops once
every residual variance is at rounding level (Harbrecht, Peters &
Schneider 2012, Appl. Numer. Math. 62) and a draw needs ``r`` normals,
not ``n+1``.  Every covariance value comes from one closed-form row
routine, the covariance of one date with a set of dates: the factor
reads the diagonal and its ``r`` pivot rows, O(r n) entries, and the
full matrix (:func:`covariance_matrix`, :attr:`GaussianSpec.cov`) is
built a row at a time, only for checks against it, and never cached.
Everything here is deterministic; sampling lives in :mod:`.sampler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import FactorizationError, HypothesisError, NumericError, UsageError
from .errors import _FINITE, _NONNEGATIVE, _POSITIVE, _UNIT_INTERVAL
from .errors import _choice, _items, _real, _reals, _whole
from .hypergeometric import hyp2f1

__all__ = [
    "X0Curve",
    "ModelParams",
    "GaussianSpec",
    "grid_for",
    "CholeskyFactor",
    "cholesky_factor",
    "mean_vector",
    "covariance_entry",
    "covariance_matrix",
    "covariance_quadrature_oracle",
    "lambda_integral",
    "gaussian_spec",
]

# Pivoted Cholesky stops once the largest residual variance is at most
# RANK_TOL * max diag(C).  1e-14 keeps max|F F^T - C| at rounding level
# (<= 1e-14 max|C| at the ref-b law, n = 250...2000) with r = 14-16.
RANK_TOL = 1e-14
# A residual variance below -_INDEFINITE_TOL * max diag(C) is no rounding
# noise: no factor could then reproduce C to the 1e-10 the package promises.
_INDEFINITE_TOL = 1e-10
# How an X0Curve reads between its knots.
X0_MODES = ("step", "linear")


@dataclass(frozen=True)
class X0Curve:
    """Initial log-forward-variance curve ``u -> X0(u)`` given by a table.

    Parameters
    ----------
    knots : tuple of float
        Strictly increasing abscissae.
    values : tuple of float
        Curve values at the knots; same length as `knots`.
    mode : {"step", "linear"}
        "step" is left-continuous piecewise-constant: the value on
        ``(knots[j-1], knots[j]]`` is ``values[j]`` (clamped outside).
        "linear" interpolates linearly and clamps outside the knot range.
    """

    knots: tuple
    values: tuple
    mode: str = "step"

    def __post_init__(self):
        knots = _items(self.knots, "x0 knots", lambda k: _real(k, "x0 knot", _FINITE))
        values = _items(self.values, "x0 values", lambda v: _real(v, "x0 value", _FINITE))
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mode", _choice(self.mode, X0_MODES, "x0 mode"))
        if len(knots) != len(values):
            raise UsageError("X0Curve needs equally many knots and values")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise UsageError("X0Curve knots must be strictly increasing")

    def __call__(self, u):
        u_arr = _reals(u, "u")
        if self.mode == "linear":
            out = np.interp(u_arr, self.knots, self.values)
        else:
            idx = np.searchsorted(np.asarray(self.knots), u_arr, side="left")
            idx = np.clip(idx, 0, len(self.values) - 1)
            out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if np.ndim(u) == 0 else out

    @property
    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)


@dataclass(frozen=True)
class ModelParams:
    """Rough Bergomi parameters.

    Parameters
    ----------
    H : float
        Hurst index, in (0, 1).
    eta : float
        Vol-of-vol, finite and >= 0.
    T : float
        Option maturity in years, finite and > 0.
    Delta : float
        Width of the VIX window in years, finite and > 0.
    x0 : float or X0Curve
        Initial log-forward-variance curve on [T, T + Delta]; a plain float
        means a constant curve.
    """

    H: float
    eta: float
    T: float
    Delta: float
    x0: object

    def __post_init__(self):
        bounds = {"H": _UNIT_INTERVAL, "eta": _NONNEGATIVE, "T": _POSITIVE, "Delta": _POSITIVE}
        for name, bound in bounds.items():
            object.__setattr__(self, name, _real(getattr(self, name), name, bound))
        if not isinstance(self.x0, X0Curve):
            object.__setattr__(self, "x0", _real(self.x0, "x0", _FINITE))
        elif not np.all(np.isfinite(self.x0(grid_for(self, 8)))):
            raise UsageError("x0 curve must be finite on [T, T + Delta]")

    def x0_at(self, u):
        """Evaluate the initial curve at date(s) `u`."""
        if isinstance(self.x0, X0Curve):
            return self.x0(u)
        out = np.full_like(_reals(u, "u"), self.x0)
        return float(out) if np.ndim(u) == 0 else out

    @property
    def x0_is_constant(self) -> bool:
        return not isinstance(self.x0, X0Curve) or self.x0.is_constant

    @property
    def x0_constant_value(self) -> float:
        if not self.x0_is_constant:
            raise HypothesisError("x0 curve is not constant")
        return self.x0.values[0] if isinstance(self.x0, X0Curve) else self.x0


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Low-rank factor of a covariance matrix, from pivoted Cholesky.

    Attributes
    ----------
    L : numpy.ndarray
        ``(n+1) x r`` matrix with ``L @ L.T`` reconstructing the
        covariance up to rounding.  Its columns are in pivot order, so
        it is not triangular; ``r = 0`` for a zero covariance.
    """

    L: np.ndarray

    @property
    def rank(self) -> int:
        """Number of columns, i.e. standard normals per draw."""
        return self.L.shape[1]


def cholesky_factor(cov: np.ndarray) -> CholeskyFactor:
    """Pivoted Cholesky factor of a symmetric PSD matrix, stopped at rounding level.

    Each step takes the largest residual variance as pivot and subtracts
    its column's contribution from the residual diagonal.  It stops when
    that variance is at most ``RANK_TOL * max diag(cov)``.  The entries
    of the remaining Schur complement are bounded by its diagonal
    (Cauchy–Schwarz), so dropping it leaves ``max|L L^T - cov|`` at that
    level.  A zero matrix (e.g. zero vol-of-vol) gives a factor with no
    columns.

    Raises
    ------
    FactorizationError
        If a residual variance falls below ``-1e-10 * max diag(cov)``,
        i.e. the matrix is indefinite beyond rounding.
    """
    cov = _reals(cov, "cov")
    return _pivoted_cholesky(np.diag(cov).copy(), lambda p: cov[p])


def _pivoted_cholesky(
    residual: np.ndarray, row, source_key: tuple | None = None
) -> CholeskyFactor:
    """The loop of :func:`cholesky_factor`, reading the matrix only through `row`.

    `residual` is the diagonal, updated in place; ``row(p)`` returns row
    ``p`` of the matrix.  Only the diagonal and the r pivot rows are read.
    `source_key`, if given, labels the matrix in a :class:`FactorizationError`.
    """
    dim = residual.shape[0]
    scale = float(np.max(residual, initial=0.0))
    rows = np.empty((min(dim, 32), dim))  # rows of L.T, grown by doubling
    rank = 0
    while True:
        worst = int(np.argmin(residual))
        if residual[worst] < -_INDEFINITE_TOL * scale:
            key = "" if source_key is None else f", key={source_key}"
            raise FactorizationError(
                f"covariance matrix is not positive semidefinite: residual "
                f"variance {residual[worst]:.3e} at index {worst} after {rank} "
                f"pivots (max diagonal {scale:.3e}{key})"
            )
        pivot = int(np.argmax(residual))
        if rank == dim or residual[pivot] <= RANK_TOL * scale:
            break
        if rank == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        column = (row(pivot) - rows[:rank, pivot] @ rows[:rank]) / np.sqrt(residual[pivot])
        rows[rank] = column
        residual -= column * column
        residual[pivot] = 0.0
        rank += 1
    return CholeskyFactor(np.ascontiguousarray(rows[:rank].T))


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Mean vector and covariance factor of ``(X_T^{u_i})`` on a grid.

    The law belongs to the parameter set `params` on its n-step grid,
    ``grid_for(params, n)``.  Arrays cover indices 0..n; the rectangle
    scheme reads entries 1..n, the trapezoid all of them.  The full
    covariance :attr:`cov` is built on each read and never kept.
    """

    params: ModelParams
    n: int
    mean: np.ndarray

    @cached_property
    def factor(self) -> CholeskyFactor:
        """Read-only pivoted Cholesky factor of the covariance, built on first use.

        It evaluates the closed-form diagonal and the r pivot rows only,
        with the same routine as :func:`covariance_matrix`, so it equals
        ``cholesky_factor(self.cov)`` bit for bit.  A
        :class:`~roughvix.errors.FactorizationError` is not cached: every
        access retries the factorization and raises again.
        """
        u, params = grid_for(self.params, self.n), self.params
        row = partial(_covariance_row, u, params=params)
        factor = _pivoted_cholesky(_variance_at(u, params), row, source_key=(params, self.n))
        factor.L.flags.writeable = False
        return factor

    @property
    def cov(self) -> np.ndarray:
        """Read-only full covariance matrix, built anew on each read.

        O(n^2) closed-form entries, never stored: the law cache holds no
        dense matrix, and the caller frees it by dropping it.  Sampling and
        the control variate do not read it; a caller that needs it twice
        keeps the first read.
        """
        cov = covariance_matrix(self.params, self.n)
        cov.flags.writeable = False
        return cov


def grid_for(params: ModelParams, n: int) -> np.ndarray:
    """Read-only points ``u_i = T + i * Delta / n``, ``i = 0..n``, of the VIX window.

    The endpoints are exact: ``u_0 = T`` and ``u_n = T + Delta``.
    """
    n = _whole(n, 1, "grid step count")
    points = np.linspace(params.T, params.T + params.Delta, n + 1)
    points.flags.writeable = False
    return points


def mean_vector(params: ModelParams, n: int) -> np.ndarray:
    """Exact mean ``x0(u) - C(u, u)/2`` of ``(X_T^{u_i})`` on the n-step grid.

    The grid is ``grid_for(params, n)`` over the VIX window of `params`;
    the vector covers all n+1 points.
    """
    u = grid_for(params, n)
    return params.x0_at(u) - 0.5 * _variance_at(u, params)


def _variance_at(u, params: ModelParams):
    """Closed-form diagonal ``C(u, u)``; vectorized over `u`."""
    H, eta, T = params.H, params.eta, params.T
    u = np.asarray(u, dtype=float)
    return eta**2 / (2.0 * H) * (u ** (2 * H) - (u - T) ** (2 * H))


def _antiderivative_pair(x: np.ndarray, delta: np.ndarray, H: float) -> np.ndarray:
    """The factor ``x^{H+1/2} * 2F1(1/2-H, 1/2+H; 3/2+H; -x/delta)``.

    Entries with x = 0 give 0: ``0^{H+1/2} = 0`` and 2F1 is 1 there.
    """
    return x ** (H + 0.5) * hyp2f1(0.5 - H, 0.5 + H, 1.5 + H, -x / delta)


def _covariance_row(u: np.ndarray, p: int, params: ModelParams) -> np.ndarray:
    """Closed-form covariance ``C(u[p], u[j])`` for every date ``u[j]`` in `u`.

    The package's one evaluation of the covariance.  Each pair is ordered,
    ``lo = min(u[j], u[p]) <= hi = max(u[j], u[p])``; coinciding dates take
    the diagonal formula, the others the hypergeometric closed form.
    """
    H, eta, T = params.H, params.eta, params.T
    u_lo, u_hi = np.minimum(u, u[p]), np.maximum(u, u[p])
    delta = u_hi - u_lo
    out = np.empty_like(u_lo)
    diag = delta == 0.0
    out[diag] = _variance_at(u_lo[diag], params)
    off = ~diag
    d = delta[off]
    lead = eta**2 * d ** (H - 0.5) / (H + 0.5)
    upper = _antiderivative_pair(u_lo[off], d, H)
    lower = _antiderivative_pair(np.maximum(u_lo[off] - T, 0.0), d, H)
    out[off] = lead * (upper - lower)
    return out


def covariance_entry(u_i: float, u_j: float, params: ModelParams) -> float:
    """Covariance ``C(u_i, u_j)`` of ``X_T^{u_i}`` and ``X_T^{u_j}``.

    Uses the explicit diagonal formula when the dates coincide and the
    hypergeometric closed form otherwise; symmetric in its arguments.
    Both dates must lie in ``[T, T + Delta]``.
    """
    end = params.T + params.Delta
    window = (lambda u: params.T <= u <= end, f"in [T, T+Delta] = [{params.T}, {end}]")
    u = [_real(u_i, "u_i", window), _real(u_j, "u_j", window)]
    return float(_covariance_row(np.asarray(u), 0, params)[1])


def covariance_matrix(params: ModelParams, n: int) -> np.ndarray:
    """Full ``(n+1) x (n+1)`` covariance matrix on the n-step grid of `params`.

    Row ``p`` from the diagonal on is the covariance row of ``u_p`` on
    ``u_p, ..., u_n``, mirrored into column ``p``, so the result is
    symmetric by construction; the build holds the matrix and one row.
    """
    u = grid_for(params, n)
    cov = np.empty((u.size, u.size), dtype=float)
    for p in range(u.size):
        cov[p, p:] = cov[p:, p] = _covariance_row(u[p:], 0, params)
    return cov


_QUAD_OPTS = dict(epsabs=1e-15, epsrel=1e-13, limit=300)


def covariance_quadrature_oracle(u_i: float, u_j: float, params: ModelParams) -> float:
    """Covariance by adaptive quadrature, independent of the closed form.

    Integrates ``eta^2 * (u_i - s)^{H-1/2} (u_j - s)^{H-1/2}`` over
    ``[0, T]``.  The integrand is smooth in the interior but becomes
    steep near ``s = T`` when ``min(u_i, u_j)`` is close to ``T``; the
    final panel is therefore integrated under the substitution
    ``s = T - tau^{1/(H+1/2)}``, which absorbs the near-singularity.
    There ``u - s`` is formed as ``(u - T) + tau^{1/(H+1/2)}``: as
    ``u - (T - tau^{1/(H+1/2)})`` it would round to 0 near ``tau = 0``.
    Both dates must be finite and ``>= T``.
    """
    from scipy import integrate  # here, to keep quadrature off the import path

    H, eta, T = params.H, params.eta, params.T
    after = (lambda u: T <= u < math.inf, f"finite and >= T = {T}")
    u_i, u_j = _real(u_i, "u_i", after), _real(u_j, "u_j", after)
    if eta == 0.0:
        return 0.0

    def integrand(s):
        return (u_i - s) ** (H - 0.5) * (u_j - s) ** (H - 0.5)

    split = 0.5 * T
    direct, err1 = integrate.quad(integrand, 0.0, split, **_QUAD_OPTS)

    power = 1.0 / (H + 0.5)
    gap_i, gap_j = u_i - T, u_j - T

    def substituted(tau):
        r = tau**power  # T - s
        return (
            (gap_i + r) ** (H - 0.5)
            * (gap_j + r) ** (H - 0.5)
            * power
            * tau ** (power - 1.0)
        )

    tau_max = (T - split) ** (H + 0.5)
    tail, err2 = integrate.quad(substituted, 0.0, tau_max, **_QUAD_OPTS)

    value = eta**2 * (direct + tail)
    if (err1 + err2) * eta**2 > 1e-12 * max(abs(value), 1e-300):
        raise NumericError(
            f"covariance quadrature did not reach tolerance at ({u_i}, {u_j})"
        )
    return value


def lambda_integral(params: ModelParams) -> float:
    """The integral ``int_0^T t^{H-1/2} (Delta + t)^{H-1/2} dt`` for H < 1/2.

    It is ``C(T, T + Delta) / eta^2``, the covariance of the window's
    endpoints at unit vol-of-vol, and takes the same closed form:
    ``Delta^{H-1/2} T^{H+1/2} 2F1(1/2-H, 1/2+H; 3/2+H; -T/Delta) / (H+1/2)``.
    `T` and `Delta` enter as given: forming ``T + Delta`` and subtracting
    `T` again would cost up to 1.8e-12 relative at ``Delta = 1e-6``.
    """
    H, T, Delta = params.H, params.T, params.Delta
    if not (0.0 < H < 0.5):
        raise HypothesisError(
            f"lambda_integral requires H in (0, 1/2), got H={H}"
        )
    return Delta ** (H - 0.5) * _antiderivative_pair(T, Delta, H) / (H + 0.5)


@lru_cache(maxsize=64)
def gaussian_spec(params: ModelParams, n: int) -> GaussianSpec:
    """Cached Gaussian law of `params` on the n-step grid.

    This is the package's one law cache: an entry holds the mean and,
    once :attr:`GaussianSpec.factor` is first read, its low-rank factor,
    all read-only.  It holds no dense matrix: :attr:`GaussianSpec.cov` is
    built on each read and belongs to the caller.  The key is the
    (hashable) parameter set and the step count.  The cache is capped at
    64 laws; a law at n = 2000 holds about 0.3 MB, O(r n), whatever is
    read from it.  ``gaussian_spec.cache_clear()`` frees all of them.
    """
    mean = mean_vector(params, n)
    mean.flags.writeable = False
    return GaussianSpec(params=params, n=int(n), mean=mean)
