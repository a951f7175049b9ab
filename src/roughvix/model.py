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
not ``n+1``.  The factor reads only the diagonal and its ``r`` pivot
rows, so a law evaluates O(r n) closed-form entries; the full matrix
(:func:`covariance_matrix`, :attr:`GaussianSpec.cov`) is built only for
checks against it.  Everything here is deterministic; sampling lives in
:mod:`.sampler`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate

from .errors import FactorizationError, HypothesisError, NumericError, UsageError
from .hypergeometric import hyp2f1

__all__ = [
    "X0Curve",
    "ModelParams",
    "Grid",
    "GaussianSpec",
    "CholeskyFactor",
    "cholesky_factor",
    "kernel_eval",
    "mean_vector",
    "covariance_entry",
    "covariance_matrix",
    "covariance_quadrature_oracle",
    "lambda_integral",
    "gaussian_spec",
]

_QUAD_OPTS = dict(epsabs=1e-15, epsrel=1e-13, limit=300)
# Pivoted Cholesky stops once the largest residual variance is at most
# RANK_TOL * max diag(C).  1e-14 keeps max|F F^T - C| at rounding level
# (<= 1e-14 max|C| at the ref-b law, n = 250...2000) with r = 14-16.
RANK_TOL = 1e-14
# A residual variance below -_INDEFINITE_TOL * max diag(C) is no rounding
# noise: no factor could then reproduce C to the 1e-10 the package promises.
_INDEFINITE_TOL = 1e-10


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
        knots = tuple(float(k) for k in self.knots)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if len(knots) == 0 or len(knots) != len(values):
            raise UsageError("X0Curve needs equally many knots and values (at least one)")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise UsageError("X0Curve knots must be strictly increasing")
        if not all(math.isfinite(v) for v in values) or not all(
            math.isfinite(k) for k in knots
        ):
            raise UsageError("X0Curve knots and values must be finite")
        if self.mode not in ("step", "linear"):
            raise UsageError(f"X0Curve mode must be 'step' or 'linear', got {self.mode!r}")

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
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
        if not (0.0 < self.H < 1.0):
            raise UsageError(f"H must lie in (0, 1), got {self.H}")
        if not (0.0 <= self.eta < math.inf):
            raise UsageError(f"eta must be finite and >= 0, got {self.eta}")
        if not (0.0 < self.T < math.inf):
            raise UsageError(f"T must be finite and > 0, got {self.T}")
        if not (0.0 < self.Delta < math.inf):
            raise UsageError(f"Delta must be finite and > 0, got {self.Delta}")
        if not isinstance(self.x0, X0Curve):
            x0 = float(self.x0)
            if not math.isfinite(x0):
                raise UsageError(f"x0 must be finite, got {self.x0}")
            object.__setattr__(self, "x0", x0)
        else:
            probe = np.linspace(self.T, self.T + self.Delta, 9)
            if not np.all(np.isfinite(self.x0(probe))):
                raise UsageError("x0 curve must be finite on [T, T + Delta]")

    def x0_at(self, u):
        """Evaluate the initial curve at date(s) `u`."""
        if isinstance(self.x0, X0Curve):
            return self.x0(u)
        out = np.full_like(np.asarray(u, dtype=float), self.x0)
        return float(out) if np.ndim(u) == 0 else out

    @property
    def x0_is_constant(self) -> bool:
        return not isinstance(self.x0, X0Curve) or self.x0.is_constant

    @property
    def x0_constant_value(self) -> float:
        if not self.x0_is_constant:
            raise HypothesisError("x0 curve is not constant")
        return self.x0.values[0] if isinstance(self.x0, X0Curve) else self.x0


def _whole(value, least: int, what: str) -> int:
    """`value` as an int, if it is a whole number ``>= least``; else UsageError.

    Integral floats such as ``8.0`` pass; ``8.7``, nan and inf do not.
    """
    if isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        if value >= least:
            return int(value)
    raise UsageError(f"{what} must be an integer >= {least}, got {value}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid ``u_i = T + i * Delta / n`` for ``i = 0..n``."""

    T: float
    Delta: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, 1, "grid step count"))
        if not (0 < self.T < math.inf and 0 < self.Delta < math.inf):
            raise UsageError("grid requires finite T > 0 and Delta > 0")

    @property
    def h(self) -> float:
        """Mesh width Delta / n."""
        return self.Delta / self.n

    @property
    def points(self) -> np.ndarray:
        """Grid points, endpoints exact: points[0] = T, points[n] = T + Delta."""
        pts = np.linspace(self.T, self.T + self.Delta, self.n + 1)
        pts.flags.writeable = False
        return pts


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
    cov = np.asarray(cov, dtype=float)
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
    covariance :attr:`cov` is built only when read.
    """

    params: ModelParams
    n: int
    mean: np.ndarray

    @cached_property
    def factor(self) -> CholeskyFactor:
        """Read-only pivoted Cholesky factor of the covariance, built on first use.

        It evaluates the closed-form diagonal and the r pivot rows only,
        with the same elementwise operations as :func:`covariance_matrix`,
        so it equals ``cholesky_factor(self.cov)`` bit for bit.  A
        :class:`~roughvix.errors.FactorizationError` is not cached: every
        access retries the factorization and raises again.
        """
        u, params = grid_for(self.params, self.n).points, self.params

        def row(p):
            return _covariance_pairs(np.minimum(u, u[p]), np.maximum(u, u[p]), params)

        factor = _pivoted_cholesky(
            _variance_at(u, params), row, source_key=(params, self.n)
        )
        factor.L.flags.writeable = False
        return factor

    @cached_property
    def cov(self) -> np.ndarray:
        """Read-only full covariance matrix, built on first use.

        O(n^2) closed-form entries; sampling and the control variate do
        not read it.
        """
        cov = covariance_matrix(self.params, self.n)
        cov.flags.writeable = False
        return cov


def grid_for(params: ModelParams, n: int) -> Grid:
    """Grid with `n` steps over the VIX window of `params`."""
    return Grid(params.T, params.Delta, n)


def kernel_eval(u: float, s: float, params: ModelParams) -> float:
    """Power-law kernel ``eta * (u - s)**(H - 1/2)``.

    Requires ``s < u``; the kernel diverges as ``s`` approaches ``u``
    for H < 1/2.
    """
    if s >= u:
        raise UsageError(f"kernel requires s < u, got u={u}, s={s}")
    return params.eta * (u - s) ** (params.H - 0.5)


def mean_vector(params: ModelParams, n: int) -> np.ndarray:
    """Exact mean ``x0(u) - C(u, u)/2`` of ``(X_T^{u_i})`` on the n-step grid.

    The grid is ``grid_for(params, n)`` over the VIX window of `params`;
    the vector covers all n+1 points.
    """
    u = grid_for(params, n).points
    return params.x0_at(u) - 0.5 * _variance_at(u, params)


def _variance_at(u, params: ModelParams):
    """Closed-form diagonal ``C(u, u)``; vectorized over `u`."""
    H, eta, T = params.H, params.eta, params.T
    u = np.asarray(u, dtype=float)
    return eta**2 / (2.0 * H) * (u ** (2 * H) - (u - T) ** (2 * H))


def _antiderivative_pair(x: np.ndarray, delta: np.ndarray, H: float) -> np.ndarray:
    """The factor ``x^{H+1/2} * 2F1(1/2-H, 1/2+H; 3/2+H; -x/delta)``.

    Entries with x = 0 contribute 0.
    """
    out = np.zeros_like(x)
    pos = x > 0
    if pos.any():
        args = -x[pos] / delta[pos]
        f = hyp2f1(0.5 - H, 0.5 + H, 1.5 + H, args)
        out[pos] = x[pos] ** (H + 0.5) * f
    return out


def _covariance_pairs(
    u_lo: np.ndarray, u_hi: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Closed-form covariance for ordered pairs ``u_lo <= u_hi`` (vectorized)."""
    H, eta, T = params.H, params.eta, params.T
    delta = u_hi - u_lo
    out = np.empty_like(u_lo)
    diag = delta == 0.0
    if diag.any():
        out[diag] = _variance_at(u_lo[diag], params)
    off = ~diag
    if off.any():
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
    lo, hi = (u_i, u_j) if u_i <= u_j else (u_j, u_i)
    if lo < params.T or hi > params.T + params.Delta:
        raise UsageError(
            f"dates must lie in [T, T+Delta] = [{params.T}, {params.T + params.Delta}], "
            f"got ({u_i}, {u_j})"
        )
    return float(
        _covariance_pairs(
            np.asarray([lo], dtype=float), np.asarray([hi], dtype=float), params
        )[0]
    )


def covariance_matrix(params: ModelParams, n: int) -> np.ndarray:
    """Full ``(n+1) x (n+1)`` covariance matrix on the n-step grid of `params`.

    Each unordered pair is computed once and mirrored, so the result is
    symmetric by construction.
    """
    u = grid_for(params, n).points
    m = u.shape[0]
    cov = np.empty((m, m), dtype=float)
    cov[np.diag_indices(m)] = _variance_at(u, params)
    iu, ju = np.triu_indices(m, k=1)
    vals = _covariance_pairs(u[iu], u[ju], params)
    cov[iu, ju] = vals
    cov[ju, iu] = vals
    return cov


def covariance_quadrature_oracle(u_i: float, u_j: float, params: ModelParams) -> float:
    """Covariance by adaptive quadrature, independent of the closed form.

    Integrates ``eta^2 * (u_i - s)^{H-1/2} (u_j - s)^{H-1/2}`` over
    ``[0, T]``.  The integrand is smooth in the interior but becomes
    steep near ``s = T`` when ``min(u_i, u_j)`` is close to ``T``; the
    final panel is therefore integrated under the substitution
    ``s = T - tau^{1/(H+1/2)}``, which absorbs the near-singularity.
    There ``u - s`` is formed as ``(u - T) + tau^{1/(H+1/2)}``: as
    ``u - (T - tau^{1/(H+1/2)})`` it would round to 0 near ``tau = 0``.
    """
    if u_i < params.T or u_j < params.T:
        raise UsageError(f"dates must be >= T, got ({u_i}, {u_j}) with T={params.T}")
    H, eta, T = params.H, params.eta, params.T
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

    The integrable singularity at ``t = 0`` is removed exactly by the
    substitution ``t = tau^{2/(2H+1)}``, after which the integrand is
    ``q * (Delta + tau^q)^{H-1/2}`` with ``q = 2/(2H+1)``, smooth on the
    whole range.
    """
    H, T, Delta = params.H, params.T, params.Delta
    if not (0.0 < H < 0.5):
        raise HypothesisError(
            f"lambda_integral requires H in (0, 1/2), got H={H}"
        )
    q = 2.0 / (2.0 * H + 1.0)

    def integrand(tau):
        return q * (Delta + tau ** q) ** (H - 0.5)

    upper = T ** (1.0 / q)
    value, abserr = integrate.quad(integrand, 0.0, upper, **_QUAD_OPTS)
    if abserr > 1e-12 * max(abs(value), 1e-300):
        raise NumericError("lambda integral quadrature did not reach tolerance")
    return value


@lru_cache(maxsize=64)
def gaussian_spec(params: ModelParams, n: int) -> GaussianSpec:
    """Cached Gaussian law of `params` on the n-step grid.

    This is the package's one law cache: an entry holds the mean and,
    once :attr:`GaussianSpec.factor` is first read, its low-rank factor,
    all read-only.  The full covariance :attr:`GaussianSpec.cov` is built
    only when read.  The key is the (hashable) parameter set and the step
    count.  The cache is capped at 64 laws; a law at n = 2000 holds about
    0.3 MB, and reading ``.cov`` adds 32 MB to it.
    ``gaussian_spec.cache_clear()`` frees all of them.
    """
    mean = mean_vector(params, n)
    mean.flags.writeable = False
    return GaussianSpec(params=params, n=int(n), mean=mean)
