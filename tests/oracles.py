"""Independent numerical oracles for the test suite.

Each oracle deliberately uses a different computational path from the
production code: direct quadrature instead of series expansions, exact
rational arithmetic instead of compensated floating point, and textbook
integral formulas instead of vectorized library code.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from roughvix import SchemeKind, batch_sizes, stream_for


def euler_hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric via the Euler integral representation.

    Requires c > b > 0 and x <= 0.  The substitution ``t = tau**(1/b)``
    removes the algebraic endpoint singularity at t = 0 so adaptive
    quadrature converges at tight tolerances.
    """
    if not (c > b > 0):
        raise ValueError("Euler integral needs c > b > 0")
    if x > 0:
        raise ValueError("oracle restricted to x <= 0")

    def integrand(tau):
        t = tau ** (1.0 / b)
        inner = (1.0 - t) ** (c - b - 1.0) if c - b != 1.0 else 1.0
        return inner * (1.0 - x * t) ** (-a)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=300)
    front = math.exp(special.gammaln(c) - special.gammaln(b) - special.gammaln(c - b))
    return front * val / b


def bs_price_quad(kind: str, x: float, y: float, z: float) -> float:
    """Lognormal option price by quadrature over the standard normal.

    ``kind`` is "call", "put", or "future"; the underlying is
    ``x * exp(z*N - z**2/2)`` with N standard normal.
    """

    def payoff(w):
        s = x * math.exp(z * w - 0.5 * z * z)
        if kind == "call":
            return max(s - y, 0.0)
        if kind == "put":
            return max(y - s, 0.0)
        return s

    def integrand(w):
        return payoff(w) * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    val, err = integrate.quad(integrand, -12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=300)
    return val


def exact_scheme_mean(spec, scheme: str) -> float:
    """Exact expectation of the discretized VIX^2 under the Gaussian law.

    ``E[exp(X_i)] = exp(mu_i + C_ii / 2)`` summed with ``math.fsum``
    according to the rectangle or trapezoid weights.
    """
    mean = np.asarray(spec.mean)
    diag = np.diag(np.asarray(spec.cov))
    n = mean.size - 1
    terms = [math.exp(mean[i] + 0.5 * diag[i]) for i in range(n + 1)]
    if scheme == "rect":
        return math.fsum(terms[1:]) / n
    if scheme == "trap":
        return (math.fsum(terms[1:]) + math.fsum(terms[:-1])) / (2 * n)
    raise ValueError(f"unknown scheme {scheme!r}")


def fraction_mean(values) -> float:
    """Exact mean of a float sequence via rational arithmetic."""
    total = Fraction(0)
    count = 0
    for v in values:
        total += Fraction(float(v))
        count += 1
    return float(total / count)


def fraction_dot_mean(values) -> float:
    """Exact mean of all pairwise products (i.e. mean of the outer square)."""
    vals = [Fraction(float(v)) for v in values]
    total = Fraction(0)
    for a in vals:
        for b in vals:
            total += a * b
    return float(total / (len(vals) ** 2))


def quadrature_weights(scheme: str, n_fine: int, n: int) -> np.ndarray:
    """Weights of the n-step rectangle or trapezoid rule on the n_fine grid.

    ``V_n = sum_k w_k exp(X_k)`` with ``k = 0..n_fine``; the n-step rule
    reads every ``n_fine // n``-th point, which is the grid restriction
    coupling.  ``n`` must divide ``n_fine``.
    """
    if n_fine % n != 0:
        raise ValueError(f"n={n} does not divide n_fine={n_fine}")
    step = n_fine // n
    w = np.zeros(n_fine + 1)
    if scheme == "rect":
        w[step::step] = 1.0 / n
    elif scheme == "trap":
        w[::step] = 1.0 / n
        w[0] = w[-1] = 0.5 / n
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return w


def _scaled_weights(spec, weights) -> np.ndarray:
    """``w'_k = w_k exp(mu_k + C_kk / 2)``, so that ``E[sum w_k exp(X_k)] = sum w'``."""
    mean = np.asarray(spec.mean)
    diag = np.diag(np.asarray(spec.cov))
    return np.asarray(weights, dtype=float) * np.exp(mean + 0.5 * diag)


def exact_second_moment(spec, weights) -> float:
    """Exact ``E[(sum_k w_k exp(X_k))^2]`` under the Gaussian law of `spec`.

    With ``w'_k = w_k exp(mu_k + C_kk / 2)`` the second moment is
    ``(sum w')^2 + w'^T expm1(C) w'``.  Weights may be signed, so
    differences of two rules (strong errors, level corrections) are
    exact too.
    """
    wp = _scaled_weights(spec, weights)
    return float(wp.sum() ** 2 + wp @ np.expm1(np.asarray(spec.cov)) @ wp)


def exact_variance(spec, weights) -> float:
    """Exact ``Var(sum_k w_k exp(X_k))``: the second moment less ``(sum w')^2``."""
    wp = _scaled_weights(spec, weights)
    return float(wp @ np.expm1(np.asarray(spec.cov)) @ wp)


def contract_normals(stream, shape) -> np.ndarray:
    """Standard normals of the stream contract: ``ndtri((k + 0.5) 2^-53)``
    with ``k`` the 53-bit integers ``integers(0, 2**53)`` draws."""
    raw = stream.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    return special.ndtri((raw.astype(np.float64) + 0.5) * 2.0**-53)


def geometric_log_average(kind, spec, normals) -> np.ndarray:
    """The control variate's log average ``w . mu + (F^T w) . G`` of the
    documented contract, ``w = a/d`` with the scheme's integer weights
    ``a`` (``(0, 1, ..., 1)/n`` or ``(1, 2, ..., 2, 1)/2n``) and ``a . mu``
    summed exactly."""
    n = spec.n
    if kind.value == "rect":
        a, d = np.r_[0.0, np.ones(n)], n
    else:
        a, d = np.r_[1.0, np.full(n - 1, 2.0), 1.0], 2 * n
    offset = math.fsum((a * spec.mean).tolist()) / d
    return offset + ((spec.factor.L.T @ a) / d) @ normals


def single_product(factor, mean, normals) -> np.ndarray:
    """The draws ``[F | mu] @ [G; 1]`` of a batch of normals ``G``, formed
    in one matrix product instead of by row blocks."""
    stacked = np.vstack((normals, np.ones(normals.shape[1])))
    return np.column_stack((factor.L, mean)) @ stacked


@dataclass(frozen=True, eq=False)
class GaussianSample:
    """A draw (or batch of draws) of ``(X_T^{u_i})`` for ``i = 0..n``:
    `values` of shape ``(n+1,)`` or ``(n+1, m)``, and the ``(r,)`` or
    ``(r, m)`` normals ``G`` it was drawn from (None if not drawn)."""

    values: np.ndarray
    grid_n: int
    normals: np.ndarray | None = None


def sample_fine(factor, mean, stream, size=None) -> GaussianSample:
    """Draw ``mean + F G`` in one pass, ``G`` the factor's rank ``r``
    normals per draw from `stream` by the stream contract: an ``(r,)``
    vector, or an ``(r, size)`` block filled row-major."""
    batch = () if size is None else (size,)
    normals = contract_normals(stream, (factor.L.shape[1], *batch))
    values = factor.L @ normals + (mean if size is None else mean[:, None])
    return GaussianSample(values=values, grid_n=mean.shape[0] - 1, normals=normals)


def restrict_to_coarse(fine: GaussianSample) -> GaussianSample:
    """The sample at every second grid point, the grid with half the steps."""
    assert fine.grid_n % 2 == 0, "restriction needs an even step count"
    return GaussianSample(values=fine.values[::2], grid_n=fine.grid_n // 2)


def scheme_vix2(kind, sample: GaussianSample):
    """The rule's formula on ``e = exp`` of the grid values: ``(1/n)
    sum_{i=1..n} e_i`` for the rectangle, ``(1/2n) sum_{i=1..n} (e_i +
    e_{i-1})`` for the trapezoid.  A float for a single draw, an array for
    a batch."""
    e = np.exp(sample.values)
    n = sample.grid_n
    if kind is SchemeKind.RECTANGLE:
        out = e[1:].sum(axis=0) / n
    else:
        out = (e[1:].sum(axis=0) + e[:-1].sum(axis=0)) / (2 * n)
    return float(out) if np.ndim(out) == 0 else out


def geometric_vix2(values, scheme=SchemeKind.RECTANGLE):
    """The control variate ``exp(w . X)`` of grid values `values`, ``w`` the
    scheme's quadrature weights (:func:`quadrature_weights`)."""
    n = values.shape[0] - 1
    return np.exp(quadrature_weights(scheme.value, n, n) @ values)


def oracle_batches(kind, spec, total, seed, key, coarse_steps=()):
    """Per-batch values of the batch kernel, by the one-pass oracles above.

    Draws each batch of the kernel's partition with ``sample_fine`` from
    the batch's stream, restricts it with repeated ``restrict_to_coarse``
    (so each step must be a power of two), and evaluates ``scheme_vix2``
    on those samples.  The control variate is ``exp(w . mu + (F^T w) .
    G)`` from the draw's normals ``G``.  Yields ``(fine, coarse, cv)`` as
    ``vix2_batches`` does.
    """
    n = spec.n
    for index, width in enumerate(batch_sizes(n, total)):
        stream = stream_for(seed, *key, index)
        fine = sample_fine(spec.factor, spec.mean, stream, size=width)
        coarse = []
        for step in coarse_steps:
            sample = fine
            for _ in range(step.bit_length() - 1):
                sample = restrict_to_coarse(sample)
            coarse.append(scheme_vix2(kind, sample))
        cv = np.exp(geometric_log_average(kind, spec, fine.normals))
        yield scheme_vix2(kind, fine), coarse, cv
