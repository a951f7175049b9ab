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

from roughvix import SchemeKind, batch_sizes, grid_for, hyp2f1, payoff_eval, stream_for
from roughvix.model import _pivoted_cholesky


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


def lambda_integral_quad(H: float, T: float, Delta: float) -> float:
    """``int_0^T t^{H-1/2} (Delta + t)^{H-1/2} dt`` by quadrature, for H < 1/2.

    The engine's evaluation before its closed form, kept as the check on
    it.  The substitution ``t = tau^q``, ``q = 2/(2H+1)``, removes the
    integrable singularity at ``t = 0`` exactly: the integrand becomes
    ``q * (Delta + tau^q)^{H-1/2}``, smooth on the whole range.
    """
    q = 2.0 / (2.0 * H + 1.0)

    def integrand(tau):
        return q * (Delta + tau**q) ** (H - 0.5)

    val, err = integrate.quad(
        integrand, 0.0, T ** (1.0 / q), epsabs=1e-15, epsrel=1e-13, limit=300
    )
    assert err <= 1e-12 * abs(val)
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


def _scaled_weights(mean, cov, weights) -> np.ndarray:
    """``w'_k = w_k exp(mu_k + C_kk / 2)``, so that ``E[sum w_k exp(X_k)] = sum w'``."""
    diag = np.diag(np.asarray(cov))
    return np.asarray(weights, dtype=float) * np.exp(np.asarray(mean) + 0.5 * diag)


def exact_second_moment(mean, cov, weights) -> float:
    """Exact ``E[(sum_k w_k exp(X_k))^2]`` for ``X ~ N(mean, cov)``.

    With ``w'_k = w_k exp(mu_k + C_kk / 2)`` the second moment is
    ``(sum w')^2 + w'^T expm1(C) w'``.  Weights may be signed, so
    differences of two rules (strong errors, level corrections) are
    exact too.  `cov` is the dense matrix, read once from
    ``GaussianSpec.cov`` by the caller: each read builds it anew.
    """
    wp = _scaled_weights(mean, cov, weights)
    return float(wp.sum() ** 2 + wp @ np.expm1(np.asarray(cov)) @ wp)


def exact_variance(mean, cov, weights) -> float:
    """Exact ``Var(sum_k w_k exp(X_k))``: the second moment less ``(sum w')^2``."""
    wp = _scaled_weights(mean, cov, weights)
    return float(wp @ np.expm1(np.asarray(cov)) @ wp)


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


def payoff_level(payoff, spec, m, key, coupled):
    """A level of ``_sample_moments``: `m` draws of `spec` on stream `key`
    whose one sample column is ``phi(fine)`` or, when `coupled`, the
    correction ``phi(fine) - phi(coarse)`` from the grid of every 2nd point."""
    if not coupled:
        return (spec, m, key, (), lambda fine, coarse, cv: (payoff_eval(payoff, fine),))

    def correction(fine, coarse, cv):
        return (payoff_eval(payoff, fine) - payoff_eval(payoff, coarse[0]),)

    return (spec, m, key, (2,), correction)


def row_block_batches(kind, spec, total, seed, key, coarse_steps=(), geometric=False):
    """Per-batch values of the batch kernel, formed by its documented contract.

    Each batch of ``batch_sizes(n, total)`` takes its normals ``G`` from
    its stream, forms ``[F | mu] @ [G; 1]`` in full-width row blocks of
    ``max(1, 2^19 // width)`` rows, exponentiates each block, subtracts
    the grid's row 0 ``e0`` and adds ``A[:, a:b] @ (block - e0)`` to a
    ``grids x width`` accumulator, ``A`` the scheme's integer weight rows
    placed on every ``step``-th point; grid ``g`` is ``e0 + acc_g / d_g``.
    No column tiles, no worker pool.  Yields ``(fine, coarse, cv)`` as a
    one-run ``vix2_runs`` call does after its run index, ``cv`` None unless
    `geometric`.
    """
    n = spec.n
    rows, divisors = [], []
    for step in (1, *coarse_steps):
        k = n // step
        weights = np.zeros(n + 1)
        if kind is SchemeKind.RECTANGLE:
            weights[step::step], divisor = 1.0, k
        else:
            weights[::step], divisor = 2.0, 2 * k
            weights[0] = weights[n] = 1.0
        rows.append(weights)
        divisors.append(float(divisor))
    rows, divisors = np.array(rows), np.array(divisors)
    factor_mean = np.column_stack((spec.factor.L, spec.mean))
    for index, width in enumerate(batch_sizes(n, total)):
        normals = contract_normals(stream_for(seed, *key, index), (spec.factor.rank, width))
        stacked = np.vstack((normals, np.ones(width)))
        height = max(1, 2**19 // width)
        acc = np.zeros((len(rows), width))
        for a in range(0, n + 1, height):
            b = min(a + height, n + 1)
            block = np.exp(factor_mean[a:b] @ stacked)
            if a == 0:
                e0 = block[0].copy()
            acc += rows[:, a:b] @ (block - e0)
        fine, *coarse = acc / divisors[:, None] + e0
        cv = np.exp(geometric_log_average(kind, spec, normals)) if geometric else None
        yield fine, coarse, cv


def oracle_batches(kind, spec, total, seed, key, coarse_steps=()):
    """Per-batch values of the batch kernel, by the one-pass oracles above.

    Draws each batch of the kernel's partition with ``sample_fine`` from
    the batch's stream, restricts it with repeated ``restrict_to_coarse``
    (so each step must be a power of two), and evaluates ``scheme_vix2``
    on those samples.  The control variate is ``exp(w . mu + (F^T w) .
    G)`` from the draw's normals ``G``.  Yields ``(fine, coarse, cv)`` as a
    one-run ``vix2_runs`` call does after its run index.
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


def _variance_at(u, params):
    """Closed-form diagonal ``C(u, u)``; vectorized over `u`."""
    H, eta, T = params.H, params.eta, params.T
    u = np.asarray(u, dtype=float)
    return eta**2 / (2.0 * H) * (u ** (2 * H) - (u - T) ** (2 * H))


def _antiderivative_pair(x, delta, H):
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


def covariance_pairs(u_lo, u_hi, params):
    """Closed-form covariance for ordered pairs ``u_lo <= u_hi`` (vectorized).

    The engine's pair evaluation before its one row routine, kept
    verbatim as the reference for the bits of the row.
    """
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


def triangular_covariance(params, n):
    """Full covariance on the n-step grid, every upper pair at once.

    The engine's dense build before its one row routine, kept verbatim:
    the diagonal, then all ``n(n+1)/2`` pairs from ``np.triu_indices``
    in one vectorized evaluation, mirrored.
    """
    u = grid_for(params, n)
    m = u.shape[0]
    cov = np.empty((m, m), dtype=float)
    cov[np.diag_indices(m)] = _variance_at(u, params)
    iu, ju = np.triu_indices(m, k=1)
    vals = covariance_pairs(u[iu], u[ju], params)
    cov[iu, ju] = vals
    cov[ju, iu] = vals
    return cov


def dense_factor(cov):
    """The engine's pivoted Cholesky loop run on a dense matrix's rows.

    The same loop as a law's factor, fed from an array instead of the
    closed-form rows; a failure names the key ``("dense",)``.
    """
    cov = np.asarray(cov, dtype=float)
    return _pivoted_cholesky(np.diag(cov).copy(), lambda p: cov[p], source_key=("dense",))
