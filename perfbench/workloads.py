"""The benchmark's workloads: inputs made from the seed, set-up, ops and checks.

Every workload runs in rounds.  A round is a fixed list of ops, so the
share of failed ops is the same in every run whatever its length.  Ops
call the engine only through attributes of the ``roughvix`` package, so
the tracer's rebinding of those names reaches them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import roughvix as rv

import checks

ETA = 0.5
DELTA = 1.0 / 12.0
X0 = math.log(0.235**2)
STRIKE = 0.1
CALL = rv.Payoff(rv.PayoffKind.CALL, strike=STRIKE)
PARAMS_B = rv.ModelParams(H=0.1, eta=ETA, T=0.5, Delta=DELTA, x0=X0)

# Saved before a tracer can rebind the name: the wrapper has no cache_clear.
_GAUSSIAN_SPEC = rv.gaussian_spec


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for one role of one run, distinct for distinct keys."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1, dtype=np.uint64)
    return int(state[0])


@dataclass
class Op:
    kind: str
    seconds: float
    failed: bool = False
    cost: float = 0.0
    result: object = None


@dataclass
class Round:
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return math.fsum(op.seconds for op in self.ops)


def _timed(tracer, pace, op_id, kind, call):
    """Run one op, inside the tracer's op span when tracing.

    `pace` (or None) runs first, outside the timed section.
    """
    if pace is not None:
        pace()
    if tracer is not None:
        tracer.begin(op_id, kind)
    start = perf_counter()
    try:
        result = call()
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.end()
    return result, seconds


def _median_seconds(rounds, kind):
    values = [op.seconds for r in rounds for op in r.ops if op.kind == kind]
    return statistics.median(values) if values else 0.0


class RefbMc:
    """The ref-b protocol: rectangle + control variate, n = 250, M = 2e5."""

    name = "refb-mc"
    N = 250
    M = 200_000
    WARMUP_M = 32_768

    def __init__(self, seed: int):
        self.seed = seed
        self.values, self.errors = [], []
        lipschitz = 1.0 / (2.0 * STRIKE)
        lam = checks.lambda_constant(PARAMS_B.H, ETA, PARAMS_B.T, DELTA, X0)
        self.grid_bias_bound = lipschitz * lam / self.N

    def _price(self, M, seed):
        return rv.mc_price(rv.SchemeKind.RECTANGLE, self.N, M, CALL, True, PARAMS_B, seed=seed)

    def setup(self):
        rv.gaussian_spec(PARAMS_B, self.N)
        rv.factor_for(PARAMS_B, self.N)
        self._price(self.WARMUP_M, derive_seed(self.seed, 0))

    def run_round(self, index, tracer=None, pace=None) -> Round:
        seed = derive_seed(self.seed, 1, index)
        est, seconds = _timed(
            tracer, pace, f"{index}", "refb", lambda: self._price(self.M, seed)
        )
        return Round([Op("refb", seconds, cost=est.cost, result=est)])

    def check_round(self, rnd: Round) -> list:
        est = rnd.ops[0].result
        self.values.append(est.value)
        self.errors.append(est.std_error)
        return checks.check_refb_estimate(est.value, est.std_error, self.grid_bias_bound)

    def check_run(self) -> list:
        return checks.check_consistent(self.values, self.errors)

    @staticmethod
    def op_metrics(rounds) -> dict:
        return {"refb_price_s": _median_seconds(rounds, "refb")}


class Fig3Mlmc:
    """fig3 multilevel estimates at eps = 5e-4, n0 = 6, both schemes."""

    name = "fig3-mlmc"
    EPS = 5e-4
    WARMUP_EPS = 5e-3
    N0 = 6
    LEVELS = 8
    SCHEMES = (rv.SchemeKind.RECTANGLE, rv.SchemeKind.TRAPEZOID)

    def __init__(self, seed: int):
        self.seed = seed
        self.values = {s: [] for s in self.SCHEMES}

    def _estimate(self, scheme, epsilon, seed):
        plan = rv.mlmc_plan(epsilon, self.N0, scheme, CALL, PARAMS_B)
        return rv.mlmc_price(plan, CALL, PARAMS_B, seed=seed)

    def setup(self):
        for level in range(self.LEVELS):
            rv.gaussian_spec(PARAMS_B, self.N0 * 2**level)
            rv.factor_for(PARAMS_B, self.N0 * 2**level)
        for k, scheme in enumerate(self.SCHEMES):
            self._estimate(scheme, self.WARMUP_EPS, derive_seed(self.seed, 0, k))

    def run_round(self, index, tracer=None, pace=None) -> Round:
        rnd = Round()
        for k, scheme in enumerate(self.SCHEMES):
            seed = derive_seed(self.seed, 1, index, k)
            kind = f"ml_{scheme.value}"
            est, seconds = _timed(
                tracer, pace, f"{index}.{k}", kind,
                lambda: self._estimate(scheme, self.EPS, seed),
            )
            rnd.ops.append(Op(kind, seconds, cost=est.cost, result=est))
        return rnd

    def check_round(self, rnd: Round) -> list:
        failures = []
        for op in rnd.ops:
            est = op.result
            self.values[est.scheme].append(est.value)
            failures += [f"{op.kind}: {m}" for m in checks.check_ml_estimate(est.value, self.EPS)]
        return failures

    def check_run(self) -> list:
        failures = []
        for scheme, values in self.values.items():
            failures += [f"ml_{scheme.value}: {m}" for m in checks.check_mse(values, self.EPS)]
        return failures

    @staticmethod
    def op_metrics(rounds) -> dict:
        out = {}
        for kind in ("ml_rect", "ml_trap"):
            out[f"{kind}_price_s"] = _median_seconds(rounds, kind)
            costs = [op.cost for r in rounds for op in r.ops if op.kind == kind]
            out[f"{kind}_cost_units"] = statistics.median(costs) if costs else 0.0
        return out


class LawSweep:
    """Cold law builds (`gaussian_spec` + `factor_for`), one per parameter set."""

    name = "law-sweep"
    # (n, H): ordinary builds; the seed moves H by up to 0.01 and draws eta and x0.
    ORDINARY = ((250, 0.05), (500, 0.2), (1000, 0.3), (2000, 0.1))
    NEAR_HALF = (250, 0.4999, 0.5)
    # Both fail with FactorizationError: the fixed-jitter Cholesky meets a
    # covariance of numerical rank 12-14.
    FAILING = ((1000, 0.005, 0.5), (1000, 0.1, 1e-4))

    def __init__(self, seed: int):
        self.seed = seed

    def _builds(self, index):
        rng = np.random.default_rng(derive_seed(self.seed, 1, index))
        for n, H in self.ORDINARY:
            params = rv.ModelParams(
                H=H + rng.uniform(-0.01, 0.01), eta=rng.uniform(0.3, 1.2), T=0.5,
                Delta=DELTA, x0=X0 + rng.uniform(-0.2, 0.2),
            )
            yield "law", n, params
        # Fixed inputs; only x0, which enters neither covariance nor factor,
        # moves with the round so that no two visits share a cache key.
        x0 = X0 + 1e-3 * (index + 1)
        n, H, T = self.NEAR_HALF
        yield "law_near_half", n, rv.ModelParams(H=H, eta=ETA, T=T, Delta=DELTA, x0=x0)
        for n, H, T in self.FAILING:
            yield "law", n, rv.ModelParams(H=H, eta=ETA, T=T, Delta=DELTA, x0=x0)

    @staticmethod
    def _build(params, n):
        spec = rv.gaussian_spec(params, n)
        try:
            factor = rv.factor_for(params, n)
        except rv.RoughVixError as exc:
            # Keep only the message: the traceback would hold the failed
            # build's matrices until the cycle collector runs.
            return params, n, spec, f"{type(exc).__name__}: {exc}"
        return params, n, spec, factor

    @staticmethod
    def clear_caches():
        """Empty the engine's law caches, so that every round starts cold."""
        _GAUSSIAN_SPEC.cache_clear()
        factor_cache = getattr(rv.sampler, "_factor_cache", None)
        if factor_cache is not None:
            factor_cache.clear()

    def setup(self):
        params = rv.ModelParams(H=0.2, eta=ETA, T=0.5, Delta=DELTA, x0=X0 - 1.0)
        self._build(params, 500)
        self.clear_caches()

    def run_round(self, index, tracer=None, pace=None) -> Round:
        self.clear_caches()
        rnd = Round()
        for k, (kind, n, params) in enumerate(self._builds(index)):
            built, seconds = _timed(
                tracer, pace, f"{index}.{k}", kind, lambda: self._build(params, n)
            )
            failed = isinstance(built[3], str)
            rnd.ops.append(Op(kind, seconds, failed=failed, result=built))
        return rnd

    def check_round(self, rnd: Round) -> list:
        failures = []
        for op in rnd.ops:
            params, n, spec, factor = op.result
            op.result = None
            if op.failed:
                continue
            H, eta, T, Delta = params.H, params.eta, params.T, params.Delta
            where = f"H={H!r} eta={eta!r} T={T!r} n={n}"
            found = (
                checks.check_covariance(spec.cov, H, eta, T, Delta, n)
                + checks.check_mean(spec.mean, H, eta, T, Delta, n, params.x0)
                + checks.check_factor(factor.L, spec.cov)
            )
            failures += [f"{where}: {m}" for m in found]
        return failures

    def check_run(self) -> list:
        return []

    @staticmethod
    def op_metrics(rounds) -> dict:
        sweep = [
            math.fsum(op.seconds for op in r.ops if op.kind == "law") for r in rounds
        ]
        return {
            "law_sweep_s": statistics.median(sweep) if sweep else 0.0,
            "law_near_half_s": _median_seconds(rounds, "law_near_half"),
        }


WORKLOADS = {w.name: w for w in (RefbMc, Fig3Mlmc, LawSweep)}

OP_METRICS = {
    "refb_price_s": "s",
    "ml_rect_price_s": "s",
    "ml_trap_price_s": "s",
    "ml_rect_cost_units": "n2",
    "ml_trap_cost_units": "n2",
    "law_sweep_s": "s",
    "law_near_half_s": "s",
}
