"""Spans around calls into the engine's public functions, and the per-layer
metrics computed from them.

The tracer wraps every public function (``__all__``) of the six layer
modules and rebinds each name wherever the package holds a reference to
it, so calls between modules are recorded too (``estimators`` calls
``sampler.sample_fine`` through its own global name, for instance).
Nothing inside the engine changes; a span covers one call of one public
function.  Spans are kept in memory and written out when the run ends.

A span is ``[name, layer, start, end, parent, op, info]``: ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the id of the
benchmark op it belongs to, and ``info`` the counts taken at that
boundary (or None).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
from time import perf_counter

import numpy as np

PACKAGE = "roughvix"
LAYERS = ("model", "hypergeometric", "sampler", "schemes", "payoffs", "estimators")
BENCH = "bench"

# Grid sizes of the fig3 plan at epsilon = 5e-4 (n0 = 6, L = 7).
LEVEL_GRIDS = tuple(6 * 2**level for level in range(8))
ML_SCHEMES = ("rect", "trap")

_CV_FUNCTIONS = ("geometric_vix2", "cv_corrected_payoff", "cv_moments", "cv_price")


def _sample_fine(a, result):
    rows, cols = a["factor"].L.shape
    return {"rows": rows, "cols": cols, "width": a.get("size") or 1}


def _factor_for(a, result):
    return {"cols": result.L.shape[1], "jittered": bool(getattr(result, "jittered", False))}


def _batch_sizes(a, result):
    return {"n": int(a["n"]), "total": int(a["total"])}


def _summed(rows_per_step):
    def describe(a, result):
        values = a["sample"].values
        width = values.shape[1] if values.ndim == 2 else 1
        return {"summed": rows_per_step * a["sample"].grid_n * width}

    return describe


def _hyp2f1(a, result):
    return {"args": int(np.size(a["x"]))}


def _estimate(a, result):
    return {"cost": float(result.cost), "scheme": result.scheme.value}


# Counts recorded at a boundary, from the call's bound arguments and result.
_DESCRIBE = {
    "sample_fine": _sample_fine,
    "factor_for": _factor_for,
    "batch_sizes": _batch_sizes,
    "rectangle_vix2": _summed(1),
    "trapezoid_vix2": _summed(2),
    "hyp2f1": _hyp2f1,
    "mc_price": _estimate,
    "mlmc_price": _estimate,
}


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the names."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn, wrapper))

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        describe = _DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = {"error": type(exc).__name__}
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                span[6] = describe(bound.arguments, result)
            return result

        return traced

    def install(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def begin(self, op_id, kind):
        """Open the benchmark's own span around one op."""
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([kind, BENCH, perf_counter(), 0.0, -1, op_id, None])

    def end(self):
        span = self.spans[self._stack.pop()]
        span[3] = perf_counter()
        self.op = None


def _subtree_end(spans, index):
    """One past the last descendant of `index` (spans are in pre-order)."""
    end = spans[index][3]
    j = index + 1
    while j < len(spans) and spans[j][2] < end:
        j += 1
    return j


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics per traced round, from a list of spans.

    Self time is a span's duration less the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    count = len(spans)
    child_time = [0.0] * count
    has_child = [False] * count
    for span in spans:
        parent = span[4]
        if parent >= 0:
            child_time[parent] += span[3] - span[2]
            has_child[parent] = True
    self_time = [s[3] - s[2] - child_time[i] for i, s in enumerate(spans)]

    totals = dict.fromkeys(METRIC_NAMES, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    factor_cols = []
    under_spec = [False] * count
    bench_total = 0.0
    for i, (name, layer, start, end, parent, _, info) in enumerate(spans):
        if layer == BENCH:
            totals["trace.bench_s"] += self_time[i]
            bench_total += end - start
            continue
        layer_self[layer] += self_time[i]
        under_spec[i] = (name == "gaussian_spec" and has_child[i]) or (
            parent >= 0 and under_spec[parent]
        )
        info = info or {}
        if name == "sample_fine" and "width" in info:
            totals["sampler.sample_s"] += self_time[i]
            totals["sampler.normals"] += info["cols"] * info["width"]
            totals["sampler.product_madds"] += info["rows"] * info["cols"] * info["width"]
        elif name == "stream_for":
            totals["sampler.streams"] += 1
        elif name in ("factor_for", "cholesky_factor"):
            totals["sampler.factor_s"] += self_time[i]
            if name == "factor_for":
                if "error" in info:
                    totals["sampler.factor_failures"] += 1
                    totals["sampler.jitter_retries"] += 1
                    totals["sampler.factor_builds"] += 1
                else:
                    factor_cols.append(info["cols"])
                    totals["sampler.factor_builds" if has_child[i] else "sampler.factor_hits"] += 1
                    totals["sampler.jitter_retries"] += has_child[i] and info["jittered"]
        elif name in ("rectangle_vix2", "trapezoid_vix2") and "summed" in info:
            totals["schemes.values_summed"] += info["summed"]
        elif name == "hyp2f1" and "args" in info:
            totals["hypergeometric.hyp2f1_args"] += info["args"]
        elif name == "mlmc_plan":
            totals["estimators.plan_s"] += end - start
        if layer == "model" and under_spec[i]:
            totals["model.spec_s"] += self_time[i]
        if layer == "payoffs":
            key = "payoffs.cv_s" if name in _CV_FUNCTIONS else "payoffs.payoff_s"
            totals[key] += self_time[i]
        if name in ("mc_price", "mlmc_price") and "cost" in info:
            totals["estimators.cost_units"] += info["cost"]
            if name == "mlmc_price":
                _levels(spans, i, info["scheme"], totals)

    totals["sampler.self_s"] = layer_self["sampler"]
    totals["model.self_s"] = layer_self["model"]
    totals["hypergeometric.hyp2f1_s"] = layer_self["hypergeometric"]
    totals["schemes.vix2_s"] = layer_self["schemes"]
    totals["payoffs.self_s"] = layer_self["payoffs"]
    totals["estimators.self_s"] = layer_self["estimators"]
    totals["trace.spans"] = float(count)
    out = {name: value / rounds for name, value in totals.items()}
    out["sampler.factor_cols"] = statistics.fmean(factor_cols) if factor_cols else 0.0
    out["trace.coverage"] = (
        math.fsum(layer_self.values()) / bench_total if bench_total > 0 else 0.0
    )
    return out


def _levels(spans, index, scheme, totals):
    """Level spans of one `mlmc_price` call, grouped by fine grid size.

    Each level starts with the estimator's `batch_sizes(n_fine, M_l)`
    call and runs until the next level starts or the estimate returns.
    """
    stop = _subtree_end(spans, index)
    marks = [
        spans[j] for j in range(index + 1, stop)
        if spans[j][0] == "batch_sizes" and spans[j][6]
    ]
    bounds = [m[2] for m in marks] + [spans[index][3]]
    for mark, start, end in zip(marks, bounds, bounds[1:]):
        n = mark[6]["n"]
        if n in LEVEL_GRIDS and scheme in ML_SCHEMES:
            totals[f"estimators.ml_{scheme}.n{n}.s"] += end - start
            totals[f"estimators.ml_{scheme}.n{n}.samples"] += mark[6]["total"]


METRIC_NAMES = (
    "sampler.self_s",
    "sampler.sample_s",
    "sampler.normals",
    "sampler.product_madds",
    "sampler.streams",
    "sampler.factor_s",
    "sampler.factor_builds",
    "sampler.factor_hits",
    "sampler.factor_cols",
    "sampler.jitter_retries",
    "sampler.factor_failures",
    "model.self_s",
    "model.spec_s",
    "hypergeometric.hyp2f1_s",
    "hypergeometric.hyp2f1_args",
    "schemes.vix2_s",
    "schemes.values_summed",
    "payoffs.self_s",
    "payoffs.cv_s",
    "payoffs.payoff_s",
    "estimators.self_s",
    "estimators.plan_s",
    "estimators.cost_units",
    *(
        f"estimators.ml_{scheme}.n{n}.{what}"
        for scheme in ML_SCHEMES
        for n in LEVEL_GRIDS
        for what in ("s", "samples")
    ),
    "trace.bench_s",
    "trace.spans",
    "trace.coverage",
)


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "estimators.cost_units":
        return "n2"
    if name == "trace.coverage":
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in METRIC_NAMES}
