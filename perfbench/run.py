"""Benchmark of the roughvix engine: one workload per invocation.

    python3 perfbench/run.py --workload refb-mc --seed 1 --seconds 20 --trace 0

Workloads: ``refb-mc``, ``fig3-mlmc`` and ``law-sweep`` (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Results and traces are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("refb-mc", "fig3-mlmc", "law-sweep")
# Cold set-ups per run: this process and this many fresh interpreters.
SETUP_CHILDREN = 2
# Seconds of measured work per pass of the calibration kernel (probe.py).
PROBE_EVERY_S = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, set up once, print the set-up time and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _limit_threads():
    """At most one BLAS thread per available core; set before numpy loads."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def _setup_seconds(args) -> list:
    """Cold set-up times, each in a fresh interpreter (import included)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _set_up(args):
    """Import the engine and set the workload up; the first import is cold."""
    start = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    return workloads, workload, perf_counter() - start


class _Pacer:
    """Runs the calibration `kernel` between ops, about once per `every`
    seconds of measured work, so its samples spread over the whole run."""

    def __init__(self, kernel, every):
        self.kernel, self.every = kernel, every
        self.samples = []
        self._mark = None

    def __call__(self):
        due = 1 if self._mark is None else int((perf_counter() - self._mark) / self.every)
        if due:
            self.samples += [self.kernel() for _ in range(due)]
            self._mark = perf_counter()


def _measure(workload, seconds, tracer, pace):
    """Whole rounds until `seconds` have passed; with a tracer, every other
    round is traced (at least one of each)."""
    rounds, traced, failures = [], [], []
    start = perf_counter()
    index = 0
    while True:
        on = tracer is not None and index % 2 == 1
        if on:
            tracer.install()
        try:
            rnd = workload.run_round(index, tracer if on else None, pace)
        finally:
            if on:
                tracer.uninstall()
        failures += workload.check_round(rnd)
        (traced if on else rounds).append(rnd)
        index += 1
        if perf_counter() - start >= seconds and index >= (2 if tracer else 1):
            break
    failures += workload.check_run()
    return rounds, traced, failures


def _write(name, payload):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "roughvix" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        print(json.dumps({"setup_s": _set_up(args)[2]}))
        return 0

    setup = [] if args.trace else _setup_seconds(args)
    workloads, workload, seconds = _set_up(args)
    setup.append(seconds)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    import probe

    probe.kernel_seconds()
    pace = _Pacer(probe.kernel_seconds, PROBE_EVERY_S)
    rounds, traced, failures = _measure(workload, args.seconds, tracer, pace)
    probe_s = statistics.median(pace.samples)
    scale = probe.REFERENCE_S / probe_s
    round_wall_s = statistics.median(r.seconds for r in rounds)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    every = rounds + traced
    attempted = sum(len(r.ops) for r in every)
    failed = sum(op.failed for r in every for op in r.ops)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": spans.UNITS[name]}
            for name, value in spans.layer_metrics(tracer.spans, len(traced)).items()
        }
        ops = dict.fromkeys(workloads.OP_METRICS, 0.0)
        ops.update(workload.op_metrics(rounds))
        for name, value in ops.items():
            metrics[name] = {"value": value, "unit": workloads.OP_METRICS[name]}
        slow = statistics.median(r.seconds for r in traced)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (slow / round_wall_s - 1.0), "unit": "%"
        }
        metrics["probe_s"] = {"value": probe_s, "unit": "s"}
        _write(
            f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "span_fields": ["name", "layer", "start", "end", "parent", "op", "info"],
             "spans": tracer.spans},
        )
    else:
        metrics = {
            "round_s": {"value": round_wall_s * scale, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    wall = {"round_wall_s": round_wall_s, "setup_wall_s": setup, "probe_s": probe_s}
    print(f"wall seconds: {json.dumps(wall)}", file=sys.stderr)
    _write(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {**result, "wall": wall},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
