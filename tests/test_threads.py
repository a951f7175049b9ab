"""Batches formed on worker threads: the one-worker bits, and no thread left behind.

The batch kernel forms each batch, from its normals to its VIX^2, as one
task on a pool of ``sampler._WORKERS`` threads, one worker when there is
one CPU or one batch.  One call forms the batches of all its runs (an
estimate's levels) on one pool, with one batch more queued than it has
workers, each batch in a slot that no other batch holds while it forms.
Every batch has its own stream and width, so each output must be the
same float at every worker count, and a run's batches the same in a call
of many runs as in a call of its own.

While it runs, the kernel holds OpenBLAS at one thread and then
restores the count it found, once across concurrent calls.  The
products' bits must not depend on the BLAS thread count.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from roughvix import (
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    gaussian_spec,
    mc_price,
    mlmc_plan,
    mlmc_price,
    strong_error_curve,
)
from roughvix import estimators, sampler
from roughvix.estimators import _sample_moments
from roughvix.sampler import DOMAIN_MLMC, batch_size, batch_sizes, vix2_runs

from oracles import payoff_level
from platform_note import pin_message

X0 = math.log(0.235**2)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Worker counts compared with a pool of one worker: the pool at two and
# at three threads, whatever the host's CPU count.
WORKERS = (1, 2, 3)


def _at_each_worker_count(monkeypatch, run):
    """The results of `run()` at every worker count in WORKERS, in order."""
    results = []
    for workers in WORKERS:
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        results.append(run())
    return results


@pytest.mark.parametrize("use_cv", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_mc_price_is_the_same_at_every_worker_count(monkeypatch, scheme, use_cv):
    # Three full batches of 32768 draws and a remainder of 179.
    n = 250
    M = 3 * batch_size(n) + 179

    def run():
        est = mc_price(scheme, n, M, CALL, use_cv, PB, seed=6)
        return est.value.hex(), est.std_error.hex()

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_level_moments_are_the_same_at_every_worker_count(monkeypatch, scheme, level):
    n0 = 6
    m = 3 * batch_size(n0 * 2**level) + 179

    def run():
        spec = gaussian_spec(PB, n0 * 2**level)
        key = (2, DOMAIN_MLMC, level)
        (acc,) = _sample_moments(scheme, [payoff_level(CALL, spec, m, key, level > 0)], 12)
        return acc.mean.hex(), acc.variance.hex()

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_mlmc_price_is_the_same_at_every_worker_count(monkeypatch, scheme):
    # The fig3 plan at eps = 5e-4: eight levels in one kernel call, level 0
    # in 12 batches, level 1 in 3 and levels 2-7 in one batch each.
    plan = mlmc_plan(5e-4, 6, scheme, CALL, PB)

    def run():
        est = mlmc_price(plan, CALL, PB, seed=5)
        return est.value.hex(), est.std_error.hex(), est.bias_proxy.hex()

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


# (n, total, coarse_steps) of five runs, more than any worker count in
# WORKERS: three batches at rank 7, then one batch at n = 250 (rank 14)
# with two coarse grids, two batches of seven row blocks each, and two
# runs of a few draws.
RUNS = (
    (6, 2 * batch_size(6) + 5, ()),
    (250, 179, (2, 5)),
    (96, batch_size(96) + 100, (2,)),
    (12, 3, (2, 3)),
    (24, 1, ()),
)


def _bits(fine, coarse, cv):
    """The bytes of a batch's arrays, so that equal means equal bit for bit."""
    return [a.tobytes() for a in (fine, *coarse)], cv if cv is None else cv.tobytes()


@pytest.mark.parametrize("geometric", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_a_call_of_many_runs_gives_the_bits_of_one_call_per_run(monkeypatch, scheme, geometric):
    assert len(sampler._row_blocks(97, batch_size(96))) == 7
    runs = [
        (gaussian_spec(PB, n), total, (9, index), steps)
        for index, (n, total, steps) in enumerate(RUNS)
    ]

    def run():
        together = [
            (index, _bits(fine, coarse, cv))
            for index, fine, coarse, cv in vix2_runs(scheme, runs, 4, geometric)
        ]
        apart = [
            (index, _bits(*batch))
            for index, alone in enumerate(runs)
            for _, *batch in vix2_runs(scheme, [alone], 4, geometric)
        ]
        assert len(together) == 8
        assert together == apart
        return together

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


def test_strong_error_curve_is_the_same_at_every_worker_count(monkeypatch):
    def run():
        curve = strong_error_curve(SchemeKind.TRAPEZOID, (8, 16, 32), 64, 70_001, PB, seed=4)
        return [x.hex() for x in (*curve.errors, *curve.ci_halfwidths, curve.fitted_slope)]

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


def test_closing_a_half_consumed_kernel_stops_its_threads(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    baseline = threading.active_count()
    spec = gaussian_spec(PB, 6)
    batches = vix2_runs(SchemeKind.RECTANGLE, [(spec, 5 * batch_size(6), (DOMAIN_MLMC,), ())], 1)
    next(batches)
    next(batches)
    assert threading.active_count() > baseline
    batches.close()
    assert threading.active_count() == baseline


def test_closing_a_kernel_of_many_runs_at_a_run_boundary_stops_its_threads(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    baseline = threading.active_count()
    spec = gaussian_spec(PB, 6)
    runs = [
        (spec, 2 * batch_size(6), (DOMAIN_MLMC, 0), ()),
        (spec, 3 * batch_size(6), (DOMAIN_MLMC, 1), (2,)),
    ]
    batches = vix2_runs(SchemeKind.RECTANGLE, runs, 1)
    # Run 0's two batches are taken; run 1's first two are in flight.
    assert [next(batches)[0] for _ in range(2)] == [0, 0]
    assert threading.active_count() > baseline
    batches.close()
    assert threading.active_count() == baseline


def test_an_error_in_the_consumer_stops_the_threads(monkeypatch):
    # The estimator's payoff raises on the second batch; mc_price closes
    # the kernel as the error passes, though the caller still holds the
    # traceback (and with it mc_price's frame).
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    calls = []

    def failing_payoff(payoff, values):
        calls.append(len(values))
        if len(calls) == 2:
            raise ArithmeticError("consumer failed")
        return values

    monkeypatch.setattr(estimators, "payoff_eval", failing_payoff)
    baseline = threading.active_count()
    with pytest.raises(ArithmeticError, match="consumer failed") as excinfo:
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert len(calls) == 2
    assert threading.active_count() == baseline
    assert excinfo.traceback  # held until here, with mc_price's frame


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    draw = sampler._draw_normals
    threads = []

    def failing_draw(stream, block):
        threads.append(threading.current_thread().name)
        if len(threads) == 3:
            raise FloatingPointError("worker failed")
        return draw(stream, block)

    monkeypatch.setattr(sampler, "_draw_normals", failing_draw)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed") as excinfo:
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert threads[2].startswith("roughvix-batches")
    assert threading.active_count() == baseline
    assert excinfo.traceback  # held until here, with mc_price's frame


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mc_price_holds_its_worker_slots_and_batch_outputs(monkeypatch, workers):
    # The ref-b protocol, M = 2e5 with the control variate: six batches of
    # 32768 draws and one of 3392 at n = 250 (r = 14), on g = 1 grid.
    # With w workers, each of the w slots holds a block of
    # (r+1) x W normals, a row buffer of at most 2^19 values, and e0, the
    # accumulator and a product's temporary, (2g+1) x W; the kernel holds
    # at most w + 2 batches' outputs of (g+1) x W (VIX^2 per grid and the
    # control variate): w + 1 queued and the one it yields.  The rest is a
    # few vectors of the batch's width (the payoffs and their accumulation,
    # and the consumer's previous batch while it asks for the next),
    # bounded here by 16 of them.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    n, M, g = 250, 200_000, 1
    spec = gaussian_spec(PB, n)
    width = batch_size(n)
    batches = -(-M // width)
    assert batches == 7
    slots = min(workers, batches)
    slot = (spec.factor.rank + 1) * width + min((n + 1) * width, 2**19) + (2 * g + 1) * width
    outputs = min(workers + 2, batches) * (g + 1) * width
    bound = 8 * (slots * slot + outputs + 16 * width)
    tracemalloc.start()
    try:
        mc_price(SchemeKind.RECTANGLE, n, M, CALL, True, PB, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_fewer_batches_than_workers_give_the_one_worker_bits(monkeypatch):
    n = 250
    M = batch_size(n) + 179

    def run(workers):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        est = mc_price(SchemeKind.RECTANGLE, n, M, CALL, True, PB, seed=6)
        return est.value.hex(), est.std_error.hex()

    assert run(3) == run(1)


def test_batches_of_many_row_blocks_with_a_coarse_grid_are_the_same_at_every_worker_count(
    monkeypatch,
):
    # A coupled trapezoid level at n = 768: 33 row blocks per batch, and
    # three full batches and a remainder.
    n = 768
    assert len(sampler._row_blocks(n + 1, batch_size(n))) == 33
    m = 3 * batch_size(n) + 179
    spec = gaussian_spec(PB, n)

    def run():
        level = payoff_level(CALL, spec, m, (2, DOMAIN_MLMC, 7), True)
        (acc,) = _sample_moments(SchemeKind.TRAPEZOID, [level], 12)
        return acc.mean.hex(), acc.variance.hex()

    one, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [one] * len(threaded)


class _Recorder:
    """Records one kernel call's pool: its submissions, slots and tasks.

    Installs a pool that notes each submission in `events`, in order, as
    ``("submit", k)`` for task ``k``, keeps its futures, and runs task
    ``k`` with its index known on the worker thread.  `sampler._draw_normals`,
    the first step of forming a batch, is wrapped to note the slot the task
    forms in (its normals block's address) until the task returns; a slot
    taken while another task holds it goes to `clashes`.  Tasks from
    `hold_from` on wait there until the pool shuts down, and the task
    `fail` raises there.  The pool's shutdown cancels the queued tasks
    first, then lets the held ones go, then waits for its threads.
    """

    def __init__(self, monkeypatch, hold_from=None, fail=None):
        self.lock = threading.Lock()
        self.events, self.futures, self.clashes = [], [], []
        self.busy, self.slots, self.most = {}, set(), 0
        self.release = threading.Event()
        self.local = threading.local()
        recorder, draw = self, sampler._draw_normals

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                with recorder.lock:
                    k = len(recorder.futures)
                    recorder.events.append(("submit", k))
                recorder.futures.append(super().submit(recorder._run, k, fn, *args))
                return recorder.futures[-1]

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                recorder.release.set()
                super().shutdown(wait=wait)

        def recording_draw(stream, block):
            k, slot = self.local.task, block.__array_interface__["data"][0]
            with self.lock:
                if slot in self.busy.values():
                    self.clashes.append((k, slot))
                self.busy[k] = slot
                self.slots.add(slot)
                self.most = max(self.most, len(self.busy))
            if hold_from is not None and k >= hold_from:
                self.release.wait(timeout=60)
            if k == fail:
                raise FloatingPointError("worker failed")
            return draw(stream, block)

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sampler, "_draw_normals", recording_draw)

    def _run(self, k, fn, *args):
        self.local.task = k
        try:
            return fn(*args)
        finally:
            with self.lock:
                self.busy.pop(k, None)

    def note(self, event):
        with self.lock:
            self.events.append(event)


def _batch_threads():
    return [t for t in threading.enumerate() if t.name.startswith("roughvix-batches")]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_kernel_queues_one_batch_ahead_of_its_workers(monkeypatch, workers):
    # Batch t + w + 1 is submitted before batch t is yielded, so a worker
    # that finishes finds a batch waiting; no more than w + 1 are queued.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    recorder = _Recorder(monkeypatch)
    tasks, spec = 8, gaussian_spec(PB, 6)
    run = (spec, tasks * batch_size(6), (DOMAIN_MLMC,), ())
    batches = vix2_runs(SchemeKind.RECTANGLE, [run], 1)
    for t, _ in enumerate(batches):
        recorder.note(("yield", t))
    submitted, before_yield = 0, []
    for kind, _ in recorder.events:
        submitted += kind == "submit"
        if kind == "yield":
            before_yield.append(submitted)
    assert before_yield == [min(t + workers + 2, tasks) for t in range(tasks)]


@pytest.mark.parametrize("workers", [2, 3])
def test_no_slot_is_formed_in_by_two_batches_at_once(monkeypatch, workers):
    # A consumer that sleeps lets the w + 1 queued batches run together,
    # and a short switch interval interleaves the workers' slot handling.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    recorder = _Recorder(monkeypatch)
    runs = [
        (gaussian_spec(PB, 6), 4 * batch_size(6), (1,), ()),
        (gaussian_spec(PB, 24), 3 * batch_size(24), (2,), (2,)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in vix2_runs(SchemeKind.TRAPEZOID, runs, 1):
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
    assert len(recorder.futures) == 7
    assert recorder.clashes == []
    assert recorder.most >= 2 and len(recorder.slots) <= workers


def _close_with_batches_queued(monkeypatch, workers):
    """Close a call of 8 batches after its first two, with w + 1 queued.

    Batches from 2 on are held as they start, so the w workers hold
    batches 2 .. w + 1 and batch w + 2 is still queued at the close.
    """
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    recorder = _Recorder(monkeypatch, hold_from=2)
    spec = gaussian_spec(PB, 6)
    batches = vix2_runs(SchemeKind.RECTANGLE, [(spec, 8 * batch_size(6), (DOMAIN_MLMC,), ())], 1)
    next(batches)
    next(batches)
    assert len(recorder.futures) == workers + 3
    batches.close()
    return recorder


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_closing_a_kernel_cancels_its_queued_batches(monkeypatch, workers):
    baseline = threading.active_count()
    recorder = _close_with_batches_queued(monkeypatch, workers)
    assert recorder.futures[-1].cancelled()
    assert all(future.done() for future in recorder.futures)
    assert _batch_threads() == []
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_closing_a_kernel_with_batches_queued_restores_the_blas_count(
    monkeypatch, blas_count, workers
):
    _close_with_batches_queued(monkeypatch, workers)
    assert blas_count() == 2


def _fail_with_batches_queued(monkeypatch, workers):
    """Run 8 batches in which batch 2 raises in its worker, while the
    batches after it are held, so w + 1 batches are queued when it fails.
    Returns the recorder once the error has reached the caller."""
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    recorder = _Recorder(monkeypatch, hold_from=3, fail=2)
    spec = gaussian_spec(PB, 6)
    taken, run = [], (spec, 8 * batch_size(6), (DOMAIN_MLMC,), ())
    with pytest.raises(FloatingPointError, match="worker failed"):
        for batch in vix2_runs(SchemeKind.RECTANGLE, [run], 1):
            taken.append(batch)
    assert len(taken) == 2
    # Batches 0 .. w + 2 were submitted, and none after batch 2 failed.
    assert len(recorder.futures) == workers + 3
    assert all(future.done() for future in recorder.futures)
    return recorder


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_worker_with_batches_queued_stops_the_threads(monkeypatch, workers):
    baseline = threading.active_count()
    _fail_with_batches_queued(monkeypatch, workers)
    assert _batch_threads() == []
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_worker_with_batches_queued_restores_the_blas_count(
    monkeypatch, blas_count, workers
):
    _fail_with_batches_queued(monkeypatch, workers)
    assert blas_count() == 2


def _fail_on_third_row_blocks(monkeypatch):
    """Make `sampler._row_blocks` raise on its 3rd call; returns the callers' thread names."""
    row_blocks = sampler._row_blocks
    threads = []

    def failing_row_blocks(rows, width):
        threads.append(threading.current_thread().name)
        if len(threads) == 3:
            raise FloatingPointError("product failed")
        return row_blocks(rows, width)

    monkeypatch.setattr(sampler, "_row_blocks", failing_row_blocks)
    return threads


def test_an_error_in_a_workers_product_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    threads = _fail_on_third_row_blocks(monkeypatch)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="product failed") as excinfo:
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert threads[2].startswith("roughvix-batches")
    assert threading.active_count() == baseline
    assert excinfo.traceback  # held until here, with mc_price's frame


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_mlmc_price_holds_one_set_of_worker_slots_for_all_levels(monkeypatch, scheme, workers):
    # The fig3 plan at eps = 5e-4 samples its eight levels in one kernel
    # call: 21 batches on at most w workers.  Each slot is sized by the
    # largest of each component over the levels, not by their sum: a level
    # of rank r at grid n, widest batch W_l and g_l grids (1 at level 0,
    # else 2) needs (r+1) x W_l normals, a row buffer of min((n+1) x W_l,
    # 2^19), e0 of W_l, and the accumulator and a product's temporary of
    # g_l x W_l.  The kernel holds at most w + 2 batches' outputs (w + 1
    # queued and the one it yields), each of g x W (fine and coarse VIX^2,
    # no control variate), with W = 32768 the widest batch and g = 2.  The
    # rest is a few vectors of width W (the payoffs and their accumulation,
    # and the consumer's previous batch while it asks for the next) and the
    # levels' tables, bounded here by 16 of them.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    plan = mlmc_plan(5e-4, 6, scheme, CALL, PB)
    components, tasks = [], 0
    for level, (n, m) in enumerate(zip(plan.n_levels, plan.m_levels)):
        rank, width, g = gaussian_spec(PB, n).factor.rank, min(m, batch_size(n)), 1 + (level > 0)
        components.append(
            ((rank + 1) * width, min((n + 1) * width, 2**19), width, g * width, g * width)
        )
        tasks += len(batch_sizes(n, m))
    assert tasks == 21
    slot = sum(max(column) for column in zip(*components))
    W, g = batch_size(6), 2
    bound = 8 * (min(workers, tasks) * slot + min(workers + 2, tasks) * g * W + 16 * W)
    tracemalloc.start()
    try:
        mlmc_price(plan, CALL, PB, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def _fail_in_a_later_level(monkeypatch):
    """The fig3 plan at eps = 5e-3, with `_fail_on_third_row_blocks` set.

    Each of its four levels is one batch, and on two workers levels 0
    and 1 start first, so the third call of `_row_blocks` forms level 2
    or 3.
    """
    plan = mlmc_plan(5e-3, 6, SchemeKind.RECTANGLE, CALL, PB)
    assert [len(batch_sizes(n, m)) for n, m in zip(plan.n_levels, plan.m_levels)] == [1] * 4
    return plan, _fail_on_third_row_blocks(monkeypatch)


def test_an_error_in_a_later_level_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    plan, threads = _fail_in_a_later_level(monkeypatch)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="product failed") as excinfo:
        mlmc_price(plan, CALL, PB, seed=1)
    assert threads[2].startswith("roughvix-batches")
    assert threading.active_count() == baseline
    assert excinfo.traceback  # held until here, with mlmc_price's frame


# --- one BLAS thread while the kernel runs -----------------------------------


@pytest.fixture
def blas_count():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test.

    The count the kernel must restore then differs from the 1 it holds,
    whatever the host's default; the prior count is put back afterwards.
    """
    threads = sampler._openblas_threads()
    if threads is None:
        pytest.skip("numpy links no OpenBLAS with thread-count functions")
    get, set_ = threads
    prior = get()
    set_(2)
    try:
        yield get
    finally:
        set_(prior)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_kernel_runs_on_one_blas_thread(monkeypatch, blas_count, workers):
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    spec = gaussian_spec(PB, 6)
    inside = [
        blas_count()
        for _ in vix2_runs(SchemeKind.RECTANGLE, [(spec, 3 * batch_size(6), (DOMAIN_MLMC,), ())], 1)
    ]
    assert inside == [1, 1, 1]
    assert blas_count() == 2


def test_a_call_with_no_runs_yields_nothing_and_starts_no_pool(monkeypatch, blas_count):
    def no_pool(*args, **kwargs):
        raise AssertionError("a call with no runs started a pool")

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", no_pool)
    baseline = threading.active_count()
    assert list(vix2_runs(SchemeKind.RECTANGLE, [], 1)) == []
    assert _batch_threads() == []
    assert threading.active_count() == baseline
    assert blas_count() == 2


def test_closing_a_half_consumed_kernel_restores_the_blas_count(monkeypatch, blas_count):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    spec = gaussian_spec(PB, 6)
    batches = vix2_runs(SchemeKind.RECTANGLE, [(spec, 5 * batch_size(6), (DOMAIN_MLMC,), ())], 1)
    next(batches)
    next(batches)
    assert blas_count() == 1
    batches.close()
    assert blas_count() == 2


def test_an_error_in_the_consumer_restores_the_blas_count(monkeypatch, blas_count):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    inside = []

    def failing_payoff(payoff, values):
        inside.append(blas_count())
        if len(inside) == 2:
            raise ArithmeticError("consumer failed")
        return values

    monkeypatch.setattr(estimators, "payoff_eval", failing_payoff)
    with pytest.raises(ArithmeticError, match="consumer failed") as excinfo:
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert inside == [1, 1]
    assert blas_count() == 2
    assert excinfo.traceback  # held until here, with mc_price's frame


def test_an_error_in_a_worker_restores_the_blas_count(monkeypatch, blas_count):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    draw = sampler._draw_normals
    calls = []

    def failing_draw(stream, block):
        calls.append(None)
        if len(calls) == 3:
            raise FloatingPointError("worker failed")
        return draw(stream, block)

    monkeypatch.setattr(sampler, "_draw_normals", failing_draw)
    with pytest.raises(FloatingPointError, match="worker failed"):
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert blas_count() == 2


def test_an_error_in_a_workers_product_restores_the_blas_count(monkeypatch, blas_count):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    _fail_on_third_row_blocks(monkeypatch)
    with pytest.raises(FloatingPointError, match="product failed"):
        mc_price(SchemeKind.RECTANGLE, 6, 5 * batch_size(6), CALL, False, PB, seed=1)
    assert blas_count() == 2


def test_an_error_in_a_later_level_restores_the_blas_count(monkeypatch, blas_count):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    plan, _ = _fail_in_a_later_level(monkeypatch)
    with pytest.raises(FloatingPointError, match="product failed"):
        mlmc_price(plan, CALL, PB, seed=1)
    assert blas_count() == 2


def test_concurrent_calls_restore_the_blas_count_once(monkeypatch, blas_count):
    # Each call waits in its first payoff until the other has reached
    # its own, so both kernels hold at once.
    get, set_ = sampler._openblas_threads()
    counts_set = []

    def recording_set(count):
        counts_set.append(count)
        set_(count)

    monkeypatch.setattr(sampler, "_openblas_threads", lambda: (get, recording_set))
    both_inside = threading.Barrier(2, timeout=60)
    payoff_eval = estimators.payoff_eval
    waited = set()

    def meeting_payoff(payoff, values):
        if threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            both_inside.wait()
        return payoff_eval(payoff, values)

    monkeypatch.setattr(estimators, "payoff_eval", meeting_payoff)
    results, errors = [], []

    def price(seed):
        try:
            est = mc_price(SchemeKind.RECTANGLE, 6, 3 * batch_size(6), CALL, False, PB, seed)
            results.append(est.value)
        except Exception as error:  # reported by the assertions below
            errors.append(error)

    threads = [threading.Thread(target=price, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 2
    assert counts_set == [1, 2]
    assert blas_count() == 2


def test_the_hold_survives_many_threads_entering_at_once(monkeypatch):
    # More threads than cores enter and leave the hold with a short
    # switch interval, against a stand-in count.  A lost update to the
    # holder count would either restore it while a holder is inside or
    # never restore it.
    count = [5]
    hold = sampler._OneBlasThread()
    pair = (lambda: count[0], lambda value: count.__setitem__(0, value))
    monkeypatch.setattr(sampler, "_openblas_threads", lambda: pair)
    seen = []

    def enter_and_leave():
        for _ in range(2000):
            with hold:
                seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 2000 and set(seen) == {1}
    assert count == [5]


def test_without_openblas_the_platform_names_none_and_the_hold_does_nothing(
    monkeypatch, blas_count
):
    # The lookup run again over a table of builds that numpy does not link.
    simd = sampler.platform()["simd"]
    monkeypatch.setattr(sampler, "_OPENBLAS_BUILDS", (("no_such_openblas", ""),))
    sampler._numpy_blas.cache_clear()
    try:
        assert sampler.platform() == {"openblas": None, "simd": simd}
        assert sampler._openblas_threads() is None
        spec = gaussian_spec(PB, 6)
        run = (spec, 2 * batch_size(6), (DOMAIN_MLMC,), ())
        inside = [blas_count() for _ in vix2_runs(SchemeKind.RECTANGLE, [run], 1)]
        assert inside == [2, 2]
    finally:
        monkeypatch.undo()
        sampler._numpy_blas.cache_clear()
    assert sampler._openblas_threads() is not None


def test_the_kernel_gives_the_same_bits_without_openblas_control(monkeypatch):
    n = 250
    M = 3 * batch_size(n) + 179

    def run():
        est = mc_price(SchemeKind.RECTANGLE, n, M, CALL, True, PB, seed=6)
        level = payoff_level(CALL, gaussian_spec(PB, 12), M, (2, DOMAIN_MLMC, 1), True)
        (acc,) = _sample_moments(SchemeKind.TRAPEZOID, [level], 12)
        return [x.hex() for x in (est.value, est.std_error, acc.mean, acc.variance)]

    held = run()
    monkeypatch.setattr(sampler, "_openblas_threads", lambda: None)
    assert run() == held, pin_message()


def _seeded_outputs():
    """Seeded outputs whose bits must not depend on the BLAS thread count.

    An mc_price with the control variate over three full batches and a
    remainder at n = 250, and an ml-rect and an ml-trap estimate at
    5e-3, as hex floats.
    """
    est = mc_price(SchemeKind.RECTANGLE, 250, 3 * batch_size(250) + 179, CALL, True, PB, 6)
    values = [est.value, est.std_error]
    for k, scheme in enumerate(SchemeKind):
        est = mlmc_price(mlmc_plan(5e-3, 6, scheme, CALL, PB), CALL, PB, seed=20 + k)
        values += [est.value, est.std_error]
    return [x.hex() for x in values]


# Prints the BLAS thread count and _seeded_outputs() with the kernel's
# hold turned off, so the products run on the count the environment sets.
_UNHELD_OUTPUTS = """
import json, sys
sys.path[:0] = sys.argv[1:]
from roughvix import sampler
import test_threads
threads = sampler._openblas_threads()
sampler._openblas_threads = lambda: None
print(json.dumps([threads and threads[0](), test_threads._seeded_outputs()]))
"""


def test_the_seeded_outputs_do_not_depend_on_the_blas_thread_count():
    found = {}
    for count in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _UNHELD_OUTPUTS, str(SRC), str(HERE)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(count)},
            capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        found[count] = json.loads(proc.stdout.splitlines()[-1])
    if sampler._openblas_threads() is not None and sampler._WORKERS >= 2:
        assert [found[count][0] for count in (1, 2)] == [1, 2]
    assert found[1][1] == found[2][1] == _seeded_outputs()
