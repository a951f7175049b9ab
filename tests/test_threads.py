"""Normals drawn ahead on worker threads: the inline bits, and no thread left behind.

The batch kernel draws each batch's normals on a pool of
``sampler._WORKERS`` threads, ahead of the batch being formed; with one
worker it draws them inline.  Every batch has its own stream and block,
so each output must be the same float at every worker count.
"""

import math
import threading
import tracemalloc

import pytest

from roughvix import (
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    gaussian_spec,
    mc_price,
    strong_error_curve,
)
from roughvix import estimators, sampler
from roughvix.estimators import _level_moments
from roughvix.sampler import DOMAIN_MLMC, batch_size
from roughvix.schemes import vix2_batches

X0 = math.log(0.235**2)
PB = ModelParams(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=X0)
CALL = Payoff(PayoffKind.CALL, strike=0.1)

# Worker counts compared with the inline path (one worker): the pool at
# two and at three threads, whatever the host's CPU count.
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

    inline, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [inline] * len(threaded)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_level_moments_are_the_same_at_every_worker_count(monkeypatch, scheme, level):
    n0 = 6
    m = 3 * batch_size(n0 * 2**level) + 179

    def run():
        acc = _level_moments(scheme, CALL, PB, n0, level, m, 12, (2,), DOMAIN_MLMC)
        return acc.mean.hex(), acc.variance.hex()

    inline, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [inline] * len(threaded)


def test_strong_error_curve_is_the_same_at_every_worker_count(monkeypatch):
    def run():
        curve = strong_error_curve(SchemeKind.TRAPEZOID, (8, 16, 32), 64, 70_001, PB, seed=4)
        return [x.hex() for x in (*curve.errors, *curve.ci_halfwidths, curve.fitted_slope)]

    inline, *threaded = _at_each_worker_count(monkeypatch, run)
    assert threaded == [inline] * len(threaded)


def test_closing_a_half_consumed_kernel_stops_its_threads(monkeypatch):
    monkeypatch.setattr(sampler, "_WORKERS", 2)
    baseline = threading.active_count()
    spec = gaussian_spec(PB, 6)
    batches = vix2_batches(SchemeKind.RECTANGLE, spec, 5 * batch_size(6), 1, (DOMAIN_MLMC,))
    next(batches)
    next(batches)
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
    assert threads[2].startswith("roughvix-normals")
    assert threading.active_count() == baseline
    assert excinfo.traceback  # held until here, with mc_price's frame


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mc_price_holds_its_normals_blocks_and_one_row_block(monkeypatch, workers):
    # The ref-b protocol, M = 2e5 with the control variate: six batches of
    # 32768 draws and one of 3392 at n = 250 (r = 14).  With w workers the
    # kernel keeps w + 1 blocks of (r+1) x 32768 normals (one, inline), and
    # forms the draws a row block of 2^19 values at a time; the rest is a
    # few vectors of the batch's width (VIX^2, the control variate, the
    # payoffs and their accumulation), bounded here by 16 of them.
    monkeypatch.setattr(sampler, "_WORKERS", workers)
    n, M = 250, 200_000
    spec = gaussian_spec(PB, n)
    width = batch_size(n)
    batches = -(-M // width)
    assert batches == 7
    blocks = min(workers + 1, batches) if workers > 1 else 1
    bound = 8 * (blocks * (spec.factor.rank + 1) * width + 2**19 + 16 * width)
    tracemalloc.start()
    try:
        mc_price(SchemeKind.RECTANGLE, n, M, CALL, True, PB, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
