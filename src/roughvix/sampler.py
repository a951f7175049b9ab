"""Exact simulation of the log-forward-variance law, and the batch kernel.

A draw is the one product ``[F | mean] @ [G; 1]``, i.e. ``mean + F @ G``,
with ``G`` a vector of ``r`` independent standard normals and ``F`` the
``(n+1) x r`` pivoted Cholesky factor of the covariance of a law
``GaussianSpec(params, dates)``, built with it (:mod:`.model`); the cached
``gaussian_spec(params, n)`` is the law on the uniform grid.  A linear
functional of the draw, such as the control variate's log average, comes
from its normals in ``r`` steps.  Fine and coarse grids are coupled by
index restriction: the coarse vector is exactly the fine vector at every
``s``-th grid point.

Reproducibility contract
------------------------
All randomness flows from one 64-bit root seed.  A stream is the Philox
counter-based generator seeded by ``SeedSequence(root_seed, spawn_key=key)``
where `key` is a tuple of small integers identifying its role (documented
in docs/formats.md).  Standard normals are produced by inverse-CDF from
the 53-bit uniforms ``(k + 1/2) 2^-53``, so a stream's output is a pure
function of (seed, key) and the draw count.  A draw consumes ``r``
normals, the factor's rank.  Work is split into fixed-size batches that
depend only on the grid size, each with its own stream, so results are
bit-identical across runs and whichever thread forms a batch.
The product's bits depend on the batch width and its row blocks (BLAS
picks its kernel by the product's shape), which the fixed partition
keeps deterministic, on the platform that :func:`platform` names.

The batch kernel
----------------
Every sampled estimate runs through :func:`vix2_runs`, which turns batches
of draws into VIX^2 on the fine grid and its coarse grids with the
quadrature rules of :mod:`.schemes`, for one or more runs (a multilevel
estimate's levels) in one call.  A batch of ``m`` draws takes its normals
from one ``(r+1, m)`` block whose last row is ones
(:func:`_draw_normals`).  The product is formed a block of rows at a time
(:func:`_row_blocks`, at most ``2^19`` values) in one reused buffer, and
each row block is exponentiated in place and weighted as soon as it is
formed: the weight rows ``A`` of the fine grid and of each coarse grid
(:func:`~roughvix.schemes._weight_rows`, the one statement of the rules)
add ``A[:, a:b] @ (block - e0)`` to a ``grids x m`` accumulator, ``e0``
being the exponentiated grid row 0, and grid ``g``'s VIX^2 is ``e0 +
acc[g] / d[g]``.  When ``m`` is a multiple of ``_TILE`` (4096) columns,
each row block runs its product, exp, ``e0`` shift and weighting a tile of
columns at a time, so the tile's normals and rows stay in cache; any other
width is one tile.  Every column sees the same operations either way.  The
integer rows sum to exactly their divisors, so a flat model gives exactly
``e0`` on every grid.  No ``(n+1, m)`` draw is ever held.  The control
variate's log average is linear in the draw, so the kernel takes it from
the batch's normals as ``w . mu + (F^T w) . G``
(:func:`~roughvix.schemes.geometric_projection`).

Each batch is one task, from its normals to its VIX^2, on one pool of
``w`` worker threads per call, one per CPU the process may run on and at
most one per task: a call of one batch, or any call in a process with
one CPU, has one worker, and a call with no runs starts no pool.  The
pool spans the call's runs: the tasks are run 0's batches in order, then
run 1's, and so on.  A call makes ``w`` slots when it starts (a normals
block, a row buffer, ``e0``, the accumulator and one product's
temporary, each sized for the largest run) and keeps them on a free
list: a task takes any free slot when it starts and puts it back when
its batch is formed.  The calling thread keeps ``w + 1`` tasks
submitted, submitting task ``t + w + 1`` as soon as it has taken task
``t``'s result and before it yields it, so a worker that finishes finds
a task waiting.  It makes each run's tables once, every stream and
every batch's outputs, and yields the results in task order, so the
workers allocate nothing; a call holds ``w`` slots and the outputs of at
most ``w + 2`` batches (``w + 1`` submitted and the one it yields; its
caller may still hold the one before).  While a call runs, OpenBLAS is
held at one thread (:class:`_OneBlasThread`), so each worker's products
run on one thread and the pool is the only parallelism.  Under
OpenBLAS's SkylakeX kernels a product's bits do not depend on the BLAS
thread count; under its Haswell kernels they can.
Rounding stays far below the quadrature error being studied.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import os
import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtri

from .errors import UsageError, _whole
from .model import CholeskyFactor, ModelParams, gaussian_spec
from .schemes import SchemeKind, _weight_rows, geometric_projection

__all__ = [
    "factor_for",
    "stream_for",
    "batch_size",
    "batch_sizes",
    "platform",
]

# Target elements per batch, (n+1) x width.  It sets the batch partition,
# on which the streams and the product's bits depend; the estimators'
# memory is set by the row blocks below, not by it.
_BLOCK_BUDGET = 2**24
# Target elements per row block of a batch's product (4 MiB of float64),
# small enough to stay in cache from its product through its exp and
# weighting.
_ROW_BLOCK_BUDGET = 2**19
# Columns per tile of a row block whose batch width is a multiple of it:
# a tile's normals and rows stay in L2 through its product, exp and
# weighting.  Other widths are one tile; tiling them moves the last bits
# of the factor product's last columns.
_TILE = 4096

# Threads that form a call's batches: one per CPU the process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# OpenBLAS builds, as the (prefix, suffix) of their function names, in lookup
# order: numpy's bundled scipy-openblas (64- and 32-bit integers), then a plain one.
_OPENBLAS_BUILDS = (
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
    ("openblas", "64_"),
    ("openblas", ""),
)
_OPENBLAS_FUNCTIONS = {  # the OpenBLAS functions called: name -> (argtypes, restype)
    "get_num_threads": ((), ctypes.c_int),
    "set_num_threads": ((ctypes.c_int,), None),
    "get_config": ((), ctypes.c_char_p),
}

# Stream-key domains (first component of every spawn key).
DOMAIN_MC = 1
DOMAIN_MLMC = 2
DOMAIN_PILOT = 3
DOMAIN_EXPERIMENT = 4
DOMAIN_COV_CHECK = 5  # the CLI's covariance spot-check draws


def factor_for(params: ModelParams, n: int) -> CholeskyFactor:
    """Pivoted Cholesky factor of the law of `params` on the n-step grid.

    The factor is cached with the law in :func:`~roughvix.model.gaussian_spec`.
    """
    return gaussian_spec(params, n).factor


def stream_for(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for the given root seed and spawn-key tuple.

    The seed must be an integer in [0, 2^64) and each key item an integer
    >= 0, bools excluded; anything else raises UsageError.
    """
    whole = [isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (seed, *key)]
    if not all(whole) or seed >= 2**64 or min((seed, *key)) < 0:
        raise UsageError(
            "a stream takes an integer seed in [0, 2^64) and integer key items >= 0, "
            f"got {seed!r} and {key!r}"
        )
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


def _standard_normals(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with inverse-CDF standard normals from 53-bit uniforms.

    ``Generator.random`` returns ``k 2^-53`` for the top 53 bits ``k`` of
    one 64-bit word, the ``k`` that ``integers(0, 2**53)`` returns; adding
    ``2^-54`` rounds exactly as ``(k + 0.5) 2^-53`` does.  The uniforms
    are written into `out` (C-contiguous float64, filled in row-major
    order) and turned into normals in place.  No rejection.
    """
    stream.random(out=out)
    out += 2.0**-54
    return ndtri(out, out=out)


def _draw_normals(stream: np.random.Generator, block: np.ndarray) -> np.ndarray:
    """Fill `block` with ``[G; 1]`` and return ``G``, its leading rows.

    The standard normals ``G`` fill every row of `block` but the last,
    which is set to ones, so ``[F | mean] @ block`` is ``mean + F G``.
    """
    normals = _standard_normals(stream, block[:-1])
    block[-1] = 1.0
    return normals


@functools.cache
def _numpy_blas():
    """numpy's multiarray extension, and its OpenBLAS's functions by name (None without).

    They are those of the first of ``_OPENBLAS_BUILDS`` found in the extension,
    whose dependencies ``dlsym`` also searches: the OpenBLAS numpy's products call.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        return umath, None
    for prefix, suffix in _OPENBLAS_BUILDS:
        found = {n: getattr(library, f"{prefix}_{n}{suffix}", None) for n in _OPENBLAS_FUNCTIONS}
        if None not in found.values():
            for name, (argtypes, restype) in _OPENBLAS_FUNCTIONS.items():
                found[name].argtypes, found[name].restype = argtypes, restype
            return umath, found
    return umath, None


def _openblas_threads():
    """OpenBLAS's ``(get, set)`` thread-count functions, or None without OpenBLAS."""
    openblas = _numpy_blas()[1]
    return None if openblas is None else (openblas["get_num_threads"], openblas["set_num_threads"])


def platform() -> dict:
    """The platform a seed's last bits belong to (docs/formats.md), as a dict.

    ``"openblas"`` is OpenBLAS's config string, which names the core it
    picked, or None; ``"simd"`` lists numpy's enabled SIMD features.
    """
    umath, openblas = _numpy_blas()
    config = None if openblas is None else openblas["get_config"]().decode().strip()
    return {"openblas": config, "simd": [name for name, on in umath.__cpu_features__.items() if on]}


class _OneBlasThread:
    """A counted, process-wide hold of OpenBLAS at one thread.

    The first holder to enter reads OpenBLAS's thread count and sets it
    to 1; the last to leave restores the count it read.  The holders are
    counted under a lock, so kernel calls running at once on several
    threads restore the count once.  While any hold is entered, every
    BLAS call in the process runs on one thread.  A no-op when
    :func:`_openblas_threads` finds no OpenBLAS.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._holders == 0 and (threads := _openblas_threads()) is not None:
                get, set_ = threads
                self._restore = functools.partial(set_, get())
                set_(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._restore is not None:
                self._restore()
                self._restore = None


# Held by the batch kernel, so that its worker pool is the only
# parallelism in a sampled batch.
_ONE_BLAS_THREAD = _OneBlasThread()


def _leading(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The leading ``rows x width`` values of the flat `buffer`, as a C-contiguous view."""
    return buffer[: rows * width].reshape(rows, width)


def _row_blocks(rows: int, width: int) -> list:
    """Row bounds ``(a, b)`` in which a ``rows x width`` product is formed.

    The blocks cover rows ``0..rows-1`` in order with
    ``_ROW_BLOCK_BUDGET // width`` rows each, at least one (the last
    block may have fewer), so a batch that fits in the budget is one
    block.  The split is a pure function of ``(rows, width)``.
    """
    size = max(1, _ROW_BLOCK_BUDGET // max(width, 1))
    return [(a, min(a + size, rows)) for a in range(0, rows, size)]


def vix2_runs(kind: SchemeKind, runs, seed: int, geometric: bool = False):
    """The batch kernel: VIX^2 of every run's draws, batch by batch, on one pool.

    A run is ``(spec, total, key, coarse_steps)``: `total` draws of the
    law `spec`, whose batch ``i`` of the fixed partition ``batch_sizes(n,
    total)`` draws its normals from ``stream_for(seed, *key, i)``.  The
    runs' batches form one task list, run 0's batches in order, then run
    1's, and so on; the module docstring describes how a batch is formed,
    and on which threads.  Closing the generator, or an error in a worker
    (raised here), shuts the pool down.

    Yields ``(run, fine, coarse, cv)`` per batch, in task order: the
    run's index, the scheme's VIX^2 per draw, the list of VIX^2 arrays of
    the coarse grids that read every ``step``-th point, for ``step`` in
    the run's `coarse_steps`, and, when `geometric` is set, the control
    variate ``exp(w . mu + (F^T w) . G)`` from the batch's normals ``G``
    (None otherwise): the Gaussian functional that
    :func:`~roughvix.payoffs.cv_price` prices.  Each batch's arrays are
    its own.
    """
    tables, tasks, sizes = [], [], []
    for run, (spec, total, key, coarse_steps) in enumerate(runs):
        n, rank = spec.n, spec.factor.rank
        weight_rows, divisors = _weight_rows(kind, n, (1, *coarse_steps))
        widths = batch_sizes(n, total)
        factor_mean = np.column_stack((spec.factor.L, spec.mean))
        projection = geometric_projection(weight_rows[0], divisors[0], spec) if geometric else None
        tables.append((n, rank, weight_rows, divisors, factor_mean, projection))
        m, g = widths[0], len(divisors)
        tasks += [(run, key, index, (g, width)) for index, width in enumerate(widths)]
        # The run's slot at its widest batch: the normals block, the row buffer
        # (every row block fits), e0, acc and one product's temporary.
        sizes.append(((rank + 1) * m, min((n + 1) * m, _ROW_BLOCK_BUDGET), m, g * m, g * m))
    if not tasks:
        return
    workers = min(_WORKERS, len(tasks))
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put([np.empty(max(column)) for column in zip(*sizes)])

    def task(t):
        """Task `t`'s run, stream and fresh outputs, made on the calling thread."""
        run, key, index, shape = tasks[t]
        cv = np.empty(shape[1]) if geometric else None
        return run, stream_for(seed, *key, index), np.empty(shape), cv

    def form(run, stream, out, cv):
        """Form one batch of `run` into `out` and `cv` in a slot taken from the free list."""
        n, rank, weight_rows, divisors, factor_mean, projection = tables[run]
        slot = free.get()
        try:
            block, buffer, e0, acc, tmp = slot
            grids, width = out.shape
            tile = _TILE if width % _TILE == 0 else width
            stacked = _leading(block, rank + 1, width)
            e0, acc, tmp = e0[:width], _leading(acc, grids, width), _leading(tmp, grids, tile)
            normals = _draw_normals(stream, stacked)
            if geometric:
                offset, weights = projection
                np.matmul(weights, normals, out=cv)
                cv += offset
                np.exp(cv, out=cv)
            acc.fill(0.0)
            for a, b in _row_blocks(n + 1, width):
                rows = _leading(buffer, b - a, tile)
                for c in range(0, width, tile):
                    np.matmul(factor_mean[a:b], stacked[:, c : c + tile], out=rows)
                    np.exp(rows, out=rows)
                    if a == 0:
                        e0[c : c + tile] = rows[0]
                    rows -= e0[c : c + tile]
                    np.matmul(weight_rows[:, a:b], rows, out=tmp)
                    acc[:, c : c + tile] += tmp
            np.divide(acc, divisors[:, None], out=out)
            out += e0
        finally:
            free.put(slot)
        fine, *coarse = out
        return run, fine, coarse, cv

    with _ONE_BLAS_THREAD:
        pool = ThreadPoolExecutor(workers, thread_name_prefix="roughvix-batches")
        try:
            queued = deque(pool.submit(form, *task(t)) for t in range(min(workers + 1, len(tasks))))
            for t in range(len(tasks)):
                result = queued.popleft().result()
                if t + workers + 1 < len(tasks):
                    queued.append(pool.submit(form, *task(t + workers + 1)))
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


def batch_size(n: int) -> int:
    """Samples per batch at grid size `n`: the width of the fixed partition.

    At most 32768 and at most ``2^24 / (n+1)``.  The widths fix the
    streams and the product's bits; they do not bound the estimators'
    memory, which holds one row block per worker at a time.
    """
    n = _whole(n, 1, "grid size n")
    return max(1, min(32_768, _BLOCK_BUDGET // (n + 1)))


def batch_sizes(n: int, total: int) -> list:
    """The fixed partition of `total` samples into batches at grid size `n`."""
    if isinstance(total, bool) or not (isinstance(total, numbers.Integral) and total >= 1):
        raise UsageError(f"sample count must be an integer >= 1, got {total!r}")
    width = batch_size(n)
    full, rest = divmod(total, width)
    return [width] * full + ([rest] if rest else [])
