"""Exact simulation of the log-forward-variance law, and the batch kernel.

A draw is the one product ``[F | mean] @ [G; 1]``, i.e. ``mean + F @ G``,
with ``G`` a vector of ``r`` independent standard normals and ``F`` the
``(n+1) x r`` pivoted Cholesky factor of the covariance, which
:mod:`.model` builds and caches with the rest of the law
(:attr:`~roughvix.model.GaussianSpec.factor`).  A linear functional of
the draw, such as the control variate's log average, can be taken from
its normals in ``r`` steps.  Fine and coarse grids are coupled by index
restriction: the coarse vector is exactly the fine vector at every
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
bit-identical across runs and whichever thread draws a batch.
The product's bits depend on the batch width and its row blocks (BLAS
picks its kernel by the product's shape), which the fixed partition
keeps deterministic.

The batch kernel
----------------
Every sampled estimate runs through :func:`vix2_batches`, which turns
batches of draws into VIX^2 on the fine grid and its coarse grids with
the quadrature rules of :mod:`.schemes`.  A batch of ``m`` draws takes
its normals from one ``(r+1, m)`` block whose last row is ones
(:func:`_draw_normals`).  Later batches' normals are drawn ahead on
worker threads, one per CPU the process may run on
(:func:`_normals_ahead`); each batch keeps its own stream and block, so
the bits do not depend on the worker count.  The product is formed a
block of rows at a time (:func:`_row_blocks`, at most ``2^19`` values,
so that a block is still in cache when it is used) in one reused
buffer, and each row block is exponentiated in place and weighted as
soon as it is formed: the weight rows ``A`` of the fine grid and of
each coarse grid (:func:`~roughvix.schemes._weight_rows`) add ``A[:,
a:b] @ (block - e0)`` to a ``grids x m`` accumulator, ``e0`` being the
exponentiated grid row 0, and grid ``g``'s VIX^2 is ``e0 + acc[g] /
d[g]``.  The integer rows sum to exactly their divisors, so a flat
model gives exactly ``e0`` on every grid.  No ``(n+1, m)`` draw is ever
held: a call's peak batch memory is ``k + 1`` normals blocks for ``k``
workers and one row block.  The control variate's log average is
linear in the draw, so the kernel takes it from the batch's normals as
``w . mu + (F^T w) . G`` (:func:`~roughvix.schemes.geometric_projection`).
While a call runs, OpenBLAS is held at one thread
(:class:`_OneBlasThread`), so the products run on the calling thread
and the workers are the only parallelism; a product's bits do not
depend on the BLAS thread count.  Rounding stays far below the
quadrature error being studied.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import numpy as np
from scipy.special import ndtri

from .errors import UsageError
from .model import CholeskyFactor, GaussianSpec, ModelParams, gaussian_spec
from .schemes import SchemeKind, _weight_rows, geometric_projection

__all__ = [
    "factor_for",
    "stream_for",
    "batch_size",
    "batch_sizes",
]

# Target elements per batch, (n+1) x width.  It sets the batch partition,
# on which the streams and the product's bits depend; the estimators'
# memory is set by the row blocks below, not by it.
_BLOCK_BUDGET = 2**24
# Target elements per row block of a batch's product (4 MiB of float64),
# small enough to stay in cache from its product through its exp and
# weighting.
_ROW_BLOCK_BUDGET = 2**19

# Threads that draw batches' normals ahead of the batch being formed: one
# per CPU the process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# OpenBLAS's thread-count functions, (get, set) pairs in the order they
# are looked up: numpy's bundled scipy-openblas (64- and 32-bit integer
# builds), then a plain OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

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
    """Philox stream for the given root seed and spawn-key tuple."""
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
def _openblas_threads():
    """OpenBLAS's ``(get, set)`` thread-count functions, or None without OpenBLAS.

    The symbols are looked up in numpy's multiarray extension, whose
    dependencies ``dlsym`` also searches, so they are those of the
    OpenBLAS that numpy's products call; the first pair of
    ``_OPENBLAS_THREAD_FUNCTIONS`` found is returned.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        get = getattr(library, get_name, None)
        set_ = getattr(library, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


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


# Held by the batch kernel, so that the normals pool is the only
# parallelism in a sampled batch.
_ONE_BLAS_THREAD = _OneBlasThread()


def _normals_ahead(seed: int, key: tuple, widths: list, rank: int):
    """Yield batch ``i``'s ``[G; 1]`` block, drawn from ``stream_for(seed, *key, i)``.

    Batch ``i`` of the partition `widths` gets an ``(rank+1) x widths[i]``
    block filled by :func:`_draw_normals`, valid until the next block is
    requested.  With ``w = _WORKERS`` workers and more than one batch,
    the blocks are drawn ahead on a pool of ``w`` threads, up to ``w``
    batches beyond the one just yielded, in ``w + 1`` reused blocks;
    ``Generator.random`` and ``ndtri`` release the GIL, so the caller
    forms a batch while later ones are drawn.  Every batch has its own
    stream and a block of its own width, so the bits do not depend on
    the worker count.  The streams are made on the calling thread, so a
    worker runs only the draw.  One batch, or one CPU, draws inline with
    no pool; closing the generator, or an error in a worker (raised
    here), shuts the pool down.

    From its first block until it finishes or is closed (after the pool
    is shut down), the generator holds OpenBLAS at one thread
    (:data:`_ONE_BLAS_THREAD`), so the caller's products leave the other
    CPUs to the workers.  A product's bits do not depend on the BLAS
    thread count.
    """
    workers = min(_WORKERS, len(widths))
    size = (rank + 1) * widths[0]

    def place(index, buffer):
        return buffer[: (rank + 1) * widths[index]].reshape(rank + 1, widths[index])

    with _ONE_BLAS_THREAD:
        if workers < 2:
            buffer = np.empty(size)
            for index in range(len(widths)):
                block = place(index, buffer)
                _draw_normals(stream_for(seed, *key, index), block)
                yield block
            return
        buffers = [np.empty(size) for _ in range(min(workers + 1, len(widths)))]
        pool = ThreadPoolExecutor(workers, thread_name_prefix="roughvix-normals")

        def submit(index):
            block = place(index, buffers[index % len(buffers)])
            stream = stream_for(seed, *key, index)
            return pool.submit(_draw_normals, stream, block), block

        try:
            ahead = deque(submit(index) for index in range(len(buffers)))
            for index in range(len(widths)):
                future, block = ahead.popleft()
                future.result()
                yield block
                if index + len(buffers) < len(widths):
                    ahead.append(submit(index + len(buffers)))
        finally:
            pool.shutdown(cancel_futures=True)


def _row_blocks(rows: int, width: int) -> list:
    """Row bounds ``(a, b)`` in which a ``rows x width`` product is formed.

    The blocks cover rows ``0..rows-1`` in order with
    ``_ROW_BLOCK_BUDGET // width`` rows each, at least one (the last
    block may have fewer), so a batch that fits in the budget is one
    block.  The split is a pure function of ``(rows, width)``.
    """
    size = max(1, _ROW_BLOCK_BUDGET // max(width, 1))
    return [(a, min(a + size, rows)) for a in range(0, rows, size)]


def vix2_batches(
    kind: SchemeKind,
    spec: GaussianSpec,
    total: int,
    seed: int,
    key: tuple,
    coarse_steps=(),
    geometric: bool = False,
):
    """The batch kernel: VIX^2 of `total` draws of the law `spec`, batch by batch.

    Batch ``i`` of the fixed partition ``batch_sizes(n, total)`` draws
    its normals from ``stream_for(seed, *key, i)``; the module docstring
    describes how a batch is formed.  Closing the generator, or an error
    in a worker, stops the workers.

    Yields ``(fine, coarse, cv)`` per batch: the scheme's VIX^2 per draw,
    the list of VIX^2 arrays of the coarse grids that read every
    ``step``-th point, for ``step`` in `coarse_steps`, and, when
    `geometric` is set, the control variate ``exp(w . mu + (F^T w) . G)``
    from the batch's normals ``G`` (None otherwise): the Gaussian
    functional that :func:`~roughvix.payoffs.cv_price` prices.
    """
    n = spec.n
    weight_rows, divisors = _weight_rows(kind, n, (1, *coarse_steps))
    widths = batch_sizes(n, total)
    factor_mean = np.column_stack((spec.factor.L, spec.mean))
    # Every row block fits: no width exceeds widths[0].
    buffer = np.empty(min((n + 1) * widths[0], _ROW_BLOCK_BUDGET))
    if geometric:
        offset, projection = geometric_projection(kind, spec)
    with closing(_normals_ahead(seed, key, widths, spec.factor.rank)) as stacked_blocks:
        for stacked in stacked_blocks:
            width = stacked.shape[1]
            cv = np.exp(offset + projection @ stacked[:-1]) if geometric else None
            acc = np.zeros((len(divisors), width))
            for a, b in _row_blocks(n + 1, width):
                rows = buffer[: (b - a) * width].reshape(b - a, width)
                np.matmul(factor_mean[a:b], stacked, out=rows)
                np.exp(rows, out=rows)
                if a == 0:
                    e0 = rows[0].copy()
                rows -= e0
                acc += weight_rows[:, a:b] @ rows
            fine, *coarse = e0 + acc / divisors[:, None]
            yield fine, coarse, cv


def batch_size(n: int) -> int:
    """Samples per batch at grid size `n`: the width of the fixed partition.

    At most 32768 and at most ``2^24 / (n+1)``.  The widths fix the
    streams and the product's bits; they do not bound the estimators'
    memory, which holds one row block of a batch at a time.
    """
    return max(1, min(32_768, _BLOCK_BUDGET // (n + 1)))


def batch_sizes(n: int, total: int) -> list:
    """The fixed partition of `total` samples into batches at grid size `n`."""
    if not (isinstance(total, numbers.Integral) and total >= 1):
        raise UsageError(f"sample count must be an integer >= 1, got {total!r}")
    width = batch_size(n)
    full, rest = divmod(total, width)
    return [width] * full + ([rest] if rest else [])
