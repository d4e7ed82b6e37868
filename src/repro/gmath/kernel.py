"""Batched GF(256) linear algebra: the one kernel every codec calls.

Every encoding in this library -- Shamir, packed sharing, systematic and
non-systematic Reed-Solomon, proactive renewal -- is the same operation:
multiply a *small* scalar matrix (share counts, so < 256 on a side) by a
*wide* matrix of byte-rows (one row per polynomial coefficient or share,
one column per byte of the object).  This module provides that product,
:func:`gf256_matmul`, plus an LRU-cached **plan layer** for the small
matrices themselves, so steady-state encode/decode never rebuilds a
Vandermonde matrix, inverts one in pure Python, or re-derives Lagrange
coefficients.

Kernel shape
------------

``gf256_matmul(A, B)`` computes the ``(m, L)`` product of an ``(m, k)``
scalar matrix with a ``(k, L)`` byte matrix.  Three execution strategies,
all exact field arithmetic and therefore byte-identical:

- **Gather loop** (small payloads): each output row is an XOR-accumulation
  of table-row gathers (``np.take`` into a preallocated scratch row), with
  two short-circuits worth real throughput: coefficient ``0`` contributes
  nothing and coefficient ``1`` is a plain XOR.
- **Packed pair tables** (wide payloads, the codec shapes ``m <= 8``):
  input byte-rows are combined two at a time into 16-bit indices into a
  64 KiB table whose entries pack *all m* output bytes into one machine
  word, so the whole product is ``ceil(k/2)`` gathers instead of ``m*k``
  -- the dominant cost of the gather loop is ``np.take`` widening every
  uint8 index row to ``intp``, and pair-packing divides that traffic by
  ``2m``.  Tables are pure functions of the plan matrix and LRU-cached.
- **Sharded** (wide payloads, ``REPRO_KERNEL_WORKERS > 1``): the payload
  axis is cut at deterministic block boundaries and the blocks run on a
  worker pool.  Output bytes never depend on the partition -- each output
  column is a function of its input column only -- so the result is
  byte-identical to single-thread for every shape and worker count.

The measured alternative -- one 3-D fancy-index ``_MUL_TABLE[A[:, :, None],
B[None, :, :]]`` followed by ``np.bitwise_xor.reduce`` -- materializes an
``(m, k, L)`` intermediate and benches ~2x slower on MiB-scale rows than
even the gather loop, so it is not used.

Plan-cache invariants (documented in DESIGN.md "Performance")
-------------------------------------------------------------

- Every cached plan is a **pure function of its key**: evaluation points,
  matrix width, survivor-index tuples.  No plan depends on payload bytes,
  archive state, or the rng, so a hit can never change an output.
- Cached arrays are returned **read-only** (``writeable=False``); callers
  that need to mutate must copy.  This makes sharing across threads safe.
- Caches are **bounded LRUs** (``functools.lru_cache``), sized for fleets
  far larger than any benchmark: eviction is correctness-neutral, only a
  re-derivation cost.
- Plan builds record **no metrics**: a counter that fires only on a cache
  miss would make two identically seeded runs produce different registry
  snapshots (the chaos suite pins snapshot determinism).  Observability of
  the plan layer is per-*request* instead --
  ``codec_plan_requests_total{plan=...}`` counts every lookup, which is a
  pure function of the workload; cache temperature shows up only in
  :func:`plan_cache_info`, never in the metrics registry.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from repro import config as _config
from repro.errors import ParameterError
from repro.gmath.gf256 import _MUL_TABLE, GF256
from repro.gmath.matrix import FieldMatrix
from repro.gmath.poly import lagrange_basis_at
from repro.obs import metrics as _metrics

#: Plans are tiny (at most ~64 KiB each); 512 entries comfortably covers
#: every (n, k) x survivor-set mix a large fleet cycles through.
_PLAN_CACHE_SIZE = 512

#: Below this payload width the gather loop wins: packed tables and worker
#: hand-off have fixed costs that only amortize over wide rows.
PACKED_MIN_WIDTH = 16384

#: Packed tables hold one machine word per entry, so at most 8 output rows
#: fit; wider plans fall back to the gather loop.  ``k`` is capped so one
#: plan's table set stays bounded (ceil(k/2) tables of 64 KiB * pad each).
_PACKED_MAX_OUT = 8
_PACKED_MAX_IN = 16

#: Sharding floor: never hand a worker a block narrower than this (the
#: per-task submit/wake cost would exceed the matmul itself).
SHARD_MIN_BLOCK = 32768

_PAD_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


# -- the kernel ----------------------------------------------------------------


def gf256_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of an ``(m, k)`` scalar matrix and a ``(k, L)`` byte matrix.

    ``a`` holds GF(256) scalars (the codec plan); ``b`` holds one byte-row
    per input symbol.  Returns the ``(m, L)`` uint8 product -- one output
    byte-row per output symbol -- computed entirely in vectorized table
    gathers, no per-byte Python.  Wide payloads ride the packed pair-table
    path, sharded across the kernel worker pool when
    ``REPRO_KERNEL_WORKERS`` (see :mod:`repro.config`) allows; every path
    is exact GF(256) arithmetic, so outputs are byte-identical regardless
    of strategy, cache temperature, or worker count.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2:
        raise ParameterError(f"plan matrix must be 2-D, got shape {a.shape}")
    b = np.asarray(b)
    if b.dtype != np.uint8:
        raise ParameterError("GF(256) byte rows must be uint8")
    if b.ndim != 2:
        raise ParameterError(f"byte matrix must be 2-D, got shape {b.shape}")
    m, k = a.shape
    k2, width = b.shape
    if k != k2:
        raise ParameterError(f"matmul dimension mismatch: ({m},{k}) x {b.shape}")
    out = np.zeros((m, width), dtype=np.uint8)
    if m and k and width:
        packed = (
            width >= PACKED_MIN_WIDTH
            and m <= _PACKED_MAX_OUT
            and k <= _PACKED_MAX_IN
        )
        block_fn = _packed_block if packed else _gather_block
        args = (
            # Cache key is the (m*k)-byte plan matrix, not the payload.
            (_packed_tables(a.tobytes(), m, k),) if packed else (a,)  # noqa: ARCH008
        )
        _run_sharded(block_fn, args, b, out)
    _metrics.inc("gf256_vec_ops_total")
    _metrics.inc("gf256_vec_bytes_total", m * k * width)
    return out


def _gather_block(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Gather-loop strategy: one ``np.take`` per nonzero, non-one scalar."""
    m, k = a.shape
    width = b.shape[1]
    scratch = np.empty(width, dtype=np.uint8)
    for i in range(m):
        acc = out[i]
        for j in range(k):
            coefficient = a[i, j]
            if coefficient == 0:
                continue
            if coefficient == 1:
                acc ^= b[j]
                continue
            np.take(_MUL_TABLE[coefficient], b[j], out=scratch, mode="clip")
            acc ^= scratch


def _packed_block(
    tables: tuple[np.ndarray, ...], b: np.ndarray, out: np.ndarray
) -> None:
    """Packed strategy: pair-indexed tables, all output rows per gather.

    Accumulation happens in the packed word domain (contiguous, SIMD-wide);
    the single strided unpack at the end is the only per-output-row pass.
    """
    k, width = b.shape
    m = out.shape[0]
    pad = tables[0].dtype.itemsize
    acc = np.zeros(width, dtype=tables[0].dtype)
    position = 0
    for j in range(0, k - 1, 2):
        index = b[j].astype(np.uint16)
        index <<= 8
        index |= b[j + 1]
        acc ^= np.take(tables[position], index, mode="clip")
        position += 1
    if k % 2:
        acc ^= np.take(tables[position], b[k - 1], mode="clip")
    unpacked = acc.view(np.uint8).reshape(width, pad)
    for i in range(m):
        out[i] = unpacked[:, i]


@lru_cache(maxsize=32)
def _packed_tables(a_bytes: bytes, m: int, k: int) -> tuple[np.ndarray, ...]:
    """Packed multiplication tables for one plan matrix, LRU-cached.

    Pure function of the plan bytes: entry ``x*256 + y`` of pair table
    ``j/2`` holds ``mul(a[i, j], x) ^ mul(a[i, j+1], y)`` in byte lane
    ``i``.  Returned arrays are frozen read-only so worker threads can
    share them.
    """
    a = np.frombuffer(a_bytes, dtype=np.uint8).reshape(m, k)
    pad = 1 if m == 1 else 2 if m == 2 else 4 if m <= 4 else 8
    dtype = _PAD_DTYPE[pad]
    tables = []
    for j in range(0, k - 1, 2):
        lanes = np.zeros((65536, pad), dtype=np.uint8)
        for i in range(m):
            lanes[:, i] = (
                _MUL_TABLE[a[i, j]][:, None] ^ _MUL_TABLE[a[i, j + 1]][None, :]
            ).reshape(-1)
        tables.append(_freeze_words(lanes, dtype))
    if k % 2:
        lanes = np.zeros((256, pad), dtype=np.uint8)
        for i in range(m):
            lanes[:, i] = _MUL_TABLE[a[i, k - 1]]
        tables.append(_freeze_words(lanes, dtype))
    return tuple(tables)


def _freeze_words(lanes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    words = lanes.view(dtype).reshape(-1)
    words.setflags(write=False)
    return words


# -- worker-pool sharding ------------------------------------------------------

_POOL_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The shared kernel pool, rebuilt only when the worker knob changes."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE != workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
            _POOL_SIZE = workers
        return _POOL


def shard_bounds(width: int, workers: int) -> list[tuple[int, int]]:
    """Deterministic payload-axis block boundaries for *workers* shards.

    A pure function of ``(width, workers)``: equal-width blocks, never
    narrower than :data:`SHARD_MIN_BLOCK`.  The partition can never change
    output bytes (each output column depends only on its input column);
    determinism here keeps the *work distribution* reproducible too.
    """
    if width <= 0:
        return []
    blocks = min(workers, max(1, width // SHARD_MIN_BLOCK))
    bounds = []
    for i in range(blocks):
        lo = i * width // blocks
        hi = (i + 1) * width // blocks
        if hi > lo:
            bounds.append((lo, hi))
    return bounds


def _run_sharded(block_fn, args: tuple, b: np.ndarray, out: np.ndarray) -> None:
    """Run *block_fn* over payload-axis shards of ``b``/``out``.

    Falls through to one direct call when the pool would not help (single
    worker, or payload too narrow to cut).
    """
    workers = _config.kernel_workers()
    bounds = shard_bounds(b.shape[1], workers) if workers > 1 else []
    if len(bounds) <= 1:
        block_fn(*args, b, out)
        return
    pool = _worker_pool(workers)
    futures = [
        pool.submit(block_fn, *args, b[:, lo:hi], out[:, lo:hi])
        for lo, hi in bounds
    ]
    for future in futures:
        future.result()


def rows_as_matrix(
    rows: list[np.ndarray] | tuple[np.ndarray, ...] | np.ndarray,
) -> np.ndarray:
    """Stack equal-length uint8 byte-rows into the kernel's (k, L) shape.

    Already-2-D arrays pass through untouched; hot paths that can produce
    a contiguous (k, L) matrix directly should do so and skip the copy.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows
    if len(rows) == 0:
        raise ParameterError("cannot stack zero rows")
    return np.stack(rows)


# -- cached codec plans --------------------------------------------------------


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _vandermonde_cached(xs: tuple[int, ...], width: int) -> np.ndarray:
    return _freeze(FieldMatrix.vandermonde(GF256, list(xs), width).rows)


def vandermonde_plan(xs: tuple[int, ...], width: int) -> np.ndarray:
    """Rows ``[1, x, ..., x^(width-1)]`` for each evaluation point, cached.

    This is the split/evaluation plan: ``shares = V @ coefficient_rows``.
    """
    _metrics.inc("codec_plan_requests_total", plan="vandermonde")
    return _vandermonde_cached(xs, width)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _vandermonde_inverse_cached(xs: tuple[int, ...], width: int) -> np.ndarray:
    return _freeze(FieldMatrix.vandermonde(GF256, list(xs), width).inverse().rows)


def vandermonde_inverse_plan(xs: tuple[int, ...], width: int) -> np.ndarray:
    """Inverse Vandermonde for the surviving points, cached by survivor set.

    The pure-Python Gauss-Jordan inversion is O(width^3) scalar field ops;
    caching by the survivor-index tuple means a degraded read pays it once
    per loss pattern, not once per object.
    """
    _metrics.inc("codec_plan_requests_total", plan="vandermonde-inverse")
    return _vandermonde_inverse_cached(xs, width)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lagrange_matrix_cached(
    xs: tuple[int, ...], targets: tuple[int, ...]
) -> np.ndarray:
    rows = [
        [lagrange_basis_at(GF256, list(xs), j, x) for j in range(len(xs))]
        for x in targets
    ]
    return _freeze(rows)


def lagrange_matrix_plan(
    xs: tuple[int, ...], targets: tuple[int, ...]
) -> np.ndarray:
    """Rows of Lagrange coefficients mapping values at *xs* to each target.

    Row r is ``[l_0(target_r), ..., l_{k-1}(target_r)]``: the plan that
    re-evaluates the interpolating polynomial at the target points.  With
    ``targets = (0,)`` this is Shamir reconstruction; with the packed
    scheme's secret points it is packed reconstruction; with share points
    it is packed splitting.
    """
    _metrics.inc("codec_plan_requests_total", plan="lagrange")
    return _lagrange_matrix_cached(xs, targets)


def interpolate_rows(
    xs: tuple[int, ...],
    rows: list[np.ndarray] | np.ndarray,
    targets: tuple[int, ...],
) -> np.ndarray:
    """Values at *targets* of the polynomials whose values at *xs* are *rows*.

    Column c of *rows* holds one polynomial's values at the points *xs*;
    row r of the result holds its value at ``targets[r]``.  One cached
    Lagrange plan, one matmul: Shamir and packed reconstruction, packed
    splitting and every scheme's share regeneration are this call.
    """
    return gf256_matmul(lagrange_matrix_plan(xs, targets), rows_as_matrix(rows))


def _freeze(rows: list[list[int]]) -> np.ndarray:
    array = np.array(rows, dtype=np.uint8)
    array.setflags(write=False)
    return array


# -- cache management ----------------------------------------------------------

_PLAN_FUNCTIONS = {
    "vandermonde_plan": _vandermonde_cached,
    "vandermonde_inverse_plan": _vandermonde_inverse_cached,
    "lagrange_matrix_plan": _lagrange_matrix_cached,
    "packed_mul_tables": _packed_tables,
}

#: Serializes cache maintenance (clear/info) against itself.  Plan *lookups*
#: stay lock-free: CPython's lru_cache wrapper is thread-safe at the C level,
#: and a shard that raced a clear simply rebuilds its plan -- the plans are
#: pure functions of their keys, so any rebuild is byte-identical.  The lock
#: exists so two maintenance calls can't interleave a half-cleared view, and
#: so ``plan_cache_info`` reports one consistent cut of the statistics.
_MAINTENANCE_LOCK = threading.Lock()


def plan_cache_info() -> dict[str, object]:
    """Hit/miss statistics for every plan cache (tests and diagnostics).

    Safe while shards are in flight: taken under the maintenance lock so it
    never interleaves with a ``clear_plan_caches`` half-way through its
    sweep (which would report some caches cleared and some not, a view no
    sequential execution could produce).
    """
    with _MAINTENANCE_LOCK:
        return {name: fn.cache_info()._asdict() for name, fn in _PLAN_FUNCTIONS.items()}


def clear_plan_caches() -> None:
    """Drop every cached plan (test isolation; never needed for correctness).

    Safe while shards are in flight: each ``cache_clear`` is atomic inside
    CPython's lru_cache, in-flight shards keep the (immutable) plan arrays
    they already hold, and any concurrent miss rebuilds an identical plan.
    The maintenance lock only serializes this sweep against other
    maintenance calls so ``plan_cache_info`` never sees a torn clear.
    """
    with _MAINTENANCE_LOCK:
        for fn in _PLAN_FUNCTIONS.values():
            fn.cache_clear()
