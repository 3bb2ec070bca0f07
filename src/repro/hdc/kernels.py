"""The similarity-kernel subsystem: exact backends with size-aware dispatch.

Every prediction, retrieval and figure in this reproduction bottoms out
in one computation — the all-pairs normalized Hamming distance between
two batches of packed hypervectors.  This module provides three **exact,
bit-identical** backends for it, plus a fused top-k retrieval kernel:

* ``"xor"`` (alias ``"xor-popcount"``) — the reference path: broadcast
  XOR over packed words + popcount, chunked to stay within the shared
  allocation budget.  Memory-bandwidth bound; unbeatable when the
  problem is tiny (a single query against a handful of class vectors).
* ``"xor-mt"`` — the threaded-blocked XOR path for the regime where
  GEMM's unpack toll loses but the problem is big enough to pay for
  real blocking: the packed rows are widened to ``uint64`` words (the
  padding bytes are zero, so popcount is unchanged — exact), the
  larger operand axis is split into contiguous per-thread spans, and
  each thread streams cache-sized blocks through **preallocated
  scratch** (in-place ``bitwise_xor`` + ``bitwise_count``), killing
  the numpy temporary tax that dominates the reference path.  Threads
  write disjoint output spans, so the result is deterministic and
  bit-identical for any thread count.
* ``"gemm"`` — the classic HDC identity
  ``popcount(a XOR b) = |a| + |b| − 2·(a · b)`` turns all-pairs distance
  into one BLAS matrix product over the unpacked operands.  Cache-blocked
  and SIMD-vectorised by BLAS, it is many times faster than the XOR scan
  once both batches are non-trivial.  The product runs in ``float32``
  for ``d ≤ 2²⁴`` (where every intermediate is an exactly representable
  integer, so the result is **exact**, not approximate) and ``float64``
  beyond; the unpacked operand blocks never exceed the allocation budget
  (:func:`repro.hdc.packed.cell_budget`, ``REPRO_KERNEL_BUDGET``).
* ``"auto"`` — per-call dispatch on the measured crossovers.  The cost
  model: the XOR scan is ``O(n·m·d)`` byte traffic, while GEMM pays an
  ``O((n+m)·d)`` unpack toll plus ``O(n·m·d)`` FLOPs at a far higher
  throughput.  Equating the two, the ``d`` terms cancel and the
  GEMM crossover collapses to the harmonic size ``n·m / (n+m)`` — GEMM
  wins once *both* batches are big enough, regardless of ``d``.  Below
  that, ``xor-mt`` takes over once the XOR cube (``n·m·width`` byte
  cells) is large enough to amortise its widening and scheduling
  overhead; the smallest problems stay on the plain ``xor`` scan.  The
  built-in thresholds (:data:`AUTO_CROSSOVER`,
  :data:`XOR_MT_MIN_CELLS`) were measured with
  ``benchmarks/bench_kernels_similarity.py`` / ``repro calibrate``;
  when a calibration artifact is active (see
  :mod:`repro.tuning.calibration`) the dispatch uses the per-host
  measured values instead.

Backend selection: an explicit ``backend=`` argument wins, then the
``REPRO_KERNEL`` environment variable, then ``"auto"``.  Every consumer
(ops layer, :class:`~repro.hdc.memory.ItemMemory`, the classifier and
regressor, the analysis figures, the serving engine) threads the
argument through, so any path is forceable for tests and benchmarks.
The dispatch thresholds resolve through the one precedence rule of
:func:`repro.tuning.calibration.resolve_knob`: explicit argument >
``REPRO_KERNEL_CROSSOVER`` / ``REPRO_KERNEL_MT_CELLS`` /
``REPRO_KERNEL_THREADS`` environment variables > calibration artifact >
built-in constant.

:func:`topk_hamming` fuses retrieval with the distance computation: it
scans the table in budget-bounded blocks, keeping only the running best
``k`` per query, so the full ``(n, m)`` matrix is never materialised
when ``k ≪ m``.  Ties break toward the lower table index — deterministic
and identical to a stable full-matrix ``argsort``.

All of this is property-tested for bitwise agreement across backends,
odd dimensions (tail-mask edge) and budget settings in
``tests/hdc/test_kernels.py``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..tuning.calibration import KNOB_SCHEMA, resolve_knob
from . import packed as _packed
from .packed import (
    DEFAULT_CELL_BUDGET,
    PackedHV,
    _chunked_xor_counts,
    cell_budget,
    coerce_packed,
    packed_width,
    popcount,
)

__all__ = [
    "BACKENDS",
    "AUTO_CROSSOVER",
    "XOR_MT_MIN_CELLS",
    "DEFAULT_CELL_BUDGET",
    "TopK",
    "cell_budget",
    "kernel_threads",
    "resolve_backend",
    "use_gemm",
    "use_xor_mt",
    "pairwise_hamming",
    "pairwise_hamming_counts",
    "topk_hamming",
]

#: The selectable backends (``"auto"`` dispatches among the other three).
BACKENDS = ("auto", "gemm", "xor", "xor-mt")

#: Environment variable selecting the default backend.
_ENV_BACKEND = "REPRO_KERNEL"

#: Accepted spellings that normalise to a canonical backend name.
_BACKEND_ALIASES = {"xor-popcount": "xor", "xor_mt": "xor-mt"}

#: ``auto`` uses GEMM when ``n·m / (n + m)`` is at least this.  Measured
#: crossover (see module docstring): below it the unpack toll dominates
#: and the XOR paths win; the value is dimension-independent because the
#: ``d`` factors cancel in the cost model.  Calibrated with
#: ``benchmarks/bench_kernels_similarity.py`` (break-even sits near
#: ``n = m = 32``; harmonic size 16).  A calibration artifact
#: (``kernels.gemm_crossover``) replaces it with the per-host value.
AUTO_CROSSOVER = KNOB_SCHEMA["kernels"]["gemm_crossover"].builtin

#: Below the GEMM crossover, ``auto`` takes the ``xor-mt`` path once the
#: XOR cube holds at least this many byte cells (``n·m·width``).  Under
#: it, the widening + scheduling overhead of the blocked path exceeds
#: the temporary tax of the reference scan.  Built-in default measured
#: by ``repro calibrate``; the artifact knob is
#: ``kernels.xor_mt_min_cells``.
XOR_MT_MIN_CELLS = KNOB_SCHEMA["kernels"]["xor_mt_min_cells"].builtin

#: Cache-sized cap, in ``uint64`` cells, on each thread's preallocated
#: XOR scratch block (512 KiB of ``uint64`` + 64 KiB of counts) — small
#: enough to stay cache-resident, large enough to amortise dispatch.
_MT_BLOCK_CELLS = 1 << 16

#: Largest ``d`` for which float32 dot products of {0,1} vectors are
#: exact (every partial sum is an integer ≤ d < 2^24).
_EXACT_FLOAT32_MAX_DIM = 1 << 24


class TopK(NamedTuple):
    """Result of :func:`topk_hamming`: ascending by ``(distance, index)``."""

    #: Table-row indices of the ``k`` nearest entries, per query.
    indices: np.ndarray
    #: The matching normalized Hamming distances.
    distances: np.ndarray


def resolve_backend(backend: str | None = None) -> str:
    """Normalise a backend request to a canonical :data:`BACKENDS` name.

    ``None`` falls back to the ``REPRO_KERNEL`` environment variable and
    then to ``"auto"``.  The aliases ``"xor-popcount"`` (for ``"xor"``)
    and ``"xor_mt"`` (for ``"xor-mt"``) are accepted.  Unknown names
    raise :class:`~repro.exceptions.InvalidParameterError`.

    >>> resolve_backend("auto")
    'auto'
    >>> resolve_backend("xor-popcount")
    'xor'
    >>> resolve_backend("xor_mt")
    'xor-mt'
    """
    if backend is None:
        backend = os.environ.get(_ENV_BACKEND) or "auto"
    name = _BACKEND_ALIASES.get(backend, backend)
    if name not in BACKENDS:
        raise InvalidParameterError(
            f"kernel backend must be one of {BACKENDS} (or 'xor-popcount'), "
            f"got {backend!r}"
        )
    return name


def kernel_threads(threads: int | None = None) -> int:
    """The worker count for the ``xor-mt`` backend.

    Resolution: the explicit ``threads`` argument, then the
    ``REPRO_KERNEL_THREADS`` environment variable, then the calibration
    knob ``kernels.xor_mt_threads``, then the host CPU count.  The
    result only schedules work — ``xor-mt`` output is bit-identical for
    any thread count.

    >>> kernel_threads(3)
    3
    >>> kernel_threads() >= 1
    True
    """
    return max(1, int(resolve_knob("kernels", "xor_mt_threads", threads)))


def use_gemm(n: int, m: int, dim: int) -> bool:
    """The ``auto`` GEMM decision for an ``(n, d) × (m, d)`` product.

    ``dim`` is part of the signature because the dispatch is defined over
    the full problem size ``n·m·d``, but the measured crossover surface
    is flat in ``d`` (the cost model's ``d`` factors cancel — see the
    module docstring), so only the harmonic size ``n·m / (n+m)`` decides.
    The threshold is :data:`AUTO_CROSSOVER` unless overridden by
    ``REPRO_KERNEL_CROSSOVER`` or an active calibration artifact.

    >>> use_gemm(1, 1000, 10_000)   # single query: unpack toll dominates
    False
    >>> use_gemm(100, 100, 10_000)  # both sides big: BLAS wins
    True
    """
    del dim
    if n <= 0 or m <= 0:
        return False
    return n * m >= resolve_knob("kernels", "gemm_crossover") * (n + m)


def use_xor_mt(n: int, m: int, dim: int) -> bool:
    """The ``auto`` decision between ``xor-mt`` and plain ``xor``.

    Consulted only when :func:`use_gemm` said no.  The blocked path wins
    once the XOR cube (``n · m · width`` byte cells) is large enough to
    amortise its uint64-widening and scheduling overhead; tiny problems
    stay on the reference scan.  The threshold is
    :data:`XOR_MT_MIN_CELLS` unless overridden by
    ``REPRO_KERNEL_MT_CELLS`` or an active calibration artifact.

    >>> use_xor_mt(1, 4, 10_000)     # a few cells: scan wins
    False
    >>> use_xor_mt(4, 2000, 10_000)  # GEMM-losing but big: blocked path
    True
    """
    if n <= 0 or m <= 0:
        return False
    return n * m * packed_width(dim) >= resolve_knob("kernels", "xor_mt_min_cells")


def _as_rows(hv: Union[PackedHV, np.ndarray], context: str) -> PackedHV:
    packed = coerce_packed(hv)
    if packed.ndim != 2:
        raise InvalidParameterError(
            f"{context} expects a (n, d) batch, got shape {packed.shape}"
        )
    return packed


def _unpack_block(data: np.ndarray, dim: int, dtype: type) -> np.ndarray:
    return np.unpackbits(data, axis=-1, count=dim).astype(dtype)


def _gemm_counts(
    data_a: np.ndarray, data_b: np.ndarray, dim: int, normalize: bool = False
) -> np.ndarray:
    """Hamming counts via ``|a| + |b| − 2·a·b`` (one BLAS GEMM).

    The unpacked ``float32``/``float64`` operands are produced in row
    blocks of at most :func:`cell_budget` cells each, so peak transient
    memory is bounded no matter how large the batches are.  Exactness:
    with 0/1 operands every partial sum of a dot product is an integer
    bounded by ``dim``, exactly representable in ``float32`` for
    ``dim ≤ 2²⁴`` (``float64`` is used beyond), so truncating the
    product back to ``int64`` loses nothing and the counts equal the
    XOR-popcount counts bit for bit.  ``normalize=True`` divides each
    block as it is written (one full ``(n, m)`` float matrix, never an
    extra counts matrix).
    """
    n = data_a.shape[0]
    m = data_b.shape[0]
    dtype = np.float32 if dim <= _EXACT_FLOAT32_MAX_DIM else np.float64
    pop_a = popcount(data_a, axis=-1)
    pop_b = pop_a if data_b is data_a else popcount(data_b, axis=-1)
    out = np.empty((n, m), dtype=np.float64 if normalize else np.int64)
    budget = cell_budget()
    block = max(1, budget // max(1, dim))

    def fill(a_lo: int, a_hi: int, fa: np.ndarray, b_lo: int, b_hi: int, fb: np.ndarray) -> None:
        prod = fa @ fb.T
        counts = (
            pop_a[a_lo:a_hi, None] + pop_b[None, b_lo:b_hi] - 2 * prod.astype(np.int64)
        )
        out[a_lo:a_hi, b_lo:b_hi] = counts / dim if normalize else counts

    if data_b is data_a and n <= block:
        fa = _unpack_block(data_a, dim, dtype)
        fill(0, n, fa, 0, m, fa)
    elif m <= block:
        fb = _unpack_block(data_b, dim, dtype)
        for a_lo in range(0, n, block):
            a_hi = min(n, a_lo + block)
            fill(a_lo, a_hi, _unpack_block(data_a[a_lo:a_hi], dim, dtype), 0, m, fb)
    elif n <= block:
        fa = _unpack_block(data_a, dim, dtype)
        for b_lo in range(0, m, block):
            b_hi = min(m, b_lo + block)
            fill(0, n, fa, b_lo, b_hi, _unpack_block(data_b[b_lo:b_hi], dim, dtype))
    else:
        for a_lo in range(0, n, block):
            a_hi = min(n, a_lo + block)
            fa = _unpack_block(data_a[a_lo:a_hi], dim, dtype)
            for b_lo in range(0, m, block):
                b_hi = min(m, b_lo + block)
                fill(a_lo, a_hi, fa, b_lo, b_hi, _unpack_block(data_b[b_lo:b_hi], dim, dtype))
    return out


def _widen_u64(data: np.ndarray) -> np.ndarray:
    """View packed ``uint8`` rows as ``uint64`` words, zero-padding the tail.

    The pad bytes are zero, so XOR + popcount over the widened words is
    exactly the byte-wise result — this is what lets ``xor-mt`` process
    8 bytes per word without any masking.
    """
    rows, width = data.shape
    w64 = (width + 7) // 8
    if width == w64 * 8:
        return np.ascontiguousarray(data).view(np.uint64)
    wide = np.zeros((rows, w64 * 8), dtype=np.uint8)
    wide[:, :width] = data
    return wide.view(np.uint64)


def _popcount_block(buf: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Per-pair popcounts of a ``uint64`` XOR block, into scratch ``cnt``.

    Sums the trailing word axis into ``int64``.  Honours the packed
    layer's ``bitwise_count`` availability flag so the lookup-table
    fallback stays exact (the ``uint64`` words are just reinterpreted as
    bytes there).
    """
    if _packed._HAVE_BITWISE_COUNT:
        np.bitwise_count(buf, out=cnt)
        return cnt.sum(axis=-1, dtype=np.int64)
    table = _packed._POPCOUNT_TABLE
    return table[buf.view(np.uint8)].sum(axis=-1, dtype=np.int64)


def _xor_mt_counts(
    data_a: np.ndarray,
    data_b: np.ndarray,
    dim: int,
    normalize: bool = False,
    threads: int | None = None,
) -> np.ndarray:
    """Hamming counts via the threaded-blocked uint64 XOR+popcount path.

    The packed rows are widened to ``uint64`` (exact — pad bytes are
    zero), the larger operand axis is split into one contiguous span per
    thread, and each thread streams cache-sized blocks of its span
    through preallocated XOR/count scratch (in-place ``bitwise_xor`` +
    ``bitwise_count``), so the reference path's per-chunk temporaries
    never materialise.  Threads write disjoint output spans: the result
    is bit-identical to the reference scan for any thread count, block
    size or budget.
    """
    n = data_a.shape[0]
    m = data_b.shape[0]
    out = np.empty((n, m), dtype=np.float64 if normalize else np.int64)
    if n == 0 or m == 0:
        return out
    # Block and thread over the larger side so spans are worth a thread.
    swap = n > m
    lhs, rhs = (data_b, data_a) if swap else (data_a, data_b)
    wa = _widen_u64(lhs)
    wb = wa if rhs is lhs else _widen_u64(rhs)
    rows_a, w64 = wa.shape
    rows_b = wb.shape[0]
    nthreads = min(kernel_threads(threads), rows_b)
    # Per-thread scratch is a (rows_a, block, w64) cube, capped by the
    # cache-sized block constant and the shared allocation budget
    # (uint64 cells are 8 byte cells of budget).
    limit = min(_MT_BLOCK_CELLS, max(1, cell_budget() // (8 * max(1, nthreads))))
    block = max(1, min(rows_b, limit // max(1, rows_a * w64)))

    def run_span(lo_span: int, hi_span: int) -> None:
        buf = np.empty((rows_a, block, w64), dtype=np.uint64)
        cnt = np.empty((rows_a, block, w64), dtype=np.uint8)
        for lo in range(lo_span, hi_span, block):
            hi = min(hi_span, lo + block)
            blk = hi - lo
            np.bitwise_xor(wa[:, None, :], wb[None, lo:hi, :], out=buf[:, :blk])
            counts = _popcount_block(buf[:, :blk], cnt[:, :blk])
            target = counts / dim if normalize else counts
            if swap:
                out[lo:hi, :] = target.T
            else:
                out[:, lo:hi] = target

    if nthreads <= 1:
        run_span(0, rows_b)
        return out
    bounds = [rows_b * i // nthreads for i in range(nthreads + 1)]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [
            pool.submit(run_span, bounds[i], bounds[i + 1])
            for i in range(nthreads)
            if bounds[i] < bounds[i + 1]
        ]
        for future in futures:
            future.result()
    return out


def _counts(
    pa: PackedHV, pb: PackedHV, backend: str, normalize: bool = False
) -> np.ndarray:
    """Dispatch counts (or, ``normalize``-d, distances) through a backend.

    The ``"xor"`` reference loop is owned by the packed layer
    (:func:`repro.hdc.packed._chunked_xor_counts` — the same code behind
    :func:`~repro.hdc.packed.packed_pairwise_hamming`).  Every backend
    fills one output matrix chunk-/block-wise; normalization happens per
    chunk so the distance form never materialises a counts matrix too.
    """
    if backend == "auto":
        n, m = pa.data.shape[0], pb.data.shape[0]
        if use_gemm(n, m, pa.dim):
            backend = "gemm"
        elif use_xor_mt(n, m, pa.dim):
            backend = "xor-mt"
        else:
            backend = "xor"
    if backend == "gemm":
        return _gemm_counts(pa.data, pb.data, pa.dim, normalize=normalize)
    if backend == "xor-mt":
        return _xor_mt_counts(pa.data, pb.data, pa.dim, normalize=normalize)
    return _chunked_xor_counts(pa.data, pb.data, dim=pa.dim if normalize else None)


def _as_pair(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None],
) -> tuple[PackedHV, PackedHV]:
    """Coerce the all-pairs operands, defaulting ``others`` to ``vectors``."""
    pa = _as_rows(vectors, "pairwise_hamming")
    if others is None:
        return pa, pa
    pb = _as_rows(others, "pairwise_hamming")
    if pa.dim != pb.dim:
        raise DimensionMismatchError(pa.dim, pb.dim, "pairwise_hamming")
    return pa, pb


def pairwise_hamming_counts(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None] = None,
    backend: str | None = None,
) -> np.ndarray:
    """All-pairs **raw** Hamming counts (``int64``), backend-dispatched.

    The integer form of :func:`pairwise_hamming`; exposed for callers
    that merge or rank counts themselves (top-k sharding does).

    >>> import numpy as np
    >>> a = np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    >>> pairwise_hamming_counts(a).tolist()
    [[0, 1], [1, 0]]
    """
    pa, pb = _as_pair(vectors, others)
    return _counts(pa, pb, resolve_backend(backend))


def pairwise_hamming(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None] = None,
    backend: str | None = None,
) -> np.ndarray:
    """All-pairs normalized Hamming distance, backend-dispatched.

    Compares an ``(n, d)`` batch against an ``(m, d)`` batch (default:
    itself) and returns the ``(n, m)`` float matrix.  Accepts packed or
    unpacked rows.  ``backend`` is ``"auto"`` (default), ``"gemm"`` or
    ``"xor"``; all three return bit-identical matrices — the knob trades
    time for nothing else.

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> batch = rng.integers(0, 2, (40, 100), dtype=np.uint8)
    >>> bool(np.array_equal(pairwise_hamming(batch, backend="gemm"),
    ...                     pairwise_hamming(batch, backend="xor")))
    True
    """
    pa, pb = _as_pair(vectors, others)
    return _counts(pa, pb, resolve_backend(backend), normalize=True)


def topk_hamming(
    queries: Union[PackedHV, np.ndarray],
    table: Union[PackedHV, np.ndarray],
    k: int,
    backend: str | None = None,
) -> TopK:
    """The ``k`` nearest table rows per query, without the full matrix.

    The table is scanned in blocks sized by the allocation budget; each
    block's distances (computed by the selected backend) are merged into
    a running best-``k`` per query, so at most
    ``n × (block + k)`` candidate cells ever exist — for ``k ≪ m`` the
    full ``(n, m)`` matrix is never materialised.

    Results are sorted ascending by ``(distance, table index)``: ties
    break toward the **lower index**, deterministically, matching a
    stable full-matrix argsort and independent of the backend, the
    budget, and any sharding of the table (property-tested).

    ``queries`` may be a single hypervector ``(d,)`` (returns ``(k,)``
    arrays) or a batch ``(n, d)`` (returns ``(n, k)`` arrays).

    >>> import numpy as np
    >>> table = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
    >>> hit = topk_hamming(np.zeros(4, dtype=np.uint8), table, k=2)
    >>> hit.indices.tolist(), hit.distances.tolist()
    ([0, 2], [0.0, 0.25])
    """
    pq = coerce_packed(queries)
    single = pq.ndim == 1
    if single:
        pq = PackedHV(pq.data[None, :], pq.dim)
    if pq.ndim != 2:
        raise InvalidParameterError(
            f"topk_hamming expects a single hypervector or an (n, d) batch "
            f"of queries, got shape {pq.shape}"
        )
    pt = _as_rows(table, "topk_hamming")
    if pq.dim != pt.dim:
        raise DimensionMismatchError(pq.dim, pt.dim, "topk_hamming")
    m = pt.data.shape[0]
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= m:
        raise InvalidParameterError(
            f"k must be an integer in [1, {m}] (the table size), got {k!r}"
        )
    n = pq.data.shape[0]
    dim = pq.dim
    if (dim + 1) * m >= 2**63:  # pragma: no cover - absurd sizes
        raise InvalidParameterError(
            f"top-k merge keys would overflow int64 for dim={dim}, m={m}"
        )
    backend = resolve_backend(backend)
    block = int(min(m, max(k, cell_budget() // max(1, n))))
    best: np.ndarray | None = None  # (n, ≤k) combined keys, each row sorted
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        counts = _counts(pq, pt[lo:hi], backend)
        # Combined sort key: counts·m + index is ascending-lexicographic
        # in (count, index), so one integer sort gives the deterministic
        # lower-index tie-break.
        keys = counts * np.int64(m) + np.arange(lo, hi, dtype=np.int64)[None, :]
        cand = keys if best is None else np.concatenate([best, keys], axis=1)
        keep = min(k, cand.shape[1])
        if cand.shape[1] > keep:
            part = np.argpartition(cand, keep - 1, axis=1)[:, :keep]
            cand = np.take_along_axis(cand, part, axis=1)
        best = np.sort(cand, axis=1)
    assert best is not None  # m >= 1 guarantees one block ran
    indices = best % m
    distances = (best // m) / dim
    if single:
        return TopK(indices[0], distances[0])
    return TopK(indices, distances)
