"""Span tracing from outside the library.

The benchmark records a span around each call into a layer's public
functions (the modules under ``src/repro/``) by wrapping those functions
in the process under test — the library itself is not edited.  A span
is ``[id, parent, name, thread, start, end, rows, tag]``: ``parent`` is
the innermost open span of the same thread (``None`` for roots and for
asyncio spans, which interleave on one thread), ``rows`` counts the work
the call did and ``tag`` carries what the call chose or returned (the
kernel backend, whether fused ingest took the chunk, an error).

Spans stay in memory and are written out once, when the traced process
ends; :func:`aggregate` and :func:`layer_metrics` turn the dumps into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter

ID, PARENT, NAME, THREAD, START, END, ROWS, TAG = range(8)


class SpanRecorder:
    """In-memory span store with a per-thread stack for parent links."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rows: int = 0, stacked: bool = True) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stacked and stack else None
        span = [next(self._ids), parent, name, threading.get_ident(),
                self._clock(), None, rows, None]
        if stacked:
            stack.append(span)
        return span

    def close(self, span: list, stacked: bool = True) -> None:
        span[END] = self._clock()
        if stacked:
            stack = self._stack()
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span[NAME]!r} closed out of order")
            stack.pop()
        self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


# -- wrappers --------------------------------------------------------------------

def wrap_sync(recorder, name, fn, rows=None, tag=None, tag_result=None):
    """Span around a plain call; ``rows``/``tag`` read the arguments,
    ``tag_result`` reads the return value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, rows(*args, **kwargs) if rows else 0)
        if tag is not None:
            span[TAG] = tag(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[TAG] = "error"
            raise
        finally:
            recorder.close(span)
        if tag_result is not None:
            span[TAG] = tag_result(result)
        return result

    return wrapper


def wrap_async(recorder, name, fn):
    """Span around a coroutine; unstacked, because coroutines interleave."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = recorder.open(name, 1, stacked=False)
        try:
            return await fn(*args, **kwargs)
        except BaseException as exc:
            span[TAG] = type(exc).__name__
            raise
        finally:
            recorder.close(span, stacked=False)

    return wrapper


def wrap_iter(recorder, name, fn):
    """One span per ``next()`` of the iterator ``fn(self)`` returns."""

    @functools.wraps(fn)
    def wrapper(self):
        inner = fn(self)
        while True:
            span = recorder.open(name)
            try:
                chunk = next(inner)
            except StopIteration:
                recorder.close(span)
                return
            except BaseException:
                span[TAG] = "error"
                recorder.close(span)
                raise
            span[ROWS] = int(chunk.rows)
            recorder.close(span)
            yield chunk

    return wrapper


# -- what gets wrapped -----------------------------------------------------------

def _leading_rows(value) -> int:
    from repro.hdc.packed import PackedHV

    shape = value.data.shape if isinstance(value, PackedHV) else getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return int(shape[0]) if len(shape) > 1 else 1


def _rows_dim(value) -> tuple[int, int]:
    from repro.hdc.packed import PackedHV

    if isinstance(value, PackedHV):
        shape, dim = value.data.shape, value.dim
    else:
        shape = value.shape
        dim = shape[-1]
    return (int(shape[0]) if len(shape) > 1 else 1), int(dim)


def kernel_backend(vectors, others=None, backend=None) -> str:
    """The backend a ``pairwise_hamming*`` call takes, from its shapes,
    through the public dispatch predicates."""
    from repro.hdc import kernels

    n, dim = _rows_dim(vectors)
    m = n if others is None else _rows_dim(others)[0]
    name = kernels.resolve_backend(backend)
    if name == "auto":
        if kernels.use_gemm(n, m, dim):
            return "gemm"
        return "xor-mt" if kernels.use_xor_mt(n, m, dim) else "xor"
    return name


def _targets():
    """``(span name, owner, attribute, kind, rows, tag, tag_result)`` for
    every wrapped entry point.  ``owner`` is a class (patched in place)
    or a module (every ``repro.*`` binding of the function is patched)."""
    import numpy as np

    from repro.basis import base
    from repro.hdc import ingest, kernels
    from repro.learning import classifier, regression
    from repro.runtime import batch
    from repro.serve import batching, engine, persist, registry
    from repro.streaming import files, train

    def one(*args, **kwargs):
        return 1

    def second_rows(_self, value, *args, **kwargs):
        return _leading_rows(value)

    return [
        ("serve.batching.submit", batching.MicroBatcher, "submit", "async",
         None, None, None),
        ("serve.engine.predict_coalesced", engine.InferenceEngine,
         "predict_coalesced", "sync", second_rows, None, None),
        ("runtime.batch.encode", batch.BatchEncoder, "encode", "sync",
         second_rows, None, None),
        ("runtime.batch.encode", batch.BatchEncoder, "encode_one", "sync",
         one, None, None),
        ("basis.indices", base.Embedding, "indices", "sync",
         lambda _self, values, *a, **k: int(np.size(values)), None, None),
        ("learning.classifier.predict", classifier.CentroidClassifier, "predict",
         "sync", second_rows, None, None),
        ("learning.regression.predict", regression.HDRegressor, "predict",
         "sync", second_rows, None, None),
        ("hdc.kernels", kernels, "pairwise_hamming", "sync",
         lambda v, *a, **k: _rows_dim(v)[0], kernel_backend, None),
        ("hdc.kernels", kernels, "pairwise_hamming_counts", "sync",
         lambda v, *a, **k: _rows_dim(v)[0], kernel_backend, None),
        ("hdc.ingest.ingest_chunk", ingest, "ingest_chunk", "sync",
         lambda _model, chunk, *a, **k: int(chunk.rows), None,
         lambda taken: "fused" if taken else "declined"),
        ("streaming.files.csv", files.CsvChunkSource, "__iter__", "iter",
         None, None, None),
        ("streaming.files.npy", files.NpyMmapChunkSource, "__iter__", "iter",
         None, None, None),
        ("streaming.train.score", train, "stream_score_classifier", "sync",
         None, None, None),
        ("streaming.train.score", train, "stream_score_regressor", "sync",
         None, None, None),
        ("serve.persist.save", persist, "save_model", "sync", one, None, None),
        ("serve.persist.load", persist, "load_model", "sync", one, None, None),
        ("serve.registry.swap", registry.ModelRegistry, "swap", "sync",
         one, None, None),
    ]


def install(recorder: SpanRecorder) -> list[tuple]:
    """Wrap every target; returns ``(owner, attr, original)`` for :func:`uninstall`."""
    import repro.experiments.__main__  # noqa: F401 - bind every lazy import site

    patched = []
    for name, owner, attr, kind, rows, tag, tag_result in _targets():
        original = getattr(owner, attr)
        if kind == "async":
            wrapper = wrap_async(recorder, name, original)
        elif kind == "iter":
            wrapper = wrap_iter(recorder, name, original)
        else:
            wrapper = wrap_sync(recorder, name, original, rows, tag, tag_result)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------------

def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    }


def aggregate(groups: list[list[list]]) -> dict[str, dict]:
    """Per span name: calls, rows, total and self seconds, tag counts.

    ``groups`` holds one span list per traced process (ids are only
    unique within a process).
    """
    out: dict[str, dict] = {}
    for spans in groups:
        own = self_times(spans)
        for span in spans:
            entry = out.setdefault(span[NAME], {
                "calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0,
                "tags": Counter(), "tag_rows": Counter(), "tag_s": Counter(),
            })
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["rows"] += span[ROWS]
            entry["total_s"] += duration
            entry["self_s"] += own[span[ID]]
            if span[TAG] is not None:
                entry["tags"][span[TAG]] += 1
                entry["tag_rows"][span[TAG]] += span[ROWS]
                entry["tag_s"][span[TAG]] += duration
    return out


def gaps(spans: list[list], name: str) -> list[float]:
    """Idle time between consecutive ``name`` spans of one process."""
    ordered = sorted((s[START], s[END]) for s in spans if s[NAME] == name)
    return [b[0] - a[1] for a, b in zip(ordered, ordered[1:])]


#: Span names each workload must produce.  A wrapper that never fires on
#: the workload named for it means a layer moved: the run fails instead
#: of reporting zeros.
EXPECTED = {
    "serve_bulk": {
        "serve.batching.submit", "serve.engine.predict_coalesced",
        "runtime.batch.encode", "basis.indices", "learning.classifier.predict",
        "learning.regression.predict", "hdc.kernels", "serve.persist.load",
        "serve.registry.swap",
    },
    "train_file": {
        "hdc.ingest.ingest_chunk", "streaming.files.csv", "streaming.files.npy",
        "basis.indices", "serve.persist.save", "streaming.train.score",
        "hdc.kernels",
    },
}


def missing_layers(workload: str, agg: dict) -> list[str]:
    return sorted(name for name in EXPECTED[workload] if agg.get(name, {}).get("calls", 0) == 0)


def _per(entry: dict | None, scale: float) -> float:
    if not entry or entry["rows"] == 0:
        return 0.0
    return entry["total_s"] * scale / entry["rows"]


def _mean_ms(entry: dict | None) -> float:
    if not entry or entry["calls"] == 0:
        return 0.0
    return entry["total_s"] * 1e3 / entry["calls"]


def layer_metrics(groups: list[list[list]]) -> dict[str, float]:
    """The span-derived per-layer metrics (see README.md for the map)."""
    agg = aggregate(groups)
    get = agg.get
    kernels = get("hdc.kernels") or {"total_s": 0.0, "tags": Counter()}
    ingest = get("hdc.ingest.ingest_chunk")
    submit = get("serve.batching.submit")
    coalesced = [s for spans in groups for s in spans
                 if s[NAME] == "serve.engine.predict_coalesced"]
    # Every submitted row waits for its whole batch's compute; what is
    # left of the submit span is queueing, window and executor hand-off.
    batch_compute = sum((s[END] - s[START]) * s[ROWS] for s in coalesced)
    queue_wait_ms = 0.0
    if submit and submit["calls"]:
        queue_wait_ms = (submit["total_s"] - batch_compute) * 1e3 / submit["calls"]
    fused_rows = ingest["tag_rows"]["fused"] if ingest else 0
    fused_s = ingest["tag_s"]["fused"] if ingest else 0.0
    wait = [g for spans in groups for g in gaps(spans, "hdc.ingest.ingest_chunk")]
    csv = get("streaming.files.csv")
    npy = get("streaming.files.npy")
    return {
        "serve.batching.queue_wait_ms": queue_wait_ms,
        "serve.engine.predict_us_per_row": _per(get("serve.engine.predict_coalesced"), 1e6),
        "runtime.batch.encode_us_per_row": _per(get("runtime.batch.encode"), 1e6),
        "basis.indices_us_per_row": _per(get("basis.indices"), 1e6),
        "learning.classifier.predict_us_per_row": _per(get("learning.classifier.predict"), 1e6),
        "learning.regression.predict_us_per_row": _per(get("learning.regression.predict"), 1e6),
        "hdc.kernels.busy_s": kernels["total_s"],
        "hdc.kernels.calls.xor": kernels["tags"]["xor"],
        "hdc.kernels.calls.xor-mt": kernels["tags"]["xor-mt"],
        "hdc.kernels.calls.gemm": kernels["tags"]["gemm"],
        "hdc.ingest.rows_per_s": fused_rows / fused_s if fused_s else 0.0,
        "hdc.ingest.fused_frac": (
            ingest["tags"]["fused"] / ingest["calls"] if ingest and ingest["calls"] else 0.0
        ),
        "streaming.files.csv_rows_per_s": csv["rows"] / csv["total_s"] if csv else 0.0,
        "streaming.files.npy_rows_per_s": npy["rows"] / npy["total_s"] if npy else 0.0,
        "streaming.reduce.chunk_wait_ms": 1e3 * sum(wait) / len(wait) if wait else 0.0,
        "serve.persist.save_ms": _mean_ms(get("serve.persist.save")),
        "serve.persist.load_ms": _mean_ms(get("serve.persist.load")),
        "serve.registry.swap_ms": _mean_ms(get("serve.registry.swap")),
        "streaming.train.score_s": (get("streaming.train.score") or {}).get("total_s", 0.0),
    }


def span_table(groups: list[list[list]]) -> dict[str, dict]:
    """JSON-ready per-span totals for the run report."""
    return {
        name: {
            "calls": e["calls"], "rows": e["rows"],
            "total_s": round(e["total_s"], 6), "self_s": round(e["self_s"], 6),
            **({"tags": dict(e["tags"])} if e["tags"] else {}),
        }
        for name, e in sorted(aggregate(groups).items())
    }
