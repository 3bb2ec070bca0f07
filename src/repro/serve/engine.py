"""Online inference: load a model once, answer predict calls forever.

:class:`InferenceEngine` is the serving counterpart of the experiment
drivers: it wraps a :class:`~repro.serve.pipeline.TrainedPipeline`
(either freshly trained or reloaded via
:func:`~repro.serve.persist.load_model`), builds the fused-table
:class:`~repro.runtime.batch.BatchEncoder` once at start-up, and then
answers single-record and micro-batched predict calls.  With
``workers > 1`` the encode count phase and the distance scans shard over
a :class:`~repro.runtime.pool.WorkerPool` with deterministic merge, so
answers are bit-identical for any worker count.

Because request-encoding ties draw from a stream freshly seeded with
the pipeline's ``encode_seed`` on every call, the engine is stateless
across requests: the same record always yields the same hypervector and
therefore the same prediction — whether it arrives alone, inside a
batch, today or from a reloaded replica next year.

A keyless pipeline (one embedding, no keys) encodes a record as one of
the embedding's ``m`` basis rows, so its answer is a pure function of
the quantised level.  The engine answers those pipelines from a
per-level table (:class:`_LevelAnswers`) that it fills lazily, one
``model.predict`` call over the missing levels' basis rows, and drops
whenever the model's ``generation`` moves.
"""

from __future__ import annotations

import os
from typing import Any, Hashable, Union

import numpy as np

from ..exceptions import EmptyModelError, InvalidParameterError
from ..hdc.kernels import resolve_backend
from ..hdc.packed import PackedHV
from ..learning.classifier import CentroidClassifier
from ..runtime.batch import BatchEncoder
from ..runtime.parallel import predict_classifier_sharded, predict_regressor_sharded
from ..runtime.pool import WorkerPool, default_workers
from .pipeline import TrainedPipeline
from .procpool import default_proc_workers

__all__ = ["InferenceEngine"]


class _LevelAnswers:
    """Model answers by quantised level for one model generation.

    ``known`` is set only after ``answers`` is written, so a concurrent
    reader either sees a finished answer or fills the level itself
    (writing the same value).
    """

    def __init__(self, key: tuple[int, int], levels: int, numeric: bool) -> None:
        self.key = key
        self.answers = np.empty(levels, dtype=np.float64 if numeric else object)
        self.known = np.zeros(levels, dtype=bool)

    def fill(self, levels: np.ndarray, answers: Any) -> None:
        # Per element: a slice assignment would spread a tuple label.
        for level, answer in zip(levels.tolist(), answers):
            self.answers[level] = answer
        self.known[levels] = True


class InferenceEngine:
    """Encode-then-predict serving loop over a trained pipeline.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.serve.pipeline.TrainedPipeline` to serve.
    workers:
        Worker count for encode/predict sharding.  ``None`` (default)
        resolves through :func:`~repro.runtime.pool.default_workers` —
        the ``REPRO_WORKERS`` environment variable, then the active
        calibration artifact's ``runtime.workers`` knob, then ``1``
        (inline) — and any value produces bit-identical answers.
    backend:
        Similarity-kernel backend for the distance scans
        (:mod:`repro.hdc.kernels`): ``"auto"`` (default via the
        ``REPRO_KERNEL`` environment variable), ``"gemm"`` or ``"xor"``.
        Under ``"auto"`` every micro-batch picks the kernel for its own
        size — a single record scans with XOR + popcount, a large batch
        rides one BLAS product — and every choice is bit-identical.
    proc_workers:
        Accepted for the end-to-end benchmark (``perfbench/``), which
        passes ``1``; anything but ``None``, ``0`` or ``1`` raises
        :class:`~repro.exceptions.InvalidParameterError`.

    The engine is a context manager (closes its worker pool on exit) but
    can also be used without ``with`` for serial serving.

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import CircularBasis
    >>> from repro.learning import HDRegressor
    >>> from repro.serve import InferenceEngine, TrainedPipeline
    >>> emb = CircularBasis(24, 512, seed=0).circular_embedding(period=24.0)
    >>> hours = np.arange(24.0)
    >>> model = HDRegressor(emb, seed=1).fit(emb.encode_packed(hours), hours)
    >>> pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
    >>> engine = InferenceEngine(pipe)
    >>> float(engine.predict_one([13.0]))
    13.0
    """

    def __init__(
        self,
        pipeline: TrainedPipeline,
        workers: int | None = None,
        backend: str | None = None,
        proc_workers: int | None = None,
    ) -> None:
        default_proc_workers(proc_workers)  # kept: the perfbench/ benchmark passes it
        self.pipeline = pipeline
        # Resolve eagerly so a typo'd backend (or REPRO_KERNEL value)
        # fails at construction, not on the first mid-stream request.
        self.backend = resolve_backend(backend)
        self._pool = WorkerPool(workers=default_workers(workers))
        self._pool.__enter__()  # keep one executor alive across requests
        if pipeline.keys is not None:
            self._encoder: BatchEncoder | None = BatchEncoder(
                pipeline.keys, pipeline.embedding, tie_break=pipeline.tie_break
            )
        else:
            self._encoder = None
        self._levels: _LevelAnswers | None = None  # keyless answer table
        try:
            pipeline.model.prepare()
        except EmptyModelError:
            # An untrained pipeline (OnlineLearner bootstrap) has nothing
            # to materialise yet; the first post-training predict will.
            pass

    @classmethod
    def from_path(
        cls,
        path: str | os.PathLike,
        workers: int | None = None,
        backend: str | None = None,
        proc_workers: int | None = None,
    ) -> "InferenceEngine":
        """Load a saved pipeline (``save_model`` output) and wrap it.

        The one-time cost — reading the container, unpacking the basis
        table, building the fused encode table — is paid here; every
        subsequent :meth:`predict` call touches only packed kernels.
        """
        from .persist import load_model

        pipeline = load_model(path)
        if not isinstance(pipeline, TrainedPipeline):
            raise InvalidParameterError(
                f"{path} holds a {type(pipeline).__name__}, not a TrainedPipeline; "
                "wrap bare models in a pipeline to serve them"
            )
        # proc_workers is kept because the perfbench/ benchmark passes it.
        return cls(pipeline, workers=workers, backend=backend, proc_workers=proc_workers)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        self._pool.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (the registry's drain marker)."""
        return getattr(self, "_closed", False)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"classification"`` or ``"regression"``."""
        return self.pipeline.kind

    @property
    def num_features(self) -> int:
        """Features each request record must carry."""
        return self.pipeline.num_features

    # -- serving ---------------------------------------------------------------
    def _as_batch(self, features: Any) -> np.ndarray:
        arr = np.asarray(features, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.num_features:
            raise InvalidParameterError(
                f"expected records of {self.num_features} feature(s), "
                f"got shape {np.asarray(features).shape}"
            )
        return arr

    def encode(self, features: Any) -> PackedHV:
        """Encode raw feature records to packed hypervectors.

        ``features`` is one record ``(k,)`` or a micro-batch ``(n, k)``;
        the result is always a packed ``(n, d)`` batch.  Deterministic:
        encoding ties draw from a stream seeded with the pipeline's
        ``encode_seed`` afresh on every call.
        """
        batch = self._as_batch(features)
        if self._encoder is not None:
            pool = None if self._pool.serial else self._pool
            return self._encoder.encode(
                batch, seed=self.pipeline.encode_seed, packed=True, pool=pool
            )
        return self.pipeline.embedding.encode_packed(batch[:, 0])

    def predict(self, features: Any) -> Union[list[Hashable], np.ndarray]:
        """Predict labels (classification) or values (regression).

        Accepts a single record or a micro-batch; always returns the
        batch form (a list of labels, or a float array).  Bit-identical
        for any ``workers`` setting — sharded predictions merge in chunk
        order — and for any ``backend`` (under ``"auto"``, each
        micro-batch picks the similarity kernel for its own size).
        """
        if self._encoder is None:
            return self._keyless_answers(self._as_batch(features)[:, 0])
        encoded = self.encode(features)
        model = self.pipeline.model
        if self._pool.serial:
            return model.predict(encoded, backend=self.backend)
        if isinstance(model, CentroidClassifier):
            return predict_classifier_sharded(
                model, encoded, self._pool, backend=self.backend
            )
        return predict_regressor_sharded(
            model, encoded, self._pool, backend=self.backend
        )

    def predict_coalesced(self, records: Any) -> list:
        """Predict a coalesced micro-batch, bit-identical to ``predict_one``.

        The serving tier's keystone: concurrent in-flight requests are
        coalesced by the :class:`~repro.serve.batching.MicroBatcher`
        into **one** call here, so the distance scan runs as a single
        kernel invocation (one BLAS product under ``"auto"`` for large
        batches) instead of one scan per request — yet every row of the
        answer is exactly what a sequential ``predict_one`` would have
        returned for that record, *including tie-break RNG draws*:

        * position-free tie policies (``"zeros"``/``"ones"`` — the
          serving default) batch-encode directly, since no record's
          encoding can depend on its neighbours;
        * the ``"random"`` policy shares one RNG stream across a batch
          encode, so here each record is encoded through the same
          freshly-seeded single-record path ``predict_one`` uses, and
          only the distance scan is coalesced.
        * keyless pipelines answer from the per-level table, which
          ``predict`` and ``predict_one`` read too.

        Returns a plain list of per-record labels/values (scalars), in
        request order.
        """
        batch = self._as_batch(records)
        if batch.shape[0] == 0:
            return []
        if self._encoder is None:
            return list(self._keyless_answers(batch[:, 0]))
        if self.pipeline.tie_break in ("zeros", "ones"):
            pool = None if self._pool.serial else self._pool
            encoded = self._encoder.encode(
                batch, seed=self.pipeline.encode_seed, packed=True, pool=pool
            )
        else:
            rows = [
                self._encoder.encode_one(
                    row, seed=self.pipeline.encode_seed, packed=True
                )
                for row in batch
            ]
            encoded = PackedHV(
                np.concatenate([r.data for r in rows], axis=0), self.pipeline.dim
            )
        return list(self.pipeline.model.predict(encoded, backend=self.backend))

    def predict_one(self, record: Any) -> Any:
        """Predict for exactly one record; returns a scalar label/value.

        The single-record fast path.  A keyed pipeline encodes through
        :meth:`~repro.runtime.batch.BatchEncoder.encode_one` (no chunk
        partitioning, no pool dispatch) and predicts inline — under
        ``"auto"`` its one-row scan lands on the XOR kernel.  A keyless
        pipeline reads the per-level answer table; a level it has not
        answered yet is filled by a one-row scan of its basis row.  The
        answer is bit-identical to ``predict([record])[0]`` (asserted in
        ``tests/serve/test_engine.py``); the per-call latency drop is
        measured by ``benchmarks/bench_serve_latency.py``.
        """
        arr = np.asarray(record, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.num_features:
            raise InvalidParameterError(
                f"predict_one takes a single ({self.num_features},) record, "
                f"got shape {arr.shape}"
            )
        if self._encoder is None:
            return self._keyless_answers(arr[:1])[0]
        encoded = self._encoder.encode_one(
            arr, seed=self.pipeline.encode_seed, packed=True
        )
        return self.pipeline.model.predict(encoded, backend=self.backend)[0]

    def _keyless_answers(self, values: np.ndarray) -> Union[list[Hashable], np.ndarray]:
        """:meth:`predict`'s answer for keyless records, from the level table.

        Quantises ``values``, fills the levels this model generation has
        not answered yet with one ``model.predict`` over their basis rows
        (the exact hypervectors ``encode_packed`` would build), and
        gathers.  The table is keyed on the model's identity and
        ``generation``, so online learning or forgetting empties it, and
        the model's lazy materialisation (with its tie-break RNG draws)
        still happens on the first predict after an update.
        """
        model = self.pipeline.model
        embedding = self.pipeline.embedding
        idx = embedding.indices(values)
        key = (id(model), model.generation)
        table = self._levels
        if table is None or table.key != key:
            table = self._levels = _LevelAnswers(
                key, len(embedding), numeric=self.kind == "regression"
            )
        missing = idx[~table.known[idx]]
        # An empty batch still reaches the model: it raises on an
        # untrained model exactly as an encode-then-predict would.
        if missing.size or idx.size == 0:
            missing = np.unique(missing)
            rows = PackedHV(embedding.basis.packed.data[missing], embedding.dim)
            table.fill(missing, model.predict(rows, backend=self.backend))
        answers = table.answers[idx]
        return answers.tolist() if answers.dtype == object else answers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceEngine(kind={self.kind!r}, dim={self.pipeline.dim}, "
            f"features={self.num_features}, workers={self._pool.workers})"
        )
