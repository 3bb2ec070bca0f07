"""Bit-identity gates for the fused ingest kernel tier.

The acceptance property of :mod:`repro.hdc.ingest`: the ``fused``
backend trains the exact model the reference encode-then-``partial_fit``
path produces, byte for byte in the saved-model container and draw for
draw in the tie-break RNG, for any chunk size, fused block size, worker
count, packed or unpacked reference encode, and tie policy.  Plus the
dispatch contract: ``"auto"`` respects the calibrated row crossover,
unrecognised ``(model, encode)`` pairs fall back to the reference path
untouched, and an unknown backend name (``"numba"`` included) fails
loudly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.basis import make_basis
from repro.basis.base import Embedding
from repro.basis.quantize import CircularDiscretizer, LinearDiscretizer
from repro.exceptions import InvalidParameterError
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ingest import (
    INGEST_BACKENDS,
    ingest_block_rows,
    ingest_chunk,
    ingest_fused_min_rows,
    learn_fused,
    resolve_ingest_backend,
    shard_ingest,
    use_fused,
)
from repro.learning import CentroidClassifier, HDRegressor
from repro.learning.merge import shard_delta
from repro.runtime import BatchEncoder, WorkerPool
from repro.serve import save_model
from repro.streaming import (
    JigsawsStream,
    MarsExpressStream,
    array_chunks,
    stream_encode,
    stream_fit_classifier,
    stream_fit_regressor,
)
from repro.streaming.chunks import Chunk
from repro.streaming.train import RecordEncode, ValueEncode

TWO_PI = 2.0 * np.pi
DIM = 160  # not a multiple of 64: exercises the tie-coin tail mask

#: The non-reference backends under test everywhere.
BACKENDS = ["fused"]


def value_embedding(dim: int = DIM, levels: int = 10) -> Embedding:
    basis = make_basis("circular", levels, dim, r=0.05, seed=7)
    return Embedding(basis, CircularDiscretizer(levels, low=0.0, period=TWO_PI))


def saved_bytes(model, tmp_path, name: str) -> dict[str, bytes]:
    """Every array in the saved-model container, as raw bytes.

    The manifest (which embeds the tie RNG state) and every stored
    array — byte-level equality of everything the format persists,
    without the zip timestamp jitter of comparing whole files.
    """
    path = tmp_path / f"{name}.npz"
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].tobytes() for key in archive.files}


def assert_same_classifier(reference, candidate, tmp_path, tag: str) -> None:
    assert reference.classes == candidate.classes, tag
    for label in reference.classes:
        assert np.array_equal(
            reference.class_vector(label), candidate.class_vector(label)
        ), (tag, label)
    assert (
        reference._rng.bit_generator.state == candidate._rng.bit_generator.state
    ), (tag, "tie RNG state diverged")
    assert saved_bytes(reference, tmp_path, f"ref-{tag}") == saved_bytes(
        candidate, tmp_path, f"got-{tag}"
    ), (tag, "saved-model bytes diverged")


class TestBackendResolution:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_INGEST_KERNEL", raising=False)
        assert resolve_ingest_backend() == "auto"
        assert resolve_ingest_backend(None) == "auto"

    def test_env_var_is_the_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_KERNEL", "fused")
        assert resolve_ingest_backend() == "fused"
        # an explicit argument still wins
        assert resolve_ingest_backend("ref") == "ref"

    def test_every_listed_backend_is_canonical(self):
        assert INGEST_BACKENDS == ("auto", "ref", "fused")
        for name in INGEST_BACKENDS:
            assert resolve_ingest_backend(name) == name

    @pytest.mark.parametrize("name", ["turbo", "numba"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(InvalidParameterError):
            resolve_ingest_backend(name)


class TestKnobs:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_BLOCK_ROWS", "7")
        monkeypatch.setenv("REPRO_INGEST_FUSED_MIN_ROWS", "3")
        assert ingest_block_rows() == 7
        assert ingest_fused_min_rows() == 3
        assert use_fused(3) and not use_fused(2)

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_BLOCK_ROWS", "7")
        assert ingest_block_rows(129) == 129
        assert ingest_fused_min_rows(5) == 5

    def test_floors_at_one(self):
        assert ingest_block_rows(0) == 1
        assert ingest_fused_min_rows(-4) == 1


def _cell(tie_break: str = "random", chunk_size: int = 29):
    stream = JigsawsStream(
        "suturing", seed=21, chunk_size=chunk_size, samples_per_gesture=6
    )
    encoder = BatchEncoder(
        random_hypervectors(18, DIM, seed=3), value_embedding(), tie_break=tie_break
    )
    return stream, encoder


class TestAutoDispatch:
    def test_below_crossover_stays_ref(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_FUSED_MIN_ROWS", "1000000")
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert not ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="auto")
        assert clf.num_samples == 0

    def test_above_crossover_fuses(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_FUSED_MIN_ROWS", "1")
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="auto")
        assert clf.num_samples == chunk.rows

    def test_ref_backend_never_handles(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert not ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="ref")

    def test_unrecognised_encode_falls_back(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        plain = lambda c: stream_encode(encoder, c.features, start=c.start)  # noqa: E731
        assert not ingest_chunk(clf, chunk, plain, backend="fused")
        assert clf.num_samples == 0

    def test_empty_chunk_falls_back(self):
        _, encoder = _cell()
        chunk = Chunk(features=np.empty((0, 18)), targets=np.empty(0, dtype=object))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert not ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="fused")


class TestClassifierBitIdentity:
    """Fused streamed training == monolithic fit, bytes and RNG draws."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 13, 97, 1000])
    @pytest.mark.parametrize("tie_break", ["random", "zeros", "alternate"])
    def test_fused_equals_monolithic(self, backend, chunk_size, tie_break, tmp_path):
        stream, encoder = _cell(tie_break, chunk_size)
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=77, ingest=backend)
        x, y = stream.materialize()
        mono = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        mono.fit(stream_encode(encoder, x, seed=77), y.tolist())
        assert_same_classifier(
            mono, fused, tmp_path, f"{backend}-{chunk_size}-{tie_break}"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_rows", [1, 3, 50, 4096])
    def test_block_size_invariance(self, backend, block_rows, monkeypatch, tmp_path):
        """The fused threshold block is an implementation detail."""
        stream, encoder = _cell("random", 41)
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(ref, encoder, stream, seed=9, ingest="ref")
        monkeypatch.setenv("REPRO_INGEST_BLOCK_ROWS", str(block_rows))
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=9, ingest=backend)
        assert_same_classifier(ref, fused, tmp_path, f"block-{backend}-{block_rows}")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_pool_invariance(self, workers, tmp_path):
        stream, encoder = _cell("random", 37)
        serial = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(serial, encoder, stream, seed=4, ingest="ref")
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        with WorkerPool(workers=workers) as pool:
            stream_fit_classifier(
                fused, encoder, stream, seed=4, pool=pool, ingest="fused"
            )
        assert_same_classifier(serial, fused, tmp_path, f"workers-{workers}")

    def test_unpacked_reference_equals_fused(self, tmp_path):
        """The packed/unpacked reference representations and the fused
        path all land the same accumulator integers."""
        stream, encoder = _cell("random", 53)
        unpacked = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        for chunk in stream:
            encoded = stream_encode(
                encoder, chunk.features, start=chunk.start, seed=11, packed=False
            )
            unpacked.partial_fit([(encoded, chunk.targets.tolist())])
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=11, ingest="fused")
        assert_same_classifier(unpacked, fused, tmp_path, "unpacked")


class TestEngineSemantics:
    """learn_fused reproduces the serving engine's per-call RNG draws."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [37, 128])
    def test_learn_fused_equals_encode_partial_fit(
        self, backend, chunk_size, tmp_path
    ):
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3),
            value_embedding(),
            tie_break="random",
            chunk_size=chunk_size,
        )
        rng = np.random.default_rng(6)
        batches = [rng.uniform(0.0, TWO_PI, (90, 18)) for _ in range(2)]
        labels = [(np.arange(90) % 5).tolist() for _ in range(2)]

        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        # two successive calls: the *second* is only identical if the
        # first consumed the engine RNG stream exactly like the encode
        for x, y in zip(batches, labels):
            ref.partial_fit([(encoder.encode(x, seed=42, packed=True), y)])
            assert learn_fused(fused, encoder, x, y, seed=42, backend=backend)
        assert_same_classifier(ref, fused, tmp_path, f"engine-{backend}")

    def test_learn_fused_declines_small_batches(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_FUSED_MIN_ROWS", "1000000")
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3), value_embedding()
        )
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        x = np.zeros((4, 18))
        assert not learn_fused(clf, encoder, x, [0, 1, 0, 1], backend="auto")
        assert clf.num_samples == 0


class TestRegressorBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 50, 333])
    def test_fused_equals_monolithic(self, backend, chunk_size, tmp_path):
        stream = MarsExpressStream(num_samples=700, seed=8, chunk_size=chunk_size)
        embedding = value_embedding(levels=12)
        low, high = stream.label_range()
        label_embedding = Embedding(
            make_basis("level", 20, DIM, seed=9),
            LinearDiscretizer(low, high, 20, clip=True),
        )
        fused = HDRegressor(label_embedding, tie_break="random", seed=2)
        stream_fit_regressor(fused, embedding, stream, ingest=backend)
        x, y = stream.materialize()
        mono = HDRegressor(label_embedding, tie_break="random", seed=2)
        mono.fit(embedding.encode_packed(x[:, 0]), y)
        assert np.array_equal(fused.model, mono.model)
        assert fused.num_samples == mono.num_samples
        assert (
            fused._rng.bit_generator.state == mono._rng.bit_generator.state
        )
        assert saved_bytes(mono, tmp_path, "ref-reg") == saved_bytes(
            fused, tmp_path, "got-reg"
        )

    @pytest.mark.parametrize("block_rows", [1, 7, 4096])
    def test_block_size_invariance(self, block_rows, monkeypatch):
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 123)
        ref = HDRegressor(embedding, tie_break="zeros", seed=1)
        stream_fit_regressor(
            ref, embedding, array_chunks(y[:, None], y, chunk_size=40), ingest="ref"
        )
        monkeypatch.setenv("REPRO_INGEST_BLOCK_ROWS", str(block_rows))
        fused = HDRegressor(embedding, tie_break="zeros", seed=1)
        stream_fit_regressor(
            fused, embedding, array_chunks(y[:, None], y, chunk_size=40),
            ingest="fused",
        )
        assert np.array_equal(fused.model, ref.model)


class TestClusterDeltas:
    """shard_ingest ships the exact bytes shard_delta would have."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_classifier_shard_is_byte_identical(self, backend):
        stream, encoder = _cell("random", 64)
        chunk = next(iter(stream))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        encode = RecordEncode(encoder, 7)
        reference = shard_delta(
            proto, encode(chunk), chunk.targets.tolist()
        )
        got = shard_ingest(proto, chunk, encode, backend=backend)
        assert got is not None
        assert pickle.dumps(got) == pickle.dumps(reference)
        assert proto.num_samples == 0  # pure: the prototype is untouched

    def test_regressor_shard_is_byte_identical(self):
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 80)
        chunk = Chunk(features=y[:, None], targets=y)
        proto = HDRegressor(embedding, tie_break="zeros", seed=1)
        encode = ValueEncode(embedding, 0)
        reference = shard_delta(proto, encode(chunk), y)
        got = shard_ingest(proto, chunk, encode, backend="fused")
        assert got is not None
        assert pickle.dumps(got) == pickle.dumps(reference)

    def test_shard_ingest_declines_ref_backend(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert shard_ingest(proto, chunk, RecordEncode(encoder, 7), backend="ref") is None
