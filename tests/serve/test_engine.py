"""InferenceEngine: save → reload → serve must be bit-identical.

Covers the acceptance contract of the serving subsystem: a model
trained in one process, saved, and reloaded in a fresh engine answers
every request with exactly the bits the in-memory model produces — for
classification and regression pipelines, single records and
micro-batches, serial and sharded workers.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis, RandomBasis
from repro.datasets import make_jigsaws_like
from repro.exceptions import EmptyModelError, InvalidParameterError
from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import (
    train_classification_pipeline,
    train_pipeline,
    train_regression_pipeline,
)
from repro.learning import CentroidClassifier, HDRegressor
from repro.serve import (
    InferenceEngine,
    OnlineLearner,
    TrainedPipeline,
    load_model,
    save_model,
)
from repro.serve.procpool import default_proc_workers


@pytest.fixture(scope="module")
def classification_pipeline():
    cfg = ClassificationConfig(dim=256, seed=7)
    return train_classification_pipeline("suturing", "circular", config=cfg)


@pytest.fixture(scope="module")
def regression_pipeline():
    cfg = RegressionConfig(dim=256, seed=7)
    return train_regression_pipeline("circular", config=cfg)


@pytest.fixture(scope="module")
def gesture_records():
    split = make_jigsaws_like(task="suturing", seed=99)
    return split.test_features[:40]


class TestClassificationServing:
    def test_reloaded_engine_is_bit_identical(
        self, classification_pipeline, gesture_records, tmp_path
    ):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        with InferenceEngine(classification_pipeline) as live, \
                InferenceEngine.from_path(path) as reloaded:
            assert reloaded.predict(gesture_records) == live.predict(gesture_records)
            assert np.array_equal(
                reloaded.encode(gesture_records).data, live.encode(gesture_records).data
            )

    def test_single_record_matches_batch(self, classification_pipeline, gesture_records):
        with InferenceEngine(classification_pipeline) as engine:
            batch = engine.predict(gesture_records)
            singles = [engine.predict_one(row) for row in gesture_records]
        assert singles == batch

    def test_workers_bit_identical(self, classification_pipeline, gesture_records, tmp_path):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        with InferenceEngine.from_path(path, workers=1) as serial:
            expected = serial.predict(gesture_records)
        with InferenceEngine.from_path(path, workers=3) as sharded:
            assert sharded.predict(gesture_records) == expected

    def test_reported_accuracy_is_the_serving_accuracy(self, classification_pipeline):
        """metadata['test_accuracy'] must describe the serve path exactly."""
        from repro._rng import ensure_rng

        # Rebuild the training split exactly as the trainer derived it.
        split = make_jigsaws_like(task="suturing", seed=ensure_rng(7).spawn(4)[0])
        with InferenceEngine(classification_pipeline) as engine:
            predictions = engine.predict(split.test_features)
        accuracy = float(np.mean(
            [p == t for p, t in zip(predictions, split.test_labels.tolist())]
        ))
        assert accuracy == classification_pipeline.metadata["test_accuracy"]

    def test_metadata_travels_with_the_model(self, classification_pipeline, tmp_path):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        restored = load_model(path)
        assert restored.metadata == classification_pipeline.metadata
        assert restored.metadata["task"] == "suturing"

    def test_wrong_feature_count_rejected(self, classification_pipeline):
        with InferenceEngine(classification_pipeline) as engine:
            with pytest.raises(InvalidParameterError, match="feature"):
                engine.predict(np.zeros((3, 4)))


class TestRegressionServing:
    def test_reloaded_engine_is_bit_identical(self, regression_pipeline, tmp_path):
        path = tmp_path / "reg.npz"
        save_model(regression_pipeline, path)
        with InferenceEngine(regression_pipeline) as live, \
                InferenceEngine.from_path(path) as reloaded:
            anomalies = np.linspace(0.0, 2 * np.pi, 50)[:, None]
            assert np.array_equal(reloaded.predict(anomalies), live.predict(anomalies))

    def test_predict_one_scalar(self, regression_pipeline):
        with InferenceEngine(regression_pipeline) as engine:
            value = engine.predict_one([1.25])
        assert np.isscalar(value) or np.asarray(value).ndim == 0

    def test_workers_bit_identical(self, regression_pipeline):
        anomalies = np.linspace(0.0, 2 * np.pi, 64)[:, None]
        with InferenceEngine(regression_pipeline, workers=1) as serial:
            expected = serial.predict(anomalies)
        with InferenceEngine(regression_pipeline, workers=4) as sharded:
            assert np.array_equal(sharded.predict(anomalies), expected)


def _rows(pipeline, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, (n, pipeline.num_features))


def _regression_pipeline(model: str, decode: str, dim: int = 256):
    """A trained HDRegressor pipeline at the given model/decode combo."""
    emb = LevelBasis(32, dim, seed=5).linear_embedding(0.0, 1.0)
    x = np.linspace(0.0, 1.0, 48)
    reg = HDRegressor(emb, seed=9, decode=decode, model=model).fit(
        emb.encode_packed(x), x
    )
    return TrainedPipeline(kind="regression", model=reg, embedding=emb)


class TestShardedMatchesSequential:
    """Thread-sharded predict equals sequential ``predict_one`` for any
    worker count, batch size, model kind and decode mode."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_classifier(self, classification_pipeline, workers, batch):
        rows = _rows(classification_pipeline, batch, seed=batch)
        with InferenceEngine(classification_pipeline, workers=1) as serial:
            expected = serial.predict(rows)
            expected_one = [serial.predict_one(r) for r in rows]
        with InferenceEngine(classification_pipeline, workers=workers) as engine:
            assert engine.predict(rows) == expected == expected_one
            assert list(engine.predict_coalesced(rows)) == expected

    @pytest.mark.parametrize("model_mode", ["binary", "integer"])
    @pytest.mark.parametrize("decode", ["argmin", "weighted"])
    def test_regressor(self, model_mode, decode):
        pipeline = _regression_pipeline(model_mode, decode)
        rows = np.linspace(0.05, 0.95, 23)[:, None]
        with InferenceEngine(pipeline, workers=1) as serial:
            expected = serial.predict(rows)
            expected_one = [serial.predict_one(r) for r in rows]
        with InferenceEngine(pipeline, workers=3) as engine:
            np.testing.assert_array_equal(engine.predict(rows), expected)
            np.testing.assert_array_equal(engine.predict_coalesced(rows), expected_one)

    def test_random_tie_pipeline_coalesced(self, random_tie_pipeline):
        """Coalesced answers keep every tie-break draw of sequential
        ``predict_one``, row for row."""
        rows = np.random.default_rng(3).random((12, 4))
        with InferenceEngine(random_tie_pipeline, workers=1) as serial:
            expected = [serial.predict_one(r) for r in rows]
        with InferenceEngine(random_tie_pipeline, workers=2) as engine:
            assert engine.predict_coalesced(rows) == expected

    def test_empty_coalesced_batch(self, classification_pipeline):
        with InferenceEngine(classification_pipeline, workers=2) as engine:
            assert engine.predict_coalesced(np.empty((0, engine.num_features))) == []

    def test_workers_above_rows(self, classification_pipeline):
        """More workers than rows: some shards are empty, answers unchanged."""
        rows = _rows(classification_pipeline, 2, seed=6)
        with InferenceEngine(classification_pipeline, workers=1) as serial:
            expected = serial.predict(rows)
        with InferenceEngine(classification_pipeline, workers=3) as engine:
            assert engine.predict(rows) == expected

    def test_online_learning_visible_to_open_engine(self, classification_pipeline):
        """An engine opened before online learning serves the mutated
        model, not a snapshot of the old one."""
        pipeline = copy.deepcopy(classification_pipeline)
        rows = _rows(pipeline, 6, seed=8)
        with InferenceEngine(pipeline, workers=2) as engine:
            before = engine.predict(rows)
            with OnlineLearner(pipeline) as learner:
                learner.learn(rows, ["G1"] * len(rows))
            after = engine.predict(rows)
            assert after != before
            with InferenceEngine(pipeline, workers=1) as fresh:
                assert after == fresh.predict(rows)

    @pytest.mark.parametrize("model_mode", ["binary", "integer"])
    def test_online_learning_visible_to_open_regressor_engine(self, model_mode):
        """Learning changes a keyless engine's answers; forgetting the
        same records restores them bit for bit, through the same engine
        (a position-free tie policy, so rematerialising draws nothing)."""
        pipeline = _keyless_regression_pipeline(model_mode, "argmin", "zeros")
        values = _every_level_and_edge(pipeline.embedding)[:, None]
        learned = np.random.default_rng(31).uniform(0.0, 2 * np.pi, (40, 1))
        with InferenceEngine(pipeline, workers=2) as engine:
            before = engine.predict(values)
            with OnlineLearner(pipeline) as learner:
                learner.learn(learned, np.ones(len(learned)))
                after = engine.predict(values)
                assert not np.array_equal(after, before)
                np.testing.assert_array_equal(
                    after,
                    pipeline.model.predict(pipeline.embedding.encode_packed(values[:, 0])),
                )
                learner.forget(learned, np.ones(len(learned)))
            np.testing.assert_array_equal(engine.predict(values), before)


def _keyless_regression_pipeline(
    model: str, decode: str, tie_break: str = "random", levels: int = 24, dim: int = 512
):
    """A keyless angle → value regressor, shaped like Mars Express.

    An even training count and the ``"random"`` tie policy make the
    binary model's materialisation draw from its RNG.
    """
    feature = CircularBasis(levels, dim, seed=21).circular_embedding(period=2 * np.pi)
    label = LevelBasis(16, dim, seed=22).linear_embedding(0.0, 1.0)
    angles = np.random.default_rng(23).uniform(0.0, 2 * np.pi, 60)
    targets = (np.sin(angles) + 1.0) / 2.0
    reg = HDRegressor(label, tie_break, seed=24, decode=decode, model=model).fit(
        feature.encode_packed(angles), targets
    )
    return TrainedPipeline(kind="regression", model=reg, embedding=feature)


def _every_level_and_edge(embedding) -> np.ndarray:
    """Every grid point, the level midpoints and the wrap edges."""
    points = embedding.discretizer.points
    step = points[1] - points[0]
    edges = [0.0, 2 * np.pi, -0.1, 2 * np.pi + 0.1]
    return np.concatenate([points, points + step / 2, edges])


def _race(call, inputs: list) -> list:
    """``call`` on every input, one thread each, released together."""
    results: list = [None] * len(inputs)
    barrier = threading.Barrier(len(inputs))

    def work(i: int) -> None:
        barrier.wait()
        results[i] = call(inputs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestKeylessAnswerTable:
    """The per-level answer table against the reference encode-then-predict
    path (a fresh model copy), not against another engine."""

    @pytest.mark.parametrize("model_mode", ["binary", "integer"])
    @pytest.mark.parametrize("decode", ["argmin", "weighted"])
    def test_matches_reference_for_every_level(self, model_mode, decode):
        pipeline = _keyless_regression_pipeline(model_mode, decode)
        reference = copy.deepcopy(pipeline.model)
        values = _every_level_and_edge(pipeline.embedding)
        with InferenceEngine(pipeline) as engine:
            singles = np.array([engine.predict_one([v]) for v in values])
            coalesced = np.array(engine.predict_coalesced(values[:, None]))
            batch = engine.predict(values[:, None])
        expected = reference.predict(pipeline.embedding.encode_packed(values))
        np.testing.assert_array_equal(singles, expected)
        np.testing.assert_array_equal(coalesced, expected)
        np.testing.assert_array_equal(batch, expected)

    def test_cold_coalesced_batch_matches_reference(self):
        """A cold engine fills every level from one coalesced batch."""
        pipeline = _keyless_regression_pipeline("integer", "weighted")
        reference = copy.deepcopy(pipeline.model)
        values = _every_level_and_edge(pipeline.embedding)[::-1]
        with InferenceEngine(pipeline, workers=2) as engine:
            coalesced = np.array(engine.predict_coalesced(values[:, None]))
        expected = reference.predict(pipeline.embedding.encode_packed(values))
        np.testing.assert_array_equal(coalesced, expected)

    def test_keyless_classifier_labels(self):
        """Object labels (tuples included) survive the table unchanged."""
        emb = CircularBasis(12, 256, seed=3).circular_embedding(period=12.0)
        hours = np.arange(12.0)
        labels = [("am",) if h < 6 else ("pm", int(h)) for h in hours]
        clf = CentroidClassifier(dim=256, tie_break="zeros").fit(
            emb.encode_packed(hours), labels
        )
        pipeline = TrainedPipeline(kind="classification", model=clf, embedding=emb)
        values = np.concatenate([hours, hours + 0.4])
        expected = copy.deepcopy(clf).predict(emb.encode_packed(values))
        with InferenceEngine(pipeline) as engine:
            assert engine.predict(values[:, None]) == expected
            assert engine.predict_coalesced(values[:, None]) == expected
            assert [engine.predict_one([v]) for v in values] == expected

    def test_untrained_model_still_raises(self):
        emb = CircularBasis(12, 256, seed=3).circular_embedding(period=12.0)
        label = LevelBasis(8, 256, seed=4).linear_embedding(0.0, 1.0)
        pipeline = TrainedPipeline(
            kind="regression", model=HDRegressor(label), embedding=emb
        )
        with InferenceEngine(pipeline) as engine:
            for call in (engine.predict, engine.predict_coalesced):
                with pytest.raises(EmptyModelError):
                    call(np.array([[1.0]]))
            with pytest.raises(EmptyModelError):
                engine.predict(np.empty((0, 1)))

    def test_concurrent_cold_fills(self):
        """Four threads racing to fill a cold table all get the
        sequential answers."""
        pipeline = _keyless_regression_pipeline("integer", "weighted")
        values = _every_level_and_edge(pipeline.embedding)
        rows = [np.roll(values, 7 * t)[:, None] for t in range(4)]
        expected = [
            pipeline.model.predict(pipeline.embedding.encode_packed(r[:, 0])) for r in rows
        ]
        for _ in range(5):
            with InferenceEngine(copy.deepcopy(pipeline)) as engine:
                results = _race(engine.predict_coalesced, rows)
            for got, want in zip(results, expected):
                np.testing.assert_array_equal(got, want)


class TestKernelBackends:
    """The backend knob and the predict_one fast path are invisible in
    the answers: every backend, worker count and entry point must agree
    bit for bit."""

    def test_classifier_backends_bit_identical(
        self, classification_pipeline, gesture_records
    ):
        with InferenceEngine(classification_pipeline) as engine:
            expected = engine.predict(gesture_records)
        for backend in ("auto", "gemm", "xor"):
            with InferenceEngine(classification_pipeline, backend=backend) as engine:
                assert engine.predict(gesture_records) == expected

    def test_regression_backends_bit_identical(self, regression_pipeline):
        anomalies = np.linspace(0.0, 2 * np.pi, 40)[:, None]
        with InferenceEngine(regression_pipeline) as engine:
            expected = engine.predict(anomalies)
        for backend in ("gemm", "xor"):
            for workers in (1, 3):
                with InferenceEngine(
                    regression_pipeline, workers=workers, backend=backend
                ) as engine:
                    assert np.array_equal(engine.predict(anomalies), expected)

    def test_env_knob_forces_backend(
        self, classification_pipeline, gesture_records, monkeypatch
    ):
        with InferenceEngine(classification_pipeline) as engine:
            expected = engine.predict(gesture_records)
        monkeypatch.setenv("REPRO_KERNEL", "gemm")
        with InferenceEngine(classification_pipeline) as engine:
            assert engine.predict(gesture_records) == expected

    def test_fast_path_matches_batch_per_backend(
        self, classification_pipeline, gesture_records
    ):
        for backend in ("auto", "gemm", "xor"):
            with InferenceEngine(classification_pipeline, backend=backend) as engine:
                batch = engine.predict(gesture_records[:10])
                singles = [engine.predict_one(row) for row in gesture_records[:10]]
                assert singles == batch

    def test_fast_path_matches_batch_keyless(self, regression_pipeline):
        with InferenceEngine(regression_pipeline) as engine:
            values = np.linspace(0.0, 2 * np.pi, 15)
            batch = engine.predict(values[:, None])
            singles = np.array([engine.predict_one([v]) for v in values])
            assert np.array_equal(singles, batch)

    def test_bad_backend_fails_at_construction(self, classification_pipeline, monkeypatch):
        with pytest.raises(InvalidParameterError, match="backend"):
            InferenceEngine(classification_pipeline, backend="simd")
        monkeypatch.setenv("REPRO_KERNEL", "typo")
        with pytest.raises(InvalidParameterError, match="backend"):
            InferenceEngine(classification_pipeline)

    def test_fast_path_rejects_bad_shapes(self, classification_pipeline):
        with InferenceEngine(classification_pipeline) as engine:
            with pytest.raises(InvalidParameterError, match="record"):
                engine.predict_one(np.zeros((2, engine.num_features)))
            with pytest.raises(InvalidParameterError, match="record"):
                engine.predict_one(np.zeros(engine.num_features + 1))


class TestEngineGuards:
    @pytest.mark.parametrize("value", [None, 0, 1])
    def test_default_proc_workers_is_in_process(self, value):
        assert default_proc_workers(value) == 1

    @pytest.mark.parametrize("value", [2, -1, True])
    def test_default_proc_workers_rejects_fan_out(self, value):
        with pytest.raises(InvalidParameterError, match="proc_workers"):
            default_proc_workers(value)

    def test_from_path_proc_workers(
        self, classification_pipeline, gesture_records, tmp_path
    ):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        with InferenceEngine(classification_pipeline) as live, \
                InferenceEngine.from_path(path, proc_workers=1) as reloaded:
            assert reloaded.predict(gesture_records) == live.predict(gesture_records)
        with pytest.raises(InvalidParameterError, match="proc_workers"):
            InferenceEngine.from_path(path, proc_workers=2)

    def test_non_pipeline_artifact_rejected(self, tmp_path):
        path = tmp_path / "basis.npz"
        save_model(RandomBasis(4, 64, seed=0), path)
        with pytest.raises(InvalidParameterError, match="TrainedPipeline"):
            InferenceEngine.from_path(path)

    def test_train_pipeline_dispatch(self):
        with pytest.raises(InvalidParameterError, match="unknown task"):
            train_pipeline("no_such_task")
        with pytest.raises(InvalidParameterError, match="RegressionConfig"):
            train_pipeline("mars_express", config=ClassificationConfig(dim=64))
        with pytest.raises(InvalidParameterError, match="ClassificationConfig"):
            train_pipeline("suturing", config=RegressionConfig(dim=64))
