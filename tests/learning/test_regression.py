"""Tests for the bind–bundle–cleanup regressor (Section 2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import (
    DimensionMismatchError,
    EmptyModelError,
    InvalidParameterError,
)
from repro.hdc import random_hypervectors
from repro.learning import HDRegressor

DIM = 4096


@pytest.fixture
def label_embedding():
    return LevelBasis(32, DIM, seed=100).linear_embedding(0.0, 10.0)


class TestBasics:
    def test_memorises_random_address_pairs(self, rng, label_embedding):
        """The core Section 2.3 mechanism: with quasi-orthogonal sample
        encodings, unbinding the model recovers each sample's label."""
        x = random_hypervectors(40, DIM, rng)
        y = rng.uniform(0, 10, 40)
        model = HDRegressor(label_embedding, seed=0).fit(x, y)
        pred = model.predict(x)
        grid_step = 10.0 / 31
        assert np.abs(pred - y).mean() < 3 * grid_step

    def test_predict_before_fit(self, rng, label_embedding):
        with pytest.raises(EmptyModelError):
            HDRegressor(label_embedding).predict(random_hypervectors(1, DIM, rng))

    def test_model_property_before_fit(self, label_embedding):
        with pytest.raises(EmptyModelError):
            _ = HDRegressor(label_embedding).model

    def test_incremental_fit(self, rng, label_embedding):
        x = random_hypervectors(20, DIM, rng)
        y = rng.uniform(0, 10, 20)
        a = HDRegressor(label_embedding, tie_break="zeros").fit(x, y)
        b = HDRegressor(label_embedding, tie_break="zeros")
        b.fit(x[:10], y[:10]).fit(x[10:], y[10:])
        np.testing.assert_array_equal(a.model, b.model)
        assert b.num_samples == 20

    def test_score_is_mse(self, rng, label_embedding):
        x = random_hypervectors(10, DIM, rng)
        y = rng.uniform(0, 10, 10)
        model = HDRegressor(label_embedding, seed=1).fit(x, y)
        pred = model.predict(x)
        assert model.score(x, y) == pytest.approx(np.mean((pred - y) ** 2))

    def test_dimension_mismatch(self, rng, label_embedding):
        model = HDRegressor(label_embedding)
        with pytest.raises(DimensionMismatchError):
            model.fit(random_hypervectors(2, DIM // 2, rng), np.zeros(2))

    def test_label_shape_mismatch(self, rng, label_embedding):
        model = HDRegressor(label_embedding)
        with pytest.raises(InvalidParameterError):
            model.fit(random_hypervectors(3, DIM, rng), np.zeros(2))

    def test_invalid_decode(self, label_embedding):
        with pytest.raises(InvalidParameterError):
            HDRegressor(label_embedding, decode="softmax")

    def test_invalid_model_mode(self, label_embedding):
        with pytest.raises(InvalidParameterError):
            HDRegressor(label_embedding, model="analog")


class TestModelModes:
    @pytest.mark.parametrize("mode,var_factor", [("binary", 1.5), ("integer", 0.5)])
    def test_smooth_function_learned_with_circular_basis(self, mode, var_factor):
        """Kernel-regression behaviour on a smooth circular function.

        The integer model must clearly beat predicting the mean; the
        binary model is only sanity-bounded — with a single correlated
        feature its majority quantisation pulls predictions toward the
        label median (the pathology analysed in EXPERIMENTS.md), so
        near-variance MSE is its expected behaviour, not a bug.
        """
        basis = CircularBasis(64, DIM, seed=5)
        emb = basis.circular_embedding()
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, 2 * np.pi, 600)
        y = 5.0 + 4.0 * np.cos(theta)
        label_emb = LevelBasis(64, DIM, seed=7).linear_embedding(0.0, 10.0)
        model = HDRegressor(label_emb, seed=8, model=mode)
        model.fit(emb.encode(theta), y)
        probe = rng.uniform(0, 2 * np.pi, 100)
        mse = model.score(emb.encode(probe), 5.0 + 4.0 * np.cos(probe))
        assert mse < var_factor * np.var(y)

    def test_integer_beats_binary_on_correlated_single_feature(self):
        """The quantisation ablation: the unquantised accumulator retains
        more signal when addresses are correlated (see EXPERIMENTS.md)."""
        basis = CircularBasis(64, DIM, seed=9)
        emb = basis.circular_embedding()
        rng = np.random.default_rng(10)
        theta = rng.uniform(0, 2 * np.pi, 800)
        y = 5.0 + 4.0 * np.sin(theta)
        label_emb = LevelBasis(64, DIM, seed=11).linear_embedding(0.0, 10.0)
        probe = rng.uniform(0, 2 * np.pi, 150)
        truth = 5.0 + 4.0 * np.sin(probe)
        scores = {}
        for mode in ("binary", "integer"):
            model = HDRegressor(label_emb, seed=12, model=mode)
            model.fit(emb.encode(theta), y)
            scores[mode] = model.score(emb.encode(probe), truth)
        assert scores["integer"] < scores["binary"]


class TestDecodeModes:
    def test_weighted_decode_runs_and_is_reasonable(self, rng, label_embedding):
        x = random_hypervectors(30, DIM, rng)
        y = rng.uniform(0, 10, 30)
        argmin_model = HDRegressor(label_embedding, seed=2, decode="argmin").fit(x, y)
        weighted_model = HDRegressor(label_embedding, seed=2, decode="weighted").fit(x, y)
        assert weighted_model.score(x, y) < np.var(y) * 2
        # Weighted predictions are continuous (not snapped to the grid).
        grid = label_embedding.discretizer.points
        pred = weighted_model.predict(x[:5])
        assert not all(float(p) in set(grid.tolist()) for p in pred)
        del argmin_model

    def test_weighted_decode_within_label_range(self, rng, label_embedding):
        x = random_hypervectors(10, DIM, rng)
        y = rng.uniform(0, 10, 10)
        model = HDRegressor(label_embedding, seed=3, decode="weighted").fit(x, y)
        pred = model.predict(random_hypervectors(20, DIM, rng))
        assert (pred >= 0.0).all() and (pred <= 10.0).all()


class TestUpdatesInvalidateDecodeState:
    """Every update drops the frozen decode state and bumps ``generation``:
    predictions after it equal a fresh regressor holding the same bundle."""

    @staticmethod
    def _fresh(model: HDRegressor) -> HDRegressor:
        fresh = HDRegressor(
            model.label_embedding, "zeros", decode=model.decode_mode, model=model.model_mode
        )
        return fresh.ingest_counts(model._bundle.counts.copy(), model._bundle.total)

    @pytest.mark.parametrize("model_mode", ["binary", "integer"])
    @pytest.mark.parametrize("decode", ["argmin", "weighted"])
    def test_each_update(self, rng, label_embedding, model_mode, decode):
        x = random_hypervectors(40, DIM, rng)
        y = rng.uniform(0, 10, 40)
        probe = random_hypervectors(25, DIM, rng)
        model = HDRegressor(label_embedding, "zeros", decode=decode, model=model_mode)
        model.fit(x[:20], y[:20]).prepare()
        updates = [
            lambda: model.partial_fit([(x[20:30], y[20:30])]),
            lambda: model.ingest_counts(
                model.shard_bundle(x[30:], y[30:]).counts, 10
            ),
            lambda: model.forget(x[:12], y[:12]),
            lambda: model.absorb(model.shard_bundle(x[:12], y[:12])),
        ]
        for update in updates:
            model.predict(probe)  # leave the decode state built
            generation = model.generation
            update()
            assert model.generation > generation
            np.testing.assert_array_equal(
                model.predict(probe), self._fresh(model).predict(probe)
            )

    def test_prepare_builds_integer_table_once(self, rng, label_embedding):
        x = random_hypervectors(10, DIM, rng)
        model = HDRegressor(label_embedding, model="integer").fit(x, rng.uniform(0, 10, 10))
        table = model.prepare()._decode_table
        assert table is not None
        model.predict(x)
        assert model._decode_table is table
