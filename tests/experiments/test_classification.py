"""Integration tests for the Table 1 experiment driver.

These run the full pipeline at a reduced dimensionality (the orderings are
stable well below d = 10,000; the benchmark harness runs the full-size
version).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_jigsaws_like
from repro.exceptions import InvalidParameterError
from repro.experiments import (
    BASIS_KINDS,
    ClassificationConfig,
    encode_angular_records,
    run_classification,
    run_table1,
)
from repro.basis import CircularBasis
from repro.hdc import encode_keyvalue_records, random_hypervectors

DIM = 2048
CONFIG = ClassificationConfig(dim=DIM, seed=7)


@pytest.fixture(scope="module")
def table1():
    return run_table1(CONFIG)


class TestTable1Shape:
    def test_all_cells_present(self, table1):
        assert set(table1) == {"knot_tying", "needle_passing", "suturing"}
        for row in table1.values():
            assert set(row) == set(BASIS_KINDS)

    def test_accuracies_in_range(self, table1):
        for row in table1.values():
            for acc in row.values():
                assert 0.0 <= acc <= 1.0

    def test_circular_wins_every_task(self, table1):
        """The paper's headline claim."""
        for task, row in table1.items():
            assert row["circular"] > row["random"], task
            assert row["circular"] > row["level"], task

    def test_circular_margin_is_material(self, table1):
        """Average gain over random comparable to the paper's +7.2%."""
        gains = [row["circular"] - row["random"] for row in table1.values()]
        assert np.mean(gains) > 0.05

    def test_suturing_is_hardest(self, table1):
        for kind in BASIS_KINDS:
            assert table1["suturing"][kind] < table1["knot_tying"][kind]

    def test_all_models_beat_chance(self, table1):
        chance = 1.0 / 15
        for row in table1.values():
            for acc in row.values():
                assert acc > 3 * chance


class TestRunClassification:
    def test_result_fields(self):
        result = run_classification("knot_tying", "circular", config=CONFIG)
        assert result.task == "knot_tying"
        assert result.basis_kind == "circular"
        assert result.num_train == 300
        assert result.num_test == 2100

    def test_reproducible(self):
        a = run_classification("suturing", "level", config=CONFIG)
        b = run_classification("suturing", "level", config=CONFIG)
        assert a.accuracy == b.accuracy

    def test_shared_split_reused(self):
        split = make_jigsaws_like(task="knot_tying", seed=0)
        a = run_classification("knot_tying", "random", config=CONFIG, split=split)
        b = run_classification("knot_tying", "random", config=CONFIG, split=split)
        assert a.accuracy == b.accuracy

    def test_task_split_mismatch_rejected(self):
        split = make_jigsaws_like(task="knot_tying", seed=0)
        with pytest.raises(InvalidParameterError):
            run_classification("suturing", "random", config=CONFIG, split=split)

    def test_unknown_basis_kind(self):
        with pytest.raises(InvalidParameterError):
            run_classification("suturing", "fourier", config=CONFIG)

    def test_refinement_epochs_run(self):
        config = ClassificationConfig(dim=DIM, seed=7, refine_epochs=2)
        result = run_classification("suturing", "circular", config=config)
        assert 0.0 <= result.accuracy <= 1.0


class TestEncodeAngularRecords:
    def test_shapes(self, rng):
        basis = CircularBasis(12, DIM, seed=0)
        emb = basis.circular_embedding()
        keys = random_hypervectors(18, DIM, seed=1)
        features = rng.uniform(0, 2 * np.pi, (5, 18))
        out = encode_angular_records(features, keys, emb, seed=2)
        assert out.shape == (5, DIM)

    def test_bit_identical_to_reference_encoder(self, rng):
        emb = CircularBasis(12, DIM, seed=0).circular_embedding()
        keys = random_hypervectors(18, DIM, seed=1)
        features = rng.uniform(0, 2 * np.pi, (300, 18))
        idx = emb.indices(features.ravel()).reshape(features.shape)
        reference = encode_keyvalue_records(
            keys, idx, emb.basis.vectors, seed=np.random.default_rng(2)
        )
        out = encode_angular_records(
            features, keys, emb, seed=np.random.default_rng(2)
        )
        np.testing.assert_array_equal(out, reference)

    def test_key_count_mismatch(self, rng):
        basis = CircularBasis(12, DIM, seed=0)
        emb = basis.circular_embedding()
        keys = random_hypervectors(4, DIM, seed=1)
        with pytest.raises(InvalidParameterError):
            encode_angular_records(rng.uniform(0, 1, (5, 18)), keys, emb)

    def test_rejects_1d_features(self, rng):
        basis = CircularBasis(12, DIM, seed=0)
        emb = basis.circular_embedding()
        keys = random_hypervectors(18, DIM, seed=1)
        with pytest.raises(InvalidParameterError):
            encode_angular_records(rng.uniform(0, 1, 18), keys, emb)


class TestConfig:
    def test_scaled(self):
        assert CONFIG.scaled(512).dim == 512
        assert CONFIG.scaled(512).seed == CONFIG.seed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 4},
            {"levels": 1},
            {"circular_r": 1.5},
            {"refine_epochs": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ClassificationConfig(**kwargs)
