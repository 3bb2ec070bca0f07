"""Tests for the whole-split BatchEncoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.hdc.encoders import encode_keyvalue_records
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.packed import is_packed
from repro.runtime import BatchEncoder, WorkerPool

DIM = 512
CHANNELS = 6
LEVELS = 12


@pytest.fixture()
def encoder() -> BatchEncoder:
    basis = LevelBasis(LEVELS, DIM, seed=0)
    keys = random_hypervectors(CHANNELS, DIM, seed=1)
    return BatchEncoder(keys, basis.linear_embedding(0.0, 1.0))


@pytest.fixture()
def features() -> np.ndarray:
    return np.random.default_rng(7).random((300, CHANNELS))


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM * 2, seed=1)
        with pytest.raises(DimensionMismatchError):
            BatchEncoder(keys, basis.linear_embedding(0.0, 1.0))

    def test_bad_chunk_size_rejected(self, encoder):
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        with pytest.raises(InvalidParameterError):
            BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), chunk_size=0)

    def test_introspection(self, encoder):
        assert encoder.num_channels == CHANNELS
        assert encoder.dim == DIM
        assert encoder.nbytes == CHANNELS * LEVELS * DIM

    def test_bad_feature_shapes_rejected(self, encoder):
        with pytest.raises(InvalidParameterError):
            encoder.indices(np.zeros(5))
        with pytest.raises(InvalidParameterError):
            encoder.encode(np.zeros((5, CHANNELS + 1)))


class TestEquivalence:
    def test_matches_legacy_encoder(self, encoder, features):
        basis_vectors = encoder.embedding.basis.vectors
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        idx = encoder.indices(features)
        legacy = encode_keyvalue_records(
            keys, idx, basis_vectors, seed=np.random.default_rng(42)
        )
        mine = encoder.encode(features, seed=np.random.default_rng(42))
        assert np.array_equal(legacy, mine)

    def test_packed_output_same_bits(self, encoder, features):
        unpacked = encoder.encode(features, seed=np.random.default_rng(5))
        packed = encoder.encode(features, seed=np.random.default_rng(5), packed=True)
        assert is_packed(packed)
        assert np.array_equal(unpacked, packed.unpack())

    def test_parallel_bit_identical(self, encoder, features):
        serial = encoder.encode(features, seed=np.random.default_rng(9))
        for workers in (2, 4):
            with WorkerPool(workers=workers) as pool:
                par = encoder.encode(features, seed=np.random.default_rng(9), pool=pool)
            assert np.array_equal(serial, par)

    def test_circular_embedding(self, features):
        basis = CircularBasis(LEVELS, DIM, r=0.1, seed=3)
        emb = basis.circular_embedding(period=1.0)
        keys = random_hypervectors(CHANNELS, DIM, seed=4)
        enc = BatchEncoder(keys, emb)
        out = enc.encode(features, seed=0)
        assert out.shape == (features.shape[0], DIM)
        assert set(np.unique(out)) <= {0, 1}

    def test_indices_independent_of_basis_contents(self, encoder, features):
        # The r-sweep reuses one quantisation across many bases.
        idx = encoder.indices(features)
        assert idx.min() >= 0 and idx.max() < LEVELS

    def test_empty_batch(self, encoder):
        out = encoder.encode(np.empty((0, CHANNELS)), seed=0)
        assert out.shape == (0, DIM)


class TestEncodeOne:
    def test_bit_identical_to_batch_path(self, encoder, features):
        for row in features[:5]:
            one = encoder.encode_one(row, seed=21)
            batch = encoder.encode(row[None, :], seed=21)
            assert np.array_equal(one, batch)

    def test_random_tie_policy_consumes_rng_identically(self, features):
        # An even channel count with the "random" policy draws tie bits;
        # the fast path must consume the stream exactly like the batch
        # path for the answers to match.
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        enc = BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), tie_break="random")
        for row in features[:5]:
            one = enc.encode_one(row, seed=33)
            batch = enc.encode(row[None, :], seed=33)
            assert np.array_equal(one, batch)

    def test_packed_output(self, encoder, features):
        one = encoder.encode_one(features[0], seed=2, packed=True)
        assert is_packed(one)
        assert np.array_equal(one.unpack(), encoder.encode_one(features[0], seed=2))

    def test_bad_shapes_rejected(self, encoder):
        with pytest.raises(InvalidParameterError):
            encoder.encode_one(np.zeros((2, CHANNELS)))
        with pytest.raises(InvalidParameterError):
            encoder.encode_one(np.zeros(CHANNELS + 1))


class TestTieStream:
    """A tie-break generator is built only for the ``"random"`` policy."""

    @staticmethod
    def _counting_ensure_rng(monkeypatch) -> list:
        import repro.runtime.batch as batch_module

        calls: list = []
        real = batch_module.ensure_rng

        def counting(seed=None):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(batch_module, "ensure_rng", counting)
        return calls

    @pytest.mark.parametrize("tie_break", ["zeros", "ones"])
    def test_position_free_policies_build_no_generator(
        self, monkeypatch, features, tie_break
    ):
        basis = LevelBasis(LEVELS, DIM, seed=0)
        enc = BatchEncoder(
            random_hypervectors(CHANNELS, DIM, seed=1),
            basis.linear_embedding(0.0, 1.0),
            tie_break=tie_break,
            chunk_size=64,
        )
        expected = enc.encode(features, seed=5)
        calls = self._counting_ensure_rng(monkeypatch)
        np.testing.assert_array_equal(enc.encode(features), expected)
        np.testing.assert_array_equal(enc.encode_one(features[0]), expected[:1])
        assert calls == []

    def test_random_policy_shares_one_stream_across_chunks(self, monkeypatch, features):
        keys = random_hypervectors(4, DIM, seed=1)
        enc = BatchEncoder(
            keys,
            LevelBasis(LEVELS, DIM, seed=0).linear_embedding(0.0, 1.0),
            tie_break="random",
            chunk_size=64,
        )
        serial = encode_keyvalue_records(
            keys, enc.indices(features[:, :4]), enc.embedding.basis.vectors,
            seed=np.random.default_rng(9), chunk_size=64,
        )
        calls = self._counting_ensure_rng(monkeypatch)
        np.testing.assert_array_equal(enc.encode(features[:, :4], seed=9), serial)
        assert calls == [9]
