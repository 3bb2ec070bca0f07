"""Whole-split record encoding: the runtime's batched encode stage.

:class:`BatchEncoder` turns an ``(n, k)`` feature matrix into ``n``
record hypervectors ``⊕_{i=1}^{k} K_i ⊗ V_{idx(x_{t,i})}`` — the
key–value encoding used by the Table 1 classification pipeline — with
three properties the per-call encoders in :mod:`repro.hdc.encoders` do
not give on their own:

* **fused tables** — the ``K_i ⊗ B_m`` bindings are precomputed once per
  encoder into a ``(k, m, d)`` table, so encoding a chunk is a pure
  gather + integer sum with no per-sample XOR pass;
* **chunk-parallel counts** — the per-chunk bit-count phase is pure
  (no RNG), so chunks can run on a :class:`~repro.runtime.pool.WorkerPool`
  while the tie-breaking threshold runs serially over chunks in a fixed
  order.  The output is **bit-identical** for any worker count, and
  identical to :func:`repro.hdc.encoders.encode_keyvalue_records` with
  the same ``chunk_size``;
* **packed output** — ``packed=True`` lands the corpus directly as a
  :class:`~repro.hdc.packed.PackedHV` of ``n × ceil(d / 8)`` bytes.

Example
-------
>>> import numpy as np
>>> from repro.basis import LevelBasis
>>> from repro.hdc.hypervector import random_hypervectors
>>> from repro.runtime import BatchEncoder
>>> basis = LevelBasis(8, 64, seed=0)
>>> emb = basis.linear_embedding(0.0, 1.0)
>>> keys = random_hypervectors(3, 64, seed=1)
>>> enc = BatchEncoder(keys, emb)
>>> hvs = enc.encode(np.random.default_rng(2).random((5, 3)), seed=3)
>>> hvs.shape
(5, 64)
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..basis.base import Embedding
from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..hdc.encoders import DEFAULT_CHUNK_SIZE
from ..hdc.hypervector import as_hypervector
from ..hdc.ops import TieBreak, majority_from_counts
from ..hdc.packed import PackedHV, packed_width
from .pool import WorkerPool

__all__ = ["BatchEncoder"]


class BatchEncoder:
    """Vectorised key–value record encoder over whole splits.

    Parameters
    ----------
    keys:
        ``(k, d)`` key hypervectors, one per feature channel (the ``K_i``
        of Section 6.1).
    embedding:
        The value embedding ``φ`` shared by all channels (discretizer +
        basis table).
    tie_break:
        Majority tie policy; see :func:`repro.hdc.ops.majority_from_counts`.
    chunk_size:
        Records per chunk.  Bounds the transient gather at roughly
        ``chunk_size * k * d`` bytes and fixes the RNG consumption
        pattern of the ``"random"`` tie policy — results depend on
        ``chunk_size`` (through tie draws) but **not** on the worker
        count.

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.hdc.hypervector import random_hypervectors
    >>> emb = LevelBasis(4, 32, seed=0).linear_embedding(0.0, 1.0)
    >>> enc = BatchEncoder(random_hypervectors(2, 32, seed=1), emb, tie_break="zeros")
    >>> enc.encode(np.array([[0.1, 0.9]]), packed=True).shape
    (1, 32)
    """

    def __init__(
        self,
        keys: np.ndarray,
        embedding: Embedding,
        tie_break: TieBreak = "random",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        keys = as_hypervector(keys)
        if keys.ndim != 2:
            raise InvalidParameterError(f"keys must be a (k, d) table, got shape {keys.shape}")
        if keys.shape[1] != embedding.dim:
            raise DimensionMismatchError(keys.shape[1], embedding.dim, "BatchEncoder")
        if chunk_size < 1:
            raise InvalidParameterError(f"chunk_size must be positive, got {chunk_size}")
        self.embedding = embedding
        self.tie_break = tie_break
        self.chunk_size = int(chunk_size)
        self._keys = keys
        # Fused binding table: fused[i, m] = keys[i] ⊗ basis[m].  For the
        # paper's sizes (k=18, m≈12–720, d=10,000) this is a few MB and
        # removes the per-sample XOR from the encode hot loop.
        self._fused = np.bitwise_xor(
            keys[:, None, :], embedding.basis.vectors[None, :, :]
        )
        self._channel_index = np.arange(keys.shape[0])

    # -- introspection ---------------------------------------------------------
    @property
    def num_channels(self) -> int:
        """Number of feature channels ``k``."""
        return self._keys.shape[0]

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality ``d``."""
        return self._keys.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the fused ``(k, m, d)`` binding table."""
        return self._fused.nbytes

    @property
    def count_dtype(self) -> type:
        """Narrowest integer dtype that safely holds per-bit counts.

        Counts are bounded by the channel count ``k``, so int16 is exact
        for every realistic encoder; the fused ingest tier
        (:mod:`repro.hdc.ingest`) relies on this being the *same* dtype
        :meth:`chunk_counts` reduces in, keeping both paths bit-aligned.
        """
        return np.int16 if self.num_channels <= 16_000 else np.int64

    # -- encoding --------------------------------------------------------------
    def indices(self, features: np.ndarray) -> np.ndarray:
        """Quantise an ``(n, k)`` feature matrix to basis indices.

        Exposed separately because the indices are independent of the
        basis *contents*: an r-sweep can quantise once and re-encode
        against many bases of the same grid size.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.num_channels:
            raise InvalidParameterError(
                f"expected (n, {self.num_channels}) features, got {features.shape}"
            )
        return self.embedding.indices(features.ravel()).reshape(features.shape)

    def chunk_counts(self, indices_chunk: np.ndarray) -> np.ndarray:
        """Per-dimension one-bit counts for one chunk of index rows.

        Pure (no RNG, no state mutation) — this is the unit of parallel
        work.  ``counts[t] = Σ_i bits(K_i ⊗ B[idx[t, i]])``.  Counts are
        accumulated in the narrowest safe integer type (``k`` bounds
        them), which roughly quarters the reduction's memory traffic.
        """
        gathered = self._fused[self._channel_index[None, :], indices_chunk]
        return gathered.sum(axis=1, dtype=self.count_dtype)

    def _tie_rng(self, seed: SeedLike) -> np.random.Generator | None:
        """The tie-break stream, built only for the ``"random"`` policy.

        The other policies never draw, so a per-request generator (fresh
        OS entropy when ``seed`` is ``None``) would be pure overhead.
        """
        return ensure_rng(seed) if self.tie_break == "random" else None

    def encode_one(
        self,
        features: np.ndarray,
        seed: SeedLike = None,
        packed: bool = False,
    ) -> Union[np.ndarray, PackedHV]:
        """Single-record fast path of :meth:`encode`.

        Skips the batch machinery (chunk partitioning, worker-pool
        dispatch, per-chunk bookkeeping) for the serving hot path where
        records arrive one at a time.  Takes one ``(k,)`` feature record
        and returns a ``(1, d)`` batch (packed when ``packed=True``) —
        **bit-identical** to ``encode(features[None, :], ...)`` with the
        same seed, including the RNG draws of the ``"random"`` tie
        policy (asserted in ``tests/runtime/test_batch.py``).

        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> from repro.hdc.hypervector import random_hypervectors
        >>> emb = LevelBasis(4, 32, seed=0).linear_embedding(0.0, 1.0)
        >>> enc = BatchEncoder(random_hypervectors(2, 32, seed=1), emb, tie_break="zeros")
        >>> one = enc.encode_one(np.array([0.1, 0.9]))
        >>> bool(np.array_equal(one, enc.encode(np.array([[0.1, 0.9]]))))
        True
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (self.num_channels,):
            raise InvalidParameterError(
                f"expected one ({self.num_channels},) record, got shape {features.shape}"
            )
        idx = self.embedding.indices(features).reshape(1, self.num_channels)
        counts = self.chunk_counts(idx)
        encoded = majority_from_counts(
            counts, self.num_channels, tie_break=self.tie_break, seed=self._tie_rng(seed)
        )
        if packed:
            return PackedHV(np.packbits(encoded, axis=-1), self.dim)
        return encoded

    def encode(
        self,
        features: np.ndarray,
        seed: SeedLike = None,
        packed: bool = False,
        pool: WorkerPool | None = None,
    ) -> Union[np.ndarray, PackedHV]:
        """Encode a whole ``(n, k)`` split.

        Parameters
        ----------
        features:
            ``(n, k)`` raw feature values; quantised by the embedding's
            discretizer.
        seed:
            Randomness for the ``"random"`` tie policy.  Consumed
            serially over chunks in a fixed order, so the result is
            independent of ``pool``.
        packed:
            Emit a bit-packed batch (``n × ceil(d / 8)`` bytes) instead
            of an unpacked ``(n, d)`` array.  The bits are identical.
        pool:
            Optional :class:`~repro.runtime.pool.WorkerPool` running the
            count phase chunk-parallel.  ``None`` runs serially.

        Returns
        -------
        numpy.ndarray or PackedHV
            The encoded records, bit-identical to
            :func:`repro.hdc.encoders.encode_keyvalue_records` with the
            same ``chunk_size`` and seed.
        """
        idx = self.indices(features)
        n = idx.shape[0]
        d = self.dim
        rng = self._tie_rng(seed)
        starts = list(range(0, n, self.chunk_size))
        chunks = [idx[s:s + self.chunk_size] for s in starts]
        if pool is None:
            pool = WorkerPool(workers=1)
        counts_per_chunk = pool.map(self.chunk_counts, chunks)

        if packed:
            out = np.empty((n, packed_width(d)), dtype=np.uint8)
        else:
            out = np.empty((n, d), dtype=np.uint8)
        # Threshold serially, in chunk order, sharing one RNG stream:
        # exactly the consumption pattern of the serial encoder.
        for start, counts in zip(starts, counts_per_chunk):
            encoded = majority_from_counts(
                counts, self.num_channels, tie_break=self.tie_break, seed=rng
            )
            stop = min(n, start + self.chunk_size)
            out[start:stop] = np.packbits(encoded, axis=-1) if packed else encoded
        return PackedHV(out, d) if packed else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEncoder(channels={self.num_channels}, "
            f"levels={len(self.embedding)}, dim={self.dim})"
        )
