"""A fixed reference computation that gauges how fast the host runs right now.

On a shared virtual machine the same code costs a different amount of
CPU time from one minute to the next: other guests on the same physical
cores and memory slow every instruction down (two to three times, on the
2-CPU hosts this benchmark was built on), and the guest kernel cannot
see it.  The benchmark therefore times a fixed piece of work of its own
in the gaps of every measured phase.  The work imitates what the program
under test does per row at d = 10,000: a JSON round trip of a request
body, a gather of 18 channel rows from bit-packed tables, a Hamming scan
against 15 class vectors, and a float decode table of 128 levels.  It
never imports the library, so a change to the library cannot move it.

Every CPU-time metric is multiplied by ``REFERENCE_MS`` over the median
of the samples taken during its phase: the cost the program would have
on a host where one sample takes ``REFERENCE_MS``.  The raw figures stay
in the report.
"""

from __future__ import annotations

import json
import time

#: Units of work per sample.
UNITS = 8
#: The nominal CPU time of one sample, milliseconds: the speed every
#: CPU-time metric is scaled to.  A quiet 2-CPU host of the kind the
#: benchmark was built on takes about this long; a busy one up to twice.
REFERENCE_MS = 10.0


class HostRef:
    """The reference work, with its data built once from a fixed seed."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20240901)
        self.np = np
        self.tables = rng.integers(0, 256, (18, 64, 1250), dtype=np.uint8)
        self.protos = rng.integers(0, 256, (15, 1250), dtype=np.uint8)
        self.popcount = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)
        self.levels = rng.integers(0, 2, (128, 10_000), dtype=np.uint8)
        self.vector = rng.standard_normal(10_000).astype(np.float32)
        self.body = {"features": rng.uniform(0.0, 6.28, 18).tolist()}
        self.channels = np.arange(18)
        # Preallocated, so that a sample times work and not page faults.
        self.decode = np.empty((128, 10_000), dtype=np.float32)
        self.scores = np.empty(128, dtype=np.float32)
        self.sample()  # warm-up

    def unit(self, k: int) -> int:
        np = self.np
        for _ in range(20):
            json.loads(json.dumps(self.body))
        rows = self.tables[self.channels, (self.channels * 7 + k) % 64]
        bundle = np.bitwise_xor.reduce(rows, axis=0)
        distances = self.popcount[np.bitwise_xor(self.protos, bundle)].sum(axis=1)
        np.copyto(self.decode, self.levels, casting="unsafe")
        self.decode *= 2.0
        self.decode -= 1.0
        np.dot(self.decode, self.vector, out=self.scores)
        return int(distances.argmin()) + int(self.scores.argmax())

    def sample(self) -> float:
        """CPU seconds of this thread for one sample of ``UNITS`` units."""
        start = time.thread_time()
        for k in range(UNITS):
            self.unit(k)
        return time.thread_time() - start
