"""One file-fed training job, run in its own process.

Usage: ``python3 perfbench/trainjob.py TASK INPUT CHECKPOINT SEED OUT.json [SPANS.json]``

Trains ``TASK`` (``suturing`` or ``mars_express``) from ``INPUT`` through
``train_pipeline_stream(input_path=..., checkpoint=...)`` — the ``train
--stream --input`` path — and writes what it observed to ``OUT.json``:
the ``time.monotonic()`` stamp, the process CPU time and the rows so far
at every absorbed chunk (the ``on_chunk`` seam), the same at return, the
held-out metric as recorded, and the process's peak RSS.  With ``SPANS.json`` the layer spans are recorded
and written there.
"""

from __future__ import annotations

import json
import os
import sys
import time

import common


def main(argv: list[str]) -> int:
    if len(argv) not in (5, 6):
        print(__doc__, file=sys.stderr)
        return 2
    task, input_path, checkpoint, seed, out = argv[:5]
    recorder = None
    if len(argv) == 6:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.streaming.train import train_pipeline_stream

    config = (RegressionConfig if task == "mars_express" else ClassificationConfig)(
        seed=int(seed)
    )
    stamps: list[float] = []
    cpu: list[float] = []
    rows: list[int] = []

    def on_chunk(stats) -> None:
        stamps.append(time.monotonic())
        cpu.append(time.process_time())
        rows.append(stats.rows)

    pipeline, stats = train_pipeline_stream(
        task, "circular", config=config, input_path=input_path,
        checkpoint=checkpoint, on_chunk=on_chunk,
    )
    end = time.monotonic()
    end_cpu = time.process_time()
    meta = pipeline.metadata
    report = {
        "chunk_stamps": stamps,
        "chunk_cpu": cpu,
        "chunk_rows": rows,
        "end": end,
        "end_cpu": end_cpu,
        "rows": stats.rows,
        "chunks": stats.chunks,
        "held_out": {k: meta[k] for k in ("test_accuracy", "test_mse", "num_test") if k in meta},
        "peak_rss_mb": common.peak_rss_mb(os.getpid()),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    if recorder is not None:
        recorder.dump(argv[5])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
