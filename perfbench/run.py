"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload serve_bulk|train_file \\
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks every output against its reference, and prints two lines: a
``report {...}`` line (host and knob fingerprint, sample sizes, probes,
the span table when traced) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the workload is
measured untraced and then traced, and the metrics are the per-layer
ones plus the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common
import hostref
import serving
import spans
import training
from common import BenchError

#: ``(name, unit)`` of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cls_cpu_us_per_row", "us/row"),
    ("reg_cpu_us_per_row", "us/row"),
    ("rows_per_cpu_s", "rows/cpu-s"),
]

#: ``(name, unit)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("serve.server.overhead_ms", "ms"),
    ("serve.batching.rows_per_batch", "rows/batch"),
    ("serve.batching.queue_wait_ms", "ms"),
    ("serve.batching.rejected", "count"),
    ("serve.engine.predict_us_per_row", "us/row"),
    ("runtime.batch.encode_us_per_row", "us/row"),
    ("basis.indices_us_per_row", "us/value"),
    ("learning.classifier.predict_us_per_row", "us/row"),
    ("learning.regression.predict_us_per_row", "us/row"),
    ("hdc.kernels.busy_s", "s"),
    ("hdc.kernels.calls.xor", "count"),
    ("hdc.kernels.calls.xor-mt", "count"),
    ("hdc.kernels.calls.gemm", "count"),
    ("hdc.ingest.rows_per_s", "rows/s"),
    ("hdc.ingest.fused_frac", "ratio"),
    ("streaming.files.csv_rows_per_s", "rows/s"),
    ("streaming.files.npy_rows_per_s", "rows/s"),
    ("streaming.reduce.chunk_wait_ms", "ms"),
    ("serve.persist.save_ms", "ms"),
    ("serve.persist.load_ms", "ms"),
    ("serve.registry.swap_ms", "ms"),
    ("streaming.train.score_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

CLS, REG = "suturing", "mars_express"

#: The per-layer values read from the server's ``/metrics``, on a
#: workload that runs no server.
SERVER_IDLE = {
    "serve.server.overhead_ms": 0.0,
    "serve.batching.rows_per_batch": 0.0,
    "serve.batching.rejected": 0,
}


def scales(summary: dict) -> tuple[float, float]:
    """Reference speed over host speed, while setting up and while measuring."""
    return tuple(hostref.REFERENCE_MS / (1e3 * common.median(summary[key]))
                 for key in ("setup_ref_samples", "ref_samples"))


def end_to_end(summary: dict, setup_scale: float = 1.0, scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics of one measured phase, CPU times multiplied
    by the host's speed relative to the reference speed."""
    cpu = summary["cpu_us_per_row"]
    return {
        "setup_s": setup_scale * common.median(summary["setups"]),
        "ok_frac": 1.0 - summary["failed"] / summary["attempted"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "cls_cpu_us_per_row": scale * cpu[CLS],
        "reg_cpu_us_per_row": scale * cpu[REG],
        "rows_per_cpu_s": summary["rows_per_cpu_s"] / scale,
    }


def trace_overhead(base: dict, traced: dict) -> float:
    """Mean CPU cost added per row by tracing, over the two models."""
    ratios = [traced[k] / base[k] for k in ("cls_cpu_us_per_row", "reg_cpu_us_per_row")]
    return sum(ratios) / len(ratios) - 1.0


def _setup_wall_s(summary: dict) -> float:
    """Median wall-clock set-up time (reported, not gated)."""
    return common.median(summary["setups_wall"])


def _sample_report(summary: dict) -> dict:
    """Per model, the wall-clock figures (reported, not gated): the
    latency sample's size, median, and the highest percentile up to p99
    that it supports, with its value; rows per second; and how many
    CPU-time samples the ``*_cpu_us_per_row`` median is taken over."""
    return {m: {"n": s["n"], "p50_ms": s["p50"], "tail_percentile": s["tail_q"],
                "tail_ms": s["tail"], "p99_supported": s["p99_supported"],
                "rows_per_s": summary["rows_per_s"][m],
                "cpu_samples": summary["cpu_samples"][m]}
            for m, s in summary["latency_ms"].items()}


# -- workloads ----------------------------------------------------------------------

def serve_bulk(seed: int, seconds: float, trace: bool, probe) -> dict:
    workdir = common.make_workdir("serve_bulk")
    try:
        artifacts = serving.build_artifacts(workdir, seed)
        bodies = serving.bulk_bodies(seed)
        flat = {m: [row for body in bodies[m] for row in body.tolist()] for m in serving.MODELS}
        answers = serving.oracle(artifacts, flat)
        expected = {m: [answers[m][i * serving.BULK_ROWS:(i + 1) * serving.BULK_ROWS]
                        for i in range(len(bodies[m]))] for m in serving.MODELS}
        phases = [serving.bulk_phase(workdir, artifacts, bodies, expected, seconds, seed,
                                     probe)]
        if trace:
            phases.append(serving.bulk_phase(workdir, artifacts, bodies, expected, seconds,
                                             seed, probe,
                                             spans_out=workdir / "server.spans.json"))
        span_groups = [spans.load(workdir / "server.spans.json")] if trace else []
    finally:
        common.remove_workdir(workdir)
    extra = [{
        "setup_wall_s": _setup_wall_s(p),
        "stale_generations": p["stale_generations"],
        "peak_rss_mb_with_swaps": p["peak_rss_mb_with_swaps"],
        "samples": _sample_report(p),
        # Known defect, recorded and not gated: a body one row over
        # max_queue is refused with 429 "retry later" however idle the
        # model is, so no retry can succeed.
        "probe_oversized": p["probe_oversized"],
    } for p in phases]
    return {"phases": phases, "extra": extra, "spans": span_groups,
            "correct": all(p["mismatched"] == 0 and not p["stale_generations"]
                           for p in phases)}


def train_file(seed: int, seconds: float, trace: bool, probe) -> dict:
    workdir = common.make_workdir("train_file")
    try:
        inputs = training.write_inputs(workdir, seed)
        references: dict = {}
        results = [training.phase(workdir, inputs, seed, seconds, references, False, probe)]
        if trace:
            results.append(training.phase(workdir, inputs, seed, seconds, references, True,
                                          probe))
        span_groups = [spans.load(p) for r in results for p in r["span_files"]]
    finally:
        common.remove_workdir(workdir)
    phases = []
    extra = []
    for result in results:
        summary = training.summarise(result)
        phases.append(summary)
        extra.append({
            "setup_wall_s": _setup_wall_s(summary),
            "rounds": result["rounds"],
            "job_rows_per_s": summary["job_rows_per_s"],
            "samples": _sample_report(summary),
            # Known defect, recorded and not gated: --input still scores
            # against the task's synthetic held-out stream.
            "held_out_as_recorded": summary["held_out"],
        })
    return {"phases": phases, "extra": extra, "spans": span_groups,
            "correct": all(p["mismatched"] == 0 for p in phases)}


WORKLOADS = {"serve_bulk": serve_bulk, "train_file": train_file}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(report, result)``."""
    common.require_source_tree()
    common.refuse_repro_env()
    ticks = common.cpu_ticks()
    outcome = WORKLOADS[workload](seed, seconds, trace, hostref.HostRef().sample)
    phases = outcome["phases"]
    metrics_by_phase = [end_to_end(p, *scales(p)) for p in phases]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host_steal_share": common.steal_share(ticks, common.cpu_ticks()),
        "host_ref_ms": [{"setup": 1e3 * common.median(p["setup_ref_samples"]),
                         "measure": 1e3 * common.median(p["ref_samples"])} for p in phases],
        **common.fingerprint(),
        "end_to_end": metrics_by_phase[0],
        "end_to_end_unscaled": end_to_end(phases[0]),
        "cpu_us_samples": phases[0]["cpu_us_samples"],
        "ref_ms_samples": [1e3 * x for x in phases[0]["ref_samples"]],
        "phases": outcome["extra"],
    }
    if trace:
        groups = outcome["spans"]
        missing = spans.missing_layers(workload, spans.aggregate(groups))
        if missing:
            raise BenchError(
                f"span wrappers never fired on {workload}: {', '.join(missing)} "
                "(a layer moved; update perfbench/spans.py)"
            )
        layers = {**SERVER_IDLE, **spans.layer_metrics(groups), **phases[1].get("layers", {})}
        layers["trace.overhead_frac"] = trace_overhead(metrics_by_phase[0],
                                                       metrics_by_phase[1])
        report["end_to_end_traced"] = metrics_by_phase[1]
        report["spans"] = spans.span_table(groups)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": metrics_by_phase[0][name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Turn SIGTERM into SystemExit so the cleanup in each workload stops
    # the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
