"""Self-tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import common
import run
import serving
import spans
import training

ROOT = Path(__file__).resolve().parent.parent


# -- percentile with sample count ------------------------------------------------------

def test_p99_needs_a_thousand_samples():
    assert common.supported_tail(1000) == 99.0
    assert common.beyond(1000, 99.0) == 10
    assert common.supported_tail(999) < 99.0


@pytest.mark.parametrize("n", [21, 37, 90, 200, 513, 999, 1000, 4321])
def test_supported_tail_keeps_ten_samples_beyond(n):
    q = common.supported_tail(n)
    assert common.beyond(n, q) >= common.TAIL_SUPPORT
    if q < common.TAIL_TARGET:
        # nothing higher is supported
        assert common.beyond(n, q + 100.0 / n) < common.TAIL_SUPPORT


def test_small_samples_support_no_tail():
    assert common.supported_tail(20) is None
    summary = common.latency_summary([1.0, 2.0, 3.0])
    assert summary["tail_q"] is None and summary["tail"] == summary["p50"] == 2.0


def test_tail_falls_back_to_the_highest_supported_percentile():
    summary = common.latency_summary([float(i) for i in range(240)])
    assert summary["tail_q"] == pytest.approx(100.0 * 230 / 240)
    assert not summary["p99_supported"]
    assert common.latency_summary([1.0] * 1000)["p99_supported"]


def test_steal_share_reads_the_eighth_column():
    assert common.steal_share([0] * 8, [10, 0, 0, 70, 0, 0, 0, 20]) == pytest.approx(0.2)
    assert len(common.cpu_ticks()) == 8


def test_process_cpu_clock_counts_work_not_sleep():
    import subprocess
    import sys
    import time

    child = subprocess.Popen([sys.executable, "-c", (
        "import sys, time\n"
        "print('ready', flush=True)\n"
        "sys.stdin.readline(); time.sleep(0.3)\n"
        "t = time.perf_counter()\n"
        "while time.perf_counter() - t < 0.3: pass\n"
        "sys.stdin.readline()\n")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "ready\n"
        before = common.process_cpu_s(child.pid)
        child.stdin.write("\n")
        child.stdin.flush()
        time.sleep(0.25)
        slept = common.process_cpu_s(child.pid) - before
        time.sleep(0.6)
        busy = common.process_cpu_s(child.pid) - before - slept
        assert slept < 0.1 and 0.2 < busy < 0.45
        assert common.tree_cpu_s(child.pid, [2 ** 22 + 7]) >= busy  # a gone child is skipped
        assert common.descendants(child.pid) == []
    finally:
        child.stdin.write("\n")
        child.stdin.close()
        child.wait(timeout=10)
        child.stdout.close()


def test_host_reference_stands_apart_from_the_library():
    import subprocess
    import sys

    code = ("import sys, hostref\n"
            "gauge = hostref.HostRef()\n"
            "samples = [gauge.sample() for _ in range(3)]\n"
            "assert all(s > 0 for s in samples), samples\n"
            "assert not any(m == 'repro' or m.startswith('repro.') for m in sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], cwd=common.HERE, check=True, timeout=120)


def test_blas_pool_is_pinned_for_children():
    env = common.child_env()
    assert all(env[name] == "1" for name in common.BLAS_THREADS)


def test_percentile_matches_numpy():
    values = np.random.default_rng(0).exponential(size=257)
    for q in (0.0, 12.5, 50.0, 96.1, 99.0, 100.0):
        assert common.percentile(values.tolist(), q) == pytest.approx(np.percentile(values, q))


# -- seeded schedules --------------------------------------------------------------------

PATHS = {m: (Path(f"/models/{m}.npz"), Path(f"/models/{m}-copy.npz")) for m in serving.MODELS}


def test_swap_plan_alternates_copy_and_original():
    plan = serving.swap_plan(20, PATHS)
    assert sorted(plan) == [5, 10, 15]
    for k, at in enumerate(sorted(plan)):
        assert plan[at] == [(m, str(PATHS[m][0 if k % 2 else 1])) for m in serving.MODELS]
    # a short run still swaps, never before the first or after the last segment
    assert set(serving.swap_plan(2, PATHS)) == {1}


def test_bulk_bodies_are_byte_identical_per_seed():
    a = serving.bulk_bodies(3)
    b = serving.bulk_bodies(3)
    for m in serving.MODELS:
        assert len(a[m]) == serving.BULK_BODIES
        assert all(x.shape == (serving.BULK_ROWS, serving.WIDTHS[m]) for x in a[m])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a[m], b[m]))


def test_segments_alternate_models_evenly():
    for seconds in (0.3, 1.0, 6.0, 20.0, 21.0):
        count = serving.segment_count(seconds)
        assert count % len(serving.MODELS) == 0 and count >= len(serving.MODELS)
    assert serving.segment_count(20.0) * serving.SEGMENT_S == pytest.approx(20.0)


# -- CPU per row --------------------------------------------------------------------------------

def _job(launched, stamps, cpu, rows, end, end_cpu):
    return {"launched": launched, "chunk_stamps": stamps, "chunk_cpu": cpu,
            "chunk_rows": rows, "rows": rows[-1], "end": end, "end_cpu": end_cpu,
            "peak_rss_mb": 100.0, "matches_monolithic": True, "held_out": {}}


def test_training_cpu_per_row_and_pooled_rate():
    jobs = {
        training.CLS: [_job(0.0, [1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 5.5],
                            [100, 200, 300, 400], 5.0, 6.0)],
        training.REG: [_job(10.0, [10.5, 11.0, 11.5], [0.2, 0.3, 0.4],
                            [1000, 2000, 3000], 12.0, 0.5)],
    }
    out = training.summarise({"jobs": jobs, "ref_samples": [0.01, 0.03]})
    # chunk CPU per row: cls 10000, 10000, 30000 us; reg 100, 100 us
    assert out["cpu_us_per_row"] == pytest.approx({training.CLS: 1e4, training.REG: 100.0})
    # rows after each job's first chunk over CPU after it: (300 + 2000) / (5.5 + 0.3)
    assert out["rows_per_cpu_s"] == pytest.approx(2300 / 5.8)
    assert out["setups"] == pytest.approx([0.5, 0.2])  # CPU at the first chunk
    assert out["setups_wall"] == pytest.approx([1.0, 0.5])
    assert out["rows_per_s"][training.CLS] == pytest.approx(400 / 4.0)
    # the host reference took 20 ms: half the reference speed's 10 ms
    assert run.scales(out) == pytest.approx((0.5, 0.5))
    assert run.end_to_end(out, *run.scales(out))["cls_cpu_us_per_row"] == pytest.approx(5e3)


# -- span arithmetic ------------------------------------------------------------------------

def _span(i, parent, name, start, end, rows=0, tag=None, thread=1):
    return [i, parent, name, thread, start, end, rows, tag]


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0.0, 10.0, [(1, 3), (2, 4), (8, 12), (-2, 0.5)]) == pytest.approx(5.5)
    assert spans.covered(0.0, 1.0, []) == 0.0


def test_self_time_subtracts_children_once():
    group = [
        _span(0, None, "outer", 0.0, 10.0),
        _span(1, 0, "mid", 1.0, 5.0),
        _span(2, 1, "leaf", 2.0, 3.0),
        _span(3, 0, "mid", 4.0, 6.0),  # overlaps the first child
        _span(4, None, "other", 0.0, 1.0),
    ]
    own = spans.self_times(group)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(4.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    agg = spans.aggregate([group])
    assert agg["mid"]["calls"] == 2
    assert agg["mid"]["total_s"] == pytest.approx(6.0)
    assert agg["mid"]["self_s"] == pytest.approx(5.0)


def test_ids_are_per_process():
    a = [_span(0, None, "x", 0.0, 2.0), _span(1, 0, "y", 0.5, 1.0)]
    b = [_span(0, None, "x", 0.0, 3.0)]
    agg = spans.aggregate([a, b])
    assert agg["x"]["self_s"] == pytest.approx(1.5 + 3.0)


def test_gaps_and_queue_wait():
    group = [
        _span(0, None, "hdc.ingest.ingest_chunk", 0.0, 1.0, rows=10, tag="fused"),
        _span(1, None, "hdc.ingest.ingest_chunk", 1.5, 2.0, rows=10, tag="declined"),
        _span(2, None, "hdc.ingest.ingest_chunk", 3.0, 4.0, rows=10, tag="fused"),
        # two submits answered by one 2-row batch that computed for 1 s
        _span(3, None, "serve.batching.submit", 10.0, 13.0, rows=1),
        _span(4, None, "serve.batching.submit", 10.5, 13.0, rows=1),
        _span(5, None, "serve.engine.predict_coalesced", 11.8, 12.8, rows=2, thread=2),
    ]
    assert spans.gaps(group, "hdc.ingest.ingest_chunk") == pytest.approx([0.5, 1.0])
    layers = spans.layer_metrics([group])
    assert layers["streaming.reduce.chunk_wait_ms"] == pytest.approx(750.0)
    assert layers["hdc.ingest.fused_frac"] == pytest.approx(2 / 3)
    assert layers["hdc.ingest.rows_per_s"] == pytest.approx(20 / 2.0)
    assert layers["serve.batching.queue_wait_ms"] == pytest.approx(1e3 * (5.5 - 2.0) / 2)
    assert layers["serve.engine.predict_us_per_row"] == pytest.approx(0.5e6)


def test_recorder_links_parents_per_thread():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    loose = rec.open("async", stacked=False)
    rec.close(loose, stacked=False)
    rec.close(outer)
    by_name = {s[spans.NAME]: s for s in rec.spans}
    assert by_name["inner"][spans.PARENT] == outer[spans.ID]
    assert by_name["outer"][spans.PARENT] is None
    assert by_name["async"][spans.PARENT] is None
    held = rec.open("held")
    seen = {}
    worker = threading.Thread(target=lambda: seen.update(span=rec.open("elsewhere")))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert seen["span"][spans.PARENT] is None  # another thread's stack
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(held)  # out of order


# -- wrappers fire on the paths each workload drives ------------------------------------------

@pytest.fixture
def recorder():
    rec = spans.SpanRecorder()
    patched = spans.install(rec)
    try:
        yield rec
    finally:
        spans.uninstall(patched)


def _fired(rec):
    return spans.aggregate([rec.spans])


def test_wrappers_fire_on_the_serving_path(recorder, tmp_path):
    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.experiments.serving import train_pipeline
    from repro.serve import ModelRegistry, ServerThread, save_model

    paths = {
        serving.CLS: save_model(train_pipeline(serving.CLS, config=ClassificationConfig(dim=256, seed=1)),
                                tmp_path / "cls.npz"),
        serving.REG: save_model(train_pipeline(serving.REG, config=RegressionConfig(dim=256, seed=1)),
                                tmp_path / "reg.npz"),
    }
    registry = ModelRegistry()
    for name, path in paths.items():
        registry.register(name, path)
    with ServerThread(registry, own_registry=True) as server:
        for name, width in ((serving.CLS, 18), (serving.REG, 1)):
            assert server.request("POST", f"/v1/models/{name}:predict",
                                  {"features": [0.5] * width})[0] == 200
            assert server.request("POST", f"/v1/models/{name}:predict",
                                  {"records": [[0.5] * width] * 40})[0] == 200
            assert server.request("POST", f"/v1/models/{name}:swap",
                                  {"path": str(paths[name])})[0] == 200
    fired = _fired(recorder)
    assert spans.missing_layers("serve_bulk", fired) == []
    assert fired["hdc.kernels"]["tags"]


def test_wrappers_fire_on_the_training_path(recorder, tmp_path):
    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.streaming.train import train_pipeline_stream

    rng = np.random.default_rng(0)
    csv_path = tmp_path / "rows.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"a{i}" for i in range(18)) + ",target\n")
        for i in range(300):
            fh.write(",".join(map(repr, rng.uniform(0, 6.28, 18).tolist())) + f",{i % 15}\n")
    npy_path = tmp_path / "rows.npy"
    np.save(npy_path, rng.uniform(0, 6.28, (300, 1)))
    np.save(tmp_path / "rows.targets.npy", rng.uniform(0, 400, 300))
    train_pipeline_stream(serving.CLS, config=ClassificationConfig(dim=256, seed=1),
                          input_path=csv_path, checkpoint=tmp_path / "c.npz", chunk_size=64)
    train_pipeline_stream(serving.REG, config=RegressionConfig(dim=256, seed=1),
                          input_path=npy_path, checkpoint=tmp_path / "r.npz", chunk_size=64)
    fired = _fired(recorder)
    assert spans.missing_layers("train_file", fired) == []
    assert fired["hdc.ingest.ingest_chunk"]["tags"]["fused"] > 0


def test_missing_layer_is_reported():
    assert "serve.registry.swap" in spans.missing_layers("serve_bulk", {})


def test_kernel_backend_follows_the_public_dispatch():
    from repro.hdc.packed import PackedHV

    one = PackedHV(np.zeros((1, 1250), dtype=np.uint8), 10_000)
    many = PackedHV(np.zeros((64, 1250), dtype=np.uint8), 10_000)
    assert spans.kernel_backend(one, many) == "xor"
    assert spans.kernel_backend(many, many) == "gemm"
    assert spans.kernel_backend(one, many, backend="xor-mt") == "xor-mt"


# -- the benchmark's declared metrics -----------------------------------------------------

def test_run_lists_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)


def test_every_per_layer_metric_has_a_source():
    produced = set(spans.layer_metrics([[]])) | set(run.SERVER_IDLE) | {"trace.overhead_frac"}
    assert produced == {name for name, _ in run.PER_LAYER}


def test_repro_environment_is_refused():
    with pytest.raises(common.BenchError, match="REPRO_CALIBRATION"):
        common.refuse_repro_env({"REPRO_CALIBRATION": "x.json", "HOME": "/"})
    common.refuse_repro_env({"HOME": "/"})
