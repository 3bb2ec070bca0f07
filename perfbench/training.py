"""The ``train_file`` workload: file-fed streaming training of both models.

The benchmark writes seeded inputs (untimed): suturing rows as a CSV
file, mars_express rows as ``.npy`` + ``.targets.npy``.  Each file is then
trained by a separate ``trainjob.py`` process through
``train_pipeline_stream(input_path=..., checkpoint=...)``, alternating
the two jobs until the run's seconds are spent.  Every checkpoint must
equal, byte for byte, a monolithic ``fit`` of the same file rows.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import common
from common import BenchError

CLS = "suturing"
REG = "mars_express"
TASKS = (CLS, REG)

#: 15 gestures x 2000 = 30,000 suturing rows.
CLS_SAMPLES_PER_GESTURE = 2000
#: Mars Express samples generated; the train part keeps ~70%, ~120k rows.
#: The monolithic reference fit holds every encoded row at once (about
#: 3.8 KB per row at d = 10,000), so this size bounds its memory.
REG_SAMPLES = 171_500
#: Host-reference samples timed before each job.
REF_SAMPLES_PER_JOB = 4
#: Seconds a job may take before the run is abandoned.
JOB_TIMEOUT_S = 150.0


def write_inputs(workdir: Path, seed: int) -> dict[str, Path]:
    import numpy as np

    from repro.streaming import JigsawsStream, MarsExpressStream

    x, y = JigsawsStream(CLS, part="train", seed=np.random.SeedSequence([seed, 1]),
                         samples_per_gesture=CLS_SAMPLES_PER_GESTURE,
                         chunk_size=4096).materialize()
    cls_path = workdir / "suturing.csv"
    with open(cls_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"angle{i}" for i in range(x.shape[1])] + ["target"]) + "\n")
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    xr, yr = MarsExpressStream(part="train", num_samples=REG_SAMPLES,
                               seed=np.random.SeedSequence([seed, 2]),
                               chunk_size=8192).materialize()
    reg_path = workdir / "mars_express.npy"
    np.save(reg_path, np.ascontiguousarray(xr, dtype=np.float64))
    np.save(workdir / "mars_express.targets.npy", np.asarray(yr, dtype=np.float64))
    return {CLS: cls_path, REG: reg_path}


def saved_arrays(model, path: Path) -> dict[str, bytes]:
    """Every array ``save_model`` writes for ``model`` (manifest included)."""
    import numpy as np

    from repro.serve import save_model

    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].tobytes() for key in archive.files}


def monolithic(task: str, input_path: Path, checkpoint: Path, seed: int, scratch: Path):
    """One ``fit`` over every row of the file, as the persisted model's arrays.

    The encoder tables come from the streamed checkpoint (they are not
    trained state); the tie-break stream is the fourth child of the
    config seed, the seeding ``train_pipeline_stream`` documents.
    """
    import numpy as np

    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.learning import CentroidClassifier, HDRegressor
    from repro.runtime import BatchEncoder
    from repro.serve import load_model
    from repro.streaming import stream_encode

    streamed = load_model(checkpoint)
    if task == CLS:
        config = ClassificationConfig(seed=seed)
        with open(input_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            table = np.asarray([[float(v) for v in row] for row in reader])
        encoder = BatchEncoder(streamed.keys, streamed.embedding, tie_break="zeros")
        model = CentroidClassifier(
            config.dim, seed=np.random.default_rng(config.seed).spawn(4)[3])
        model.fit(stream_encode(encoder, table[:, :-1], seed=0), table[:, -1].tolist())
    else:
        config = RegressionConfig(seed=seed)
        x = np.load(input_path)
        y = np.load(input_path.with_name(input_path.stem + ".targets.npy"))
        model = HDRegressor(
            streamed.model.label_embedding,
            seed=np.random.default_rng(config.seed).spawn(4)[3],
            decode=config.decode, model=config.model,
        )
        model.fit(streamed.embedding.encode_packed(x[:, 0]), y)
    # The streamed run's final checkpoint save materialised the model
    # once; do the same before comparing what a save persists.
    saved_arrays(model, scratch)
    return saved_arrays(model, scratch)


def run_job(workdir: Path, task: str, input_path: Path, seed: int,
            spans_out: Path | None) -> dict:
    """Launch one training job and wait for it; returns its report plus
    the launch stamp (``setup`` = first chunk absorbed - launch)."""
    out = workdir / f"{task}.job.json"
    checkpoint = workdir / f"{task}.ckpt.npz"
    cmd = [sys.executable, str(common.HERE / "trainjob.py"), task, str(input_path),
           str(checkpoint), str(seed), str(out)]
    if spans_out is not None:
        cmd.append(str(spans_out))
    with open(workdir / f"{task}.job.log", "ab") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=common.child_env(),
                                cwd=common.ROOT)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{task} job exceeded {JOB_TIMEOUT_S}s") from None
    if code != 0:
        raise BenchError(f"{task} job exited {code}; see {workdir / f'{task}.job.log'}")
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    report["launched"] = launched
    report["checkpoint"] = checkpoint
    return report


def phase(workdir: Path, inputs: dict, seed: int, seconds: float,
          references: dict, traced: bool, probe) -> dict:
    """Alternate the two jobs until they have run for ``seconds`` (at
    least one round); check every checkpoint against the monolithic
    reference, outside the jobs' time.  Before each job ``probe`` times
    ``REF_SAMPLES_PER_JOB`` samples of the host reference."""
    from repro.serve import load_model

    jobs = {t: [] for t in TASKS}
    ref_samples = []
    span_files = []
    round_index = 0
    busy = 0.0
    while round_index == 0 or busy < seconds:
        for task in TASKS:
            spans_out = None
            if traced:
                spans_out = workdir / f"{task}.{round_index}.spans.json"
                span_files.append(spans_out)
            ref_samples += [probe() for _ in range(REF_SAMPLES_PER_JOB)]
            report = run_job(workdir, task, inputs[task], seed, spans_out)
            busy += report["end"] - report["launched"]
            if task not in references:
                references[task] = monolithic(task, inputs[task], report["checkpoint"],
                                              seed, workdir / "mono.npz")
            got = saved_arrays(load_model(report["checkpoint"]).model,
                               workdir / "streamed.npz")
            report["matches_monolithic"] = got == references[task]
            jobs[task].append(report)
        round_index += 1
    return {"jobs": jobs, "span_files": span_files, "rounds": round_index,
            "ref_samples": ref_samples}


def summarise(result: dict) -> dict:
    """Metrics of one phase.  Set-up runs from a job's launch to its first
    absorbed chunk, the rest from there to its return; the CPU figures
    are the job process's own."""
    jobs = result["jobs"]
    out = {"setups": [], "setups_wall": [], "rows_per_s": {}, "latency_ms": {},
           "cpu_us_per_row": {}, "cpu_samples": {}, "job_rows_per_s": {}}
    all_rows = all_cpu = 0.0
    for task in TASKS:
        rows = busy = 0.0
        intervals = []
        chunk_cpu = []
        for job in jobs[task]:
            stamps, cpu, done = job["chunk_stamps"], job["chunk_cpu"], job["chunk_rows"]
            out["setups"].append(cpu[0])
            out["setups_wall"].append(stamps[0] - job["launched"])
            rows += job["rows"]
            busy += job["end"] - stamps[0]
            intervals += [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
            chunk_cpu += [1e6 * (c1 - c0) / (r1 - r0)
                          for c0, c1, r0, r1 in zip(cpu, cpu[1:], done, done[1:])]
            all_rows += job["rows"] - done[0]
            all_cpu += job["end_cpu"] - cpu[0]
        out["rows_per_s"][task] = rows / busy
        out["job_rows_per_s"][task] = [
            job["rows"] / (job["end"] - job["chunk_stamps"][0]) for job in jobs[task]]
        out["latency_ms"][task] = common.latency_summary(intervals)
        out["cpu_us_per_row"][task] = common.median(chunk_cpu)
        out["cpu_samples"][task] = len(chunk_cpu)
        out.setdefault("cpu_us_samples", {})[task] = chunk_cpu
    out["rows_per_cpu_s"] = all_rows / all_cpu
    out["ref_samples"] = out["setup_ref_samples"] = result["ref_samples"]
    out["peak_rss_mb"] = common.median(
        [max(c["peak_rss_mb"], r["peak_rss_mb"]) for c, r in zip(jobs[CLS], jobs[REG])])
    out["attempted"] = sum(len(v) for v in jobs.values())
    out["failed"] = 0  # a job that fails aborts the run
    out["mismatched"] = sum(not j["matches_monolithic"] for v in jobs.values() for j in v)
    out["held_out"] = {t: jobs[t][-1]["held_out"] for t in TASKS}
    return out
