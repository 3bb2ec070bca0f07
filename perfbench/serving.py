"""The serving workload: closed-loop bulk scoring over HTTP.

It drives a ``serve-http`` subprocess (``python -m repro.experiments
serve-http``) serving the suturing classifier and the mars_express
regressor at d = 10,000, from one asyncio thread of this process over
at most ``nproc`` (and at most two) keep-alive connections.  Every
answer is checked against ``oracle_transcript``: the same records
answered one at a time, in this process, through ``predict_one``.

The run is cut into single-model segments, so that the server's CPU
time over a segment belongs to one model; both models are hot-swapped to
byte-identical copies of their artifacts between segments.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common
from common import BenchError

CLS = "suturing"
REG = "mars_express"
MODELS = (CLS, REG)

#: Segments after which both models are hot-swapped (to the copy of
#: their artifact, then back), as fractions of the run.
SWAP_POINTS = (0.25, 0.5, 0.75)
#: Rows per ``records`` body on ``serve_bulk``; two clients keep at most
#: 2 x 128 rows in flight, the default ``max_queue``.
BULK_ROWS = 128
#: Length of one single-model segment, seconds: the clients send one
#: model's bodies for a segment, wait for the last answers, and move to
#: the other model.
SEGMENT_S = 1.0
#: Distinct bodies per model that the bulk clients cycle through.  The
#: server keeps no result cache, so repeating a body costs it the same
#: as a new one; a small pool keeps the sequential oracle affordable.
BULK_BODIES = 8
#: Launches per run whose ready time is measured (``setup_s`` is the median).
SETUP_LAUNCHES = 5
#: Oversized ``records`` bodies (max_queue + 1 rows) sent after the timed
#: phase of ``serve_bulk`` as a known-defect probe.
PROBE_BODIES = 2
#: Untimed bodies per model before each measured phase.
WARMUP_BODIES = 2


def connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


# -- inputs ------------------------------------------------------------------------

def build_artifacts(workdir: Path, seed: int) -> dict[str, tuple[Path, Path]]:
    """Train both servable models (the ``train`` CLI's path) at d = 10,000;
    return ``name -> (artifact, byte-identical copy)``."""
    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.experiments.serving import train_pipeline
    from repro.serve import save_model

    configs = {
        CLS: ClassificationConfig(seed=seed),
        REG: RegressionConfig(seed=seed),
    }
    out = {}
    for name, config in configs.items():
        path = save_model(train_pipeline(name, "circular", config=config),
                          workdir / f"{name}.npz")
        copy = workdir / f"{name}-copy.npz"
        shutil.copyfile(path, copy)
        if path.read_bytes() != copy.read_bytes():
            raise BenchError(f"artifact copy of {name} differs")
        out[name] = (path, copy)
    return out


#: Record widths: both tasks take angles, 18 per suturing record (one per
#: kinematic channel) and one per mars_express record (the orbit anomaly).
WIDTHS = {CLS: 18, REG: 1}


def records(rng, model: str, count: int):
    """``count`` records for ``model``, angles uniform in [0, 2 pi)."""
    return rng.uniform(0.0, 2.0 * math.pi, (count, WIDTHS[model]))


def bulk_bodies(seed: int) -> dict[str, list]:
    """``BULK_BODIES`` seeded ``records`` bodies per model, as row arrays."""
    import numpy as np

    rng = np.random.default_rng([seed, 202])
    return {m: [records(rng, m, BULK_ROWS) for _ in range(BULK_BODIES)] for m in MODELS}


def swap_plan(segments: int, paths: dict) -> dict[int, list[tuple[str, str]]]:
    """Segment index -> the ``(model, artifact path)`` swaps made before
    it: both models, at each of ``SWAP_POINTS``, alternately to the copy
    and the original."""
    plan = {}
    for k, point in enumerate(SWAP_POINTS):
        at = max(1, min(segments - 1, round(point * segments)))
        plan[at] = [(name, str(paths[name][0 if k % 2 else 1])) for name in MODELS]
    return plan


# -- the server under test ---------------------------------------------------------

class Server:
    """A ``serve-http`` subprocess; ``spans_out`` runs it traced."""

    def __init__(self, workdir: Path, artifacts: dict, spans_out: Path | None = None):
        self.workdir = workdir
        self.artifacts = artifacts
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        #: Worker processes of the server (``proc_workers`` above 1),
        #: whose CPU time counts as the server's.
        self.children: list[int] = []

    def command(self) -> list[str]:
        args = ["serve-http", "--port", "0"]
        for name in MODELS:
            args += ["--model", f"{name}={self.artifacts[name][0]}"]
        if self.spans_out is None:
            return [sys.executable, "-m", "repro.experiments", *args]
        return [sys.executable, str(common.HERE / "traced.py"), str(self.spans_out), *args]

    def start(self, timeout: float = 60.0) -> tuple[float, float]:
        """Launch; return the wall seconds from launch until every model has
        answered, and the CPU seconds the server used until then."""
        log = open(self.workdir / "server.log", "ab")
        clock = common.Stopwatch()
        try:
            self.proc = subprocess.Popen(
                self.command(), stdout=subprocess.PIPE, stderr=log,
                env=common.child_env(), cwd=common.ROOT,
            )
        finally:
            log.close()
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, timeout - clock()))
            if not ready or self.proc.poll() is not None:
                raise BenchError(f"serve-http did not start; see {self.workdir / 'server.log'}")
            byte = os.read(self.proc.stdout.fileno(), 1)
            if not byte:
                raise BenchError("serve-http closed its stdout before binding")
            line += byte
        self.port = int(line.decode().strip().rsplit(":", 1)[1])
        for name, width in ((CLS, 18), (REG, 1)):
            status, body = self.request("POST", f"/v1/models/{name}:predict",
                                        {"features": [0.5] * width})
            if status != 200:
                raise BenchError(f"{name} did not answer at start-up: {status} {body!r}")
        wall = clock()
        self.find_children()
        return wall, self.cpu_s()

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` samples summed over models: ``family -> value``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        out: dict[str, float] = {}
        for line in body.decode().splitlines():
            if not line or line.startswith("#") or "_bucket{" in line:
                continue
            family, value = line.split("{", 1)[0], line.rsplit(" ", 1)[1]
            out[family] = out.get(family, 0.0) + float(value)
        return out

    def wait_idle(self, timeout: float = 30.0) -> None:
        """Block until every admitted request has been answered."""
        clock = common.Stopwatch()
        while clock() < timeout:
            m = self.metrics()
            if m["repro_serve_request_latency_seconds_count"] >= m["repro_serve_requests_total"]:
                return
            time.sleep(0.01)
        raise BenchError("server still busy after the timed phase")

    def generations(self) -> dict[str, int]:
        status, body = self.request("GET", "/v1/models")
        if status != 200:
            raise BenchError(f"/v1/models answered {status}")
        return {n: m["generation"] for n, m in json.loads(body)["models"].items()}

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def find_children(self) -> None:
        self.children = common.descendants(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU seconds the server (and its worker processes) have used."""
        return common.tree_cpu_s(self.proc.pid, self.children)

    def stop(self) -> None:
        if self.proc is not None:
            common.stop_process(self.proc)
            self.proc.stdout.close()
            self.proc = None


# -- the load generator ------------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
             f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
             ).encode("latin-1") + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            raw = await self.reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Outcome:
    status: int | None
    payload: bytes
    sent: float
    done: float


async def _predict(conn: Connection, port: int, model: str,
                   body: bytes) -> tuple[Connection, int | None, bytes]:
    """One predict request; on a broken connection, a fresh one and no status."""
    try:
        status, payload = await conn.request("POST", f"/v1/models/{model}:predict", body)
        return conn, status, payload
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        await conn.close()
        return await Connection.open(port), None, repr(exc).encode()


def segment_count(seconds: float) -> int:
    """Single-model segments in a run: an even number, at least one per
    model, each about ``SEGMENT_S`` long."""
    return max(1, round(seconds / (len(MODELS) * SEGMENT_S))) * len(MODELS)


async def closed_loop(port: int, bodies: dict, seconds: float, clients: int, seed: int,
                      cpu, between) -> tuple[list[tuple], list[dict], float]:
    """``clients`` callers, each sending its next body when the last returns;
    ``bodies[model]`` holds ``(rows, encoded body)`` pairs.

    The run is cut into ``segment_count`` equal segments that alternate
    the models.  In a segment every client sends that model's bodies on a
    connection of its own; at its end each finishes the body it has in
    flight, and the server's CPU time over the segment (``cpu`` returns
    it) is the model's.  ``between(k)`` runs before segment ``k`` and
    after the last one, while nothing is in flight.
    """
    import numpy as np

    loop = asyncio.get_running_loop()
    rngs = [np.random.default_rng([seed, 303, c]) for c in range(clients)]
    count = segment_count(seconds)
    done: list[tuple] = []
    segments: list[dict] = []

    async def client(conn: Connection, c: int, model: str, until: float) -> int:
        rows = 0
        while loop.time() < until:
            index = int(rngs[c].integers(len(bodies[model])))
            sent = loop.time()
            conn, status, payload = await _predict(conn, port, model, bodies[model][index][1])
            done.append((model, index, Outcome(status, payload, sent, loop.time())))
            rows += len(bodies[model][index][0]) if status == 200 else 0
        await conn.close()
        return rows

    start = loop.time()
    for k in range(count):
        model = MODELS[k % len(MODELS)]
        between(k)
        conns = [await Connection.open(port) for _ in range(clients)]
        cpu0 = cpu()
        rows = await asyncio.gather(*(client(conn, c, model, start + seconds * (k + 1) / count)
                                      for c, conn in enumerate(conns)))
        segments.append({"model": model, "rows": sum(rows), "cpu_s": cpu() - cpu0})
    between(count)
    return done, segments, start


# -- oracle ---------------------------------------------------------------------------

def oracle(artifacts: dict, rows_by_model: dict) -> dict[str, list]:
    """Sequential ``predict_one`` answers for every row, per model."""
    from repro.serve import InferenceEngine
    from repro.serve.replay import TraceRequest, oracle_transcript

    out = {}
    for name, rows in rows_by_model.items():
        trace = [TraceRequest(i, 0.0, name, tuple(row)) for i, row in enumerate(rows)]
        # predict_one never uses a worker-process pool; do not start one.
        with InferenceEngine.from_path(artifacts[name][0], proc_workers=1) as engine:
            out[name] = oracle_transcript(trace, {name: engine})
    return out


# -- phases --------------------------------------------------------------------------

def _warm_up(server: Server) -> None:
    """A few untimed bodies of the workload's own shape, per model."""
    import numpy as np

    rng = np.random.default_rng(0)
    for name in MODELS:
        for _ in range(WARMUP_BODIES):
            server.request("POST", f"/v1/models/{name}:predict",
                           {"records": records(rng, name, BULK_ROWS).tolist()})


def _server_overhead_ms(before: dict, after: dict, client_s: list[float]) -> float:
    """Mean client send-to-answer time minus mean server admission-to-answer."""
    key = "repro_serve_request_latency_seconds"
    count = after[key + "_count"] - before[key + "_count"]
    if not client_s or count <= 0:
        return 0.0
    server_mean = (after[key + "_sum"] - before[key + "_sum"]) / count
    return 1e3 * (sum(client_s) / len(client_s) - server_mean)


def _batching(before: dict, after: dict) -> dict:
    batches = after["repro_serve_batches_total"] - before["repro_serve_batches_total"]
    rows = after["repro_serve_batch_rows_sum"] - before["repro_serve_batch_rows_sum"]
    return {
        "serve.batching.rows_per_batch": rows / batches if batches else 0.0,
        "serve.batching.rejected": (
            after["repro_serve_rejected_total"] - before["repro_serve_rejected_total"]
        ),
    }


def _decode(outcome: Outcome, key: str):
    if outcome.status != 200:
        return None
    return json.loads(outcome.payload)[key]


def _launch(workdir: Path, artifacts: dict, spans_out: Path | None, launches: int,
            probe) -> tuple[Server, list[tuple[float, float]], list[float]]:
    """Start the server ``launches`` times, timing each (wall and CPU
    seconds); keep the last one up.  Before each launch ``probe`` times
    two samples of the host reference."""
    setups = []
    ref_samples = []
    for i in range(launches):
        ref_samples += [probe(), probe()]
        server = Server(workdir, artifacts, spans_out)
        try:
            setups.append(server.start())
        except BaseException:
            server.stop()
            raise
        if i < launches - 1:
            server.stop()
    return server, setups, ref_samples


def bulk_phase(workdir: Path, artifacts: dict, bodies: dict, expected: dict,
               seconds: float, seed: int, probe, spans_out: Path | None = None) -> dict:
    """One measured closed-loop pass (with its hot swaps) plus the
    oversized-body probe."""
    import numpy as np

    encoded = {m: [(rows, json.dumps({"records": rows.tolist()}).encode())
                   for rows in bodies[m]] for m in MODELS}
    server, setups, setup_ref = _launch(workdir, artifacts, spans_out,
                                        1 if spans_out else SETUP_LAUNCHES, probe)
    try:
        _warm_up(server)
        server.find_children()
        before = server.metrics()
        swaps = swap_plan(segment_count(seconds), artifacts)
        swapped: list[int] = []
        ref_samples: list[float] = []
        rss = []

        def between(k: int) -> None:
            if k in swaps or k == segment_count(seconds):
                # Peak RSS of serving alone: a swap holds two engines for a
                # while, and when the old one is freed depends on timing.
                rss.append(server.peak_rss_mb())
            for name, path in swaps.get(k, []):
                swapped.append(server.request("POST", f"/v1/models/{name}:swap",
                                              {"path": path})[0])
            ref_samples.append(probe())

        sent, segments, start = asyncio.run(
            closed_loop(server.port, encoded, seconds, connections(), seed, server.cpu_s,
                        between))
        after = server.metrics()
        generations = server.generations()
        max_queue = common.fingerprint()["knobs"]["serve.max_queue"]
        oversized = np.concatenate(bodies[CLS])[: max_queue + 1]
        statuses = []
        for _ in range(PROBE_BODIES):
            server.wait_idle()
            statuses.append(server.request("POST", f"/v1/models/{CLS}:predict",
                                           {"records": oversized.tolist()})[0])
        server.wait_idle()
        after_probe = server.metrics()
    finally:
        server.stop()
    mismatched = sum(1 for m, i, o in sent
                     if o.status == 200 and _decode(o, "predictions") != expected[m][i])
    stale = {n: g for n, g in generations.items() if g != 1 + len(swaps)}
    end = max(o.done for _, _, o in sent)
    latency = {m: [] for m in MODELS}
    for m, _, o in sent:
        if o.status == 200:
            latency[m].append(1e3 * (o.done - o.sent))
    rows = {m: sum(s["rows"] for s in segments if s["model"] == m) for m in MODELS}
    return {
        "setups": [cpu for _, cpu in setups],
        "setups_wall": [wall for wall, _ in setups],
        "setup_ref_samples": setup_ref,
        "ref_samples": ref_samples,
        "attempted": len(sent) + len(swapped),
        "failed": sum(1 for _, _, o in sent if o.status != 200)
        + sum(1 for status in swapped if status != 200),
        "mismatched": mismatched,
        "stale_generations": stale,
        "latency_ms": {m: common.latency_summary(v) for m, v in latency.items()},
        "rows_per_s": {m: rows[m] / (end - start) for m in MODELS},
        "cpu_us_per_row": {
            m: common.median([1e6 * s["cpu_s"] / s["rows"]
                              for s in segments if s["model"] == m and s["rows"]])
            for m in MODELS},
        "cpu_samples": {m: sum(s["model"] == m for s in segments) for m in MODELS},
        "cpu_us_samples": {m: [1e6 * s["cpu_s"] / s["rows"]
                               for s in segments if s["model"] == m and s["rows"]]
                           for m in MODELS},
        "rows_per_cpu_s": sum(rows.values()) / sum(s["cpu_s"] for s in segments),
        "peak_rss_mb": rss[0],
        "peak_rss_mb_with_swaps": rss[-1],
        "probe_oversized": {"rows": max_queue + 1, "statuses": statuses},
        "layers": {
            "serve.server.overhead_ms": _server_overhead_ms(
                before, after, [o.done - o.sent for _, _, o in sent if o.status == 200]),
            **_batching(before, after_probe),
        },
    }
