"""Shared plumbing for the benchmark: paths, statistics, processes, fingerprint.

Everything here is the benchmark's own code; the library under test is
imported from ``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, model artifacts and span dumps.
#: Lives inside the checkout (and is git-ignored); each run gets its own
#: subdirectory, removed when the run ends.
WORK = ROOT / ".perfbench_work"

#: BLAS thread pools of the benchmark and of the processes under test.
#: With its default pool OpenBLAS spins the idle threads for a while
#: after each call: one regression request cost the server 5-8 ms of CPU
#: time against 2.5-4 ms with one thread, for no gain in latency on a
#: 2-CPU host.  The spinning competes with the load generator and the
#: server's own threads for the same cores, so the benchmark pins one
#: thread (recorded in every report as ``knobs.blas_threads``).
BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Set before numpy is first imported, here and in every child.
os.environ.update(BLAS_THREADS)

#: A percentile is "supported" by a sample when at least this many
#: samples lie beyond it.
TAIL_SUPPORT = 10
#: The tail percentile each run reports (with its sample count).
TAIL_TARGET = 99.0


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result (exit non-zero)."""


def require_source_tree() -> None:
    """Fail fast when the checkout holds no library to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no library source under {SRC}; nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def refuse_repro_env(environ=os.environ) -> None:
    """Refuse to run while any ``REPRO_*`` variable could switch a code path."""
    names = sorted(
        name for name in environ if name.startswith(("REPRO_", "_REPRO_"))
    )
    if names:
        raise BenchError(
            "unset these variables first; they select code paths the "
            f"benchmark must not silently measure: {', '.join(names)}"
        )


def child_env() -> dict[str, str]:
    """Environment for the subprocesses under test: the checkout's ``src``,
    and a temporary directory inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def make_workdir(tag: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), pure python."""
    data = sorted(values)
    if not data:
        raise BenchError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def supported_tail(n: int, target: float = TAIL_TARGET) -> float | None:
    """The highest percentile up to ``target`` with ``TAIL_SUPPORT`` samples beyond.

    ``None`` when the sample is too small to support any percentile
    above its median.
    """
    if n <= 2 * TAIL_SUPPORT:
        return None
    if beyond(n, target) >= TAIL_SUPPORT:
        return target
    return 100.0 * (n - TAIL_SUPPORT) / n


def latency_summary(samples_ms) -> dict:
    """Median and supported tail of a latency sample, with its size.

    The tail is p99 when the sample supports it, else the highest
    percentile it does support (the median when none).
    """
    n = len(samples_ms)
    if n == 0:
        raise BenchError("no successful operations to summarise")
    tail_q = supported_tail(n)
    return {
        "n": n,
        "p50": percentile(samples_ms, 50.0),
        "tail_q": tail_q,
        "tail": percentile(samples_ms, tail_q if tail_q is not None else 50.0),
        "p99_supported": tail_q == TAIL_TARGET,
    }


# -- processes -------------------------------------------------------------------

def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, all its threads together.

    Read from the process's CPU-time clock (nanosecond resolution).  The
    kernel leaves out time the hypervisor gave to other guests (steal),
    and the time the process waited for a core, so on a shared virtual
    machine it measures the program's work where wall time measures the
    host's load.
    """
    return time.clock_gettime_ns((~pid << 3) | 2) / 1e9


def descendants(pid: int) -> list[int]:
    """Live child processes of ``pid``, recursively."""
    out = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                children = [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
        for child in children:
            out += [child, *descendants(child)]
    return out


def tree_cpu_s(pid: int, children: list[int]) -> float:
    """CPU seconds of ``pid`` plus those of ``children`` still alive."""
    total = process_cpu_s(pid)
    for child in children:
        try:
            total += process_cpu_s(child)
        except OSError:
            pass
    return total


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """Interrupt a child, then kill it if it does not exit; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    return proc.returncode


# -- fingerprint -----------------------------------------------------------------

def fingerprint() -> dict:
    """Host, interpreter and resolved-knob record for every run report."""
    import numpy as np

    from repro.cluster import default_cluster_workers
    from repro.hdc import kernels
    from repro.hdc.ingest import (
        ingest_block_rows,
        ingest_fused_min_rows,
        resolve_ingest_backend,
    )
    from repro.runtime.pool import default_workers
    from repro.serve.batching import (
        default_batch_max,
        default_batch_window_ms,
        default_max_queue,
    )
    from repro.serve.procpool import default_proc_workers
    from repro.streaming.chunks import default_chunk_rows
    from repro.tuning.calibration import resolve_knob

    return {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "knobs": {
            "kernels.gemm_crossover": resolve_knob(
                "kernels", "gemm_crossover", builtin=kernels.AUTO_CROSSOVER
            ),
            "kernels.xor_mt_min_cells": resolve_knob(
                "kernels", "xor_mt_min_cells", builtin=kernels.XOR_MT_MIN_CELLS
            ),
            "kernels.xor_mt_threads": kernels.kernel_threads(),
            "kernels.cell_budget": kernels.cell_budget(),
            "ingest.backend": resolve_ingest_backend(),
            "ingest.block_rows": ingest_block_rows(),
            "ingest.fused_min_rows": ingest_fused_min_rows(),
            "serve.proc_workers": default_proc_workers(),
            "serve.batch_window_ms": default_batch_window_ms(),
            "serve.batch_max": default_batch_max(),
            "serve.max_queue": default_max_queue(),
            "runtime.workers": default_workers(),
            "cluster.workers": default_cluster_workers(),
            "streaming.chunk_rows": default_chunk_rows(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
    }


def cpu_ticks() -> list[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (user ... steal)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.

    Recorded with every run: on a shared virtual machine it is the main
    reason two runs of the same code differ.
    """
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


class Stopwatch:
    """Monotonic seconds since construction (system-wide clock on Linux,
    so a child's ``time.monotonic()`` stamps compare with the parent's)."""

    def __init__(self) -> None:
        self.t0 = time.monotonic()

    def __call__(self) -> float:
        return time.monotonic() - self.t0
