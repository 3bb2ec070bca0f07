"""The calibration artifact: measured performance knobs as data.

Every performance knob in this repository — the kernel crossover, the
allocation budget, the streaming chunk size, the worker count — used to
be a built-in constant tuned on one development machine.  This module
turns them into a **versioned, schema-checked JSON artifact** measured
on the host that will actually run the workload (``repro calibrate``,
:mod:`repro.tuning.measure`) and consumed by every layer that owns a
knob (kernel dispatch, the streaming trainer, the serving engine).

The contract:

* **Artifact** — one JSON file with a ``schema`` version, host
  provenance, and a ``knobs`` mapping of section → name → value.
  Written atomically (temp file + ``os.replace``), validated on load;
  an unreadable or wrong-schema file raises
  :class:`~repro.exceptions.CalibrationError` instead of silently
  mis-tuning the process.
* **Activation** — the ``REPRO_CALIBRATION`` environment variable
  points at the artifact.  When unset, every knob falls back to its
  built-in default, so nothing changes for uncalibrated processes.
* **Declaration** — :data:`KNOB_SCHEMA` holds one :class:`Knob` row
  per knob: its environment variable, built-in value and validator.
* **Precedence** — consumers resolve each knob through
  :func:`resolve_knob`: an explicit argument wins, then the knob's own
  environment variable (``REPRO_KERNEL_BUDGET`` and friends), then the
  calibration artifact, then the built-in value.
* **Bit-identity** — calibration only moves crossover, blocking and
  scheduling decisions.  Every consumer is bit-identical for any knob
  value (property-tested with adversarial artifacts in
  ``tests/tuning/``), so a stale or wrong artifact can cost time but
  never correctness.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
from pathlib import Path
from typing import Any, NamedTuple, Union

from ..exceptions import CalibrationError

__all__ = [
    "SCHEMA_VERSION",
    "ENV_CALIBRATION",
    "Knob",
    "KNOB_SCHEMA",
    "Calibration",
    "load_calibration",
    "save_calibration",
    "active_calibration",
    "resolve_knob",
    "invalidate_cache",
]

#: Artifact schema version this library writes and understands.
SCHEMA_VERSION = 1

#: Environment variable pointing at the active calibration artifact.
ENV_CALIBRATION = "REPRO_CALIBRATION"


class Knob(NamedTuple):
    """One performance knob, declared once (a row of :data:`KNOB_SCHEMA`).

    ``env`` is the knob's own environment variable and ``builtin`` the
    value used when nothing else resolves (a zero-argument callable when
    it depends on the host).  ``type`` parses the env string and casts
    artifact values.  :meth:`valid` is the knob's one validator, applied
    to env and artifact values alike: the right type, finite, and at
    least ``minimum`` (strictly above it when ``strict``).

    >>> knob = KNOB_SCHEMA["serve"]["batch_window_ms"]
    >>> knob.env, knob.builtin, knob.rule
    ('REPRO_SERVE_BATCH_WINDOW_MS', 2.0, 'a finite number >= 0')
    >>> knob.valid(0.0), knob.valid(float("inf")), knob.valid(True)
    (True, False, False)
    """

    env: str
    builtin: Any
    type: type = int
    minimum: float = 1
    strict: bool = False

    def default(self) -> Any:
        """The built-in value (calling ``builtin`` when it is computed)."""
        return self.builtin() if callable(self.builtin) else self.builtin

    def valid(self, value: Any) -> bool:
        """Whether ``value`` is an acceptable setting for this knob."""
        kinds = int if self.type is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            return False
        return value > self.minimum if self.strict else value >= self.minimum

    @property
    def rule(self) -> str:
        """:meth:`valid` in words, for error messages."""
        kind = "an integer" if self.type is int else "a finite number"
        return f"{kind} {'>' if self.strict else '>='} {self.minimum:g}"


def _host_cpus() -> int:
    return os.cpu_count() or 1


#: Every performance knob: section → name → :class:`Knob`.  The one
#: place a knob's env var, built-in and validator are written down;
#: :func:`resolve_knob`, artifact validation and
#: :func:`repro.tuning.measure.default_knobs` all read it.  Extra
#: sections/names in an artifact are rejected (a typo'd knob should fail
#: loudly, not silently fall back to the built-in).
KNOB_SCHEMA: dict[str, dict[str, Knob]] = {
    "kernels": {
        "gemm_crossover": Knob("REPRO_KERNEL_CROSSOVER", 16.0, float, 0.0, strict=True),
        "xor_mt_min_cells": Knob("REPRO_KERNEL_MT_CELLS", 2_000_000),
        "xor_mt_threads": Knob("REPRO_KERNEL_THREADS", _host_cpus),
        "cell_budget": Knob("REPRO_KERNEL_BUDGET", 64_000_000),
    },
    "streaming": {
        "chunk_rows": Knob("REPRO_CHUNK_ROWS", 1024),
    },
    "ingest": {
        "block_rows": Knob("REPRO_INGEST_BLOCK_ROWS", 256),
        "fused_min_rows": Knob("REPRO_INGEST_FUSED_MIN_ROWS", 32),
    },
    "cluster": {
        "workers": Knob("REPRO_CLUSTER_WORKERS", 1),
    },
    "runtime": {
        "workers": Knob("REPRO_WORKERS", 1),
    },
    "serve": {
        "batch_window_ms": Knob("REPRO_SERVE_BATCH_WINDOW_MS", 2.0, float, 0.0),
        "batch_max": Knob("REPRO_SERVE_BATCH_MAX", 32),
        "max_queue": Knob("REPRO_SERVE_MAX_QUEUE", 256),
    },
}


class Calibration:
    """A loaded calibration artifact: validated knobs plus provenance.

    Construct with :meth:`from_knobs` (fresh measurement) or
    :func:`load_calibration` (from disk).  The payload is validated on
    construction — a :class:`Calibration` in hand is always usable.

    >>> cal = Calibration.from_knobs({"kernels": {"gemm_crossover": 24.0}})
    >>> cal.get("kernels", "gemm_crossover")
    24.0
    >>> cal.get("streaming", "chunk_rows") is None   # not measured
    True
    """

    __slots__ = ("payload", "path")

    def __init__(self, payload: dict, path: Union[Path, None] = None) -> None:
        _validate_payload(payload)
        self.payload = payload
        self.path = path

    @classmethod
    def from_knobs(
        cls, knobs: dict[str, dict[str, Any]], meta: Union[dict, None] = None
    ) -> "Calibration":
        """Wrap freshly measured knobs in a full artifact payload."""
        payload = {
            "schema": SCHEMA_VERSION,
            "host": {
                "platform": platform.platform(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "cpus": os.cpu_count() or 1,
            },
            "knobs": knobs,
        }
        if meta:
            payload["meta"] = dict(meta)
        return cls(payload)

    @property
    def knobs(self) -> dict:
        """The section → name → value mapping."""
        return self.payload["knobs"]

    def get(self, section: str, name: str) -> Any:
        """One knob's value, or ``None`` when the artifact omits it."""
        return self.payload["knobs"].get(section, {}).get(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sections = {k: sorted(v) for k, v in self.knobs.items()}
        return f"Calibration(path={self.path}, knobs={sections})"


def _validate_payload(payload: Any) -> None:
    if not isinstance(payload, dict):
        raise CalibrationError(
            f"calibration artifact must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise CalibrationError(
            f"calibration schema {schema!r} is not supported "
            f"(this library reads schema {SCHEMA_VERSION}); re-run `repro calibrate`"
        )
    knobs = payload.get("knobs")
    if not isinstance(knobs, dict):
        raise CalibrationError("calibration artifact is missing its 'knobs' object")
    for section, values in knobs.items():
        if section not in KNOB_SCHEMA:
            raise CalibrationError(
                f"unknown calibration section {section!r} "
                f"(expected one of {sorted(KNOB_SCHEMA)})"
            )
        if not isinstance(values, dict):
            raise CalibrationError(f"calibration section {section!r} must be an object")
        for name, value in values.items():
            knob = KNOB_SCHEMA[section].get(name)
            if knob is None:
                raise CalibrationError(
                    f"unknown calibration knob {section}.{name} "
                    f"(expected one of {sorted(KNOB_SCHEMA[section])})"
                )
            if not knob.valid(value):
                raise CalibrationError(
                    f"calibration knob {section}.{name} must be {knob.rule}, "
                    f"got {value!r}"
                )


def save_calibration(
    calibration: Union[Calibration, dict], path: Union[str, os.PathLike]
) -> Path:
    """Atomically write a calibration artifact; returns the final path.

    The payload is validated first, then written to a temporary file in
    the destination directory and renamed into place (``os.replace``),
    so the artifact on disk is always either the previous complete
    version or the new complete version — a crashed calibrate never
    leaves a truncated file for ``REPRO_CALIBRATION`` to trip over.

    >>> import tempfile, pathlib
    >>> cal = Calibration.from_knobs({"runtime": {"workers": 2}})
    >>> with tempfile.TemporaryDirectory() as d:
    ...     out = save_calibration(cal, pathlib.Path(d) / "calibration.json")
    ...     load_calibration(out).get("runtime", "workers")
    2
    """
    if isinstance(calibration, Calibration):
        payload = calibration.payload
    else:
        _validate_payload(calibration)
        payload = calibration
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    invalidate_cache()  # a rewritten artifact must be re-read everywhere
    return path


def load_calibration(path: Union[str, os.PathLike]) -> Calibration:
    """Load and validate a calibration artifact from disk.

    Raises :class:`~repro.exceptions.CalibrationError` for unreadable
    files, non-JSON content, unsupported schema versions and malformed
    knob values — a bad artifact fails loudly at load time, never as a
    mysterious mis-dispatch later.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = save_calibration(
    ...         Calibration.from_knobs({"kernels": {"cell_budget": 1000}}),
    ...         pathlib.Path(d) / "c.json")
    ...     load_calibration(p).get("kernels", "cell_budget")
    1000
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration artifact {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CalibrationError(
            f"calibration artifact {path} is not valid JSON: {exc}"
        ) from exc
    calibration = Calibration(payload, path=path)
    return calibration


#: Cache of the env-activated artifact: (path, mtime_ns, size) → Calibration.
_active_cache: dict[tuple[str, int, int], Calibration] = {}

#: Memo of resolved knob values, keyed on the knob, the raw strings of
#: its env var and ``REPRO_CALIBRATION``, and any ``builtin`` override.
#: The kernel dispatcher resolves knobs on every similarity call, so a
#: hit must cost two env reads and one dict probe.  An artifact
#: rewritten *outside* :func:`save_calibration` needs an explicit
#: :func:`invalidate_cache`.
_resolved_cache: dict[tuple, Any] = {}


def invalidate_cache() -> None:
    """Drop the cached artifact and every memoised knob value.

    Called by :func:`save_calibration`; call it by hand after editing an
    active artifact outside this module (tests, hot re-calibration).
    """
    _active_cache.clear()
    _resolved_cache.clear()


def active_calibration() -> Union[Calibration, None]:
    """The calibration the current process should consume, or ``None``.

    Resolution: the ``REPRO_CALIBRATION`` environment variable names the
    artifact path; unset (or empty) means *no calibration* and every
    knob falls back through its remaining precedence chain.  The loaded
    artifact is cached keyed by the file's identity (path, mtime, size),
    so the hot paths pay one ``stat`` per call, not a JSON parse — and a
    re-written artifact is picked up without restarting.

    A set-but-unusable artifact raises
    :class:`~repro.exceptions.CalibrationError`: an explicitly activated
    calibration must be valid.

    >>> import os
    >>> os.environ.pop("REPRO_CALIBRATION", None) and None
    >>> active_calibration() is None
    True
    """
    raw = os.environ.get(ENV_CALIBRATION)
    if not raw:
        return None
    path = Path(raw)
    try:
        stat = path.stat()
    except OSError as exc:
        raise CalibrationError(
            f"{ENV_CALIBRATION} points at {path}, which cannot be read: {exc}"
        ) from exc
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    cached = _active_cache.get(key)
    if cached is None:
        cached = load_calibration(path)
        _active_cache.clear()  # one active artifact at a time
        _resolved_cache.clear()  # resolved knobs may have changed
        _active_cache[key] = cached
    return cached


def resolve_knob(
    section: str, name: str, arg: Any = None, *, builtin: Any = None
) -> Any:
    """Resolve one performance knob through the precedence chain.

    ``explicit arg > env var > calibration artifact > built-in`` — the
    one rule every knob follows, so a knob can always be forced per call
    (tests), per process (env), per host (artifact) or not at all.  The
    env var, built-in and validator come from the knob's
    :data:`KNOB_SCHEMA` row; ``builtin`` replaces that row's built-in
    when given.  An ``arg`` that is not ``None`` is returned as is.  An
    empty env var counts as unset; a malformed or out-of-range one
    raises :class:`~repro.exceptions.CalibrationError`.

    >>> resolve_knob("streaming", "chunk_rows", 512)
    512
    >>> resolve_knob("streaming", "chunk_rows")   # no env, no artifact
    1024
    """
    if arg is not None:
        return arg
    try:
        knob = KNOB_SCHEMA[section][name]
    except KeyError:
        raise CalibrationError(f"unknown performance knob {section}.{name}") from None
    environ = os.environ
    raw = environ.get(knob.env)
    key = (section, name, raw, environ.get(ENV_CALIBRATION), builtin)
    try:
        return _resolved_cache[key]
    except KeyError:
        pass
    calibration = active_calibration()  # a broken artifact fails loudly
    if raw:
        try:
            value = knob.type(raw)
        except ValueError:
            value = None
        if value is None or not knob.valid(value):
            raise CalibrationError(f"{knob.env} must be {knob.rule}, got {raw!r}")
    elif calibration is not None and calibration.get(section, name) is not None:
        value = knob.type(calibration.get(section, name))
    elif builtin is not None:
        value = builtin
    else:
        value = knob.default()
    if len(_resolved_cache) > 128:
        _resolved_cache.clear()
    _resolved_cache[key] = value
    return value
