"""The calibration artifact: round-trip, validation, precedence.

The contract under test: an artifact survives a save/load round-trip
unchanged; anything malformed raises
:class:`~repro.exceptions.CalibrationError` instead of silently
mis-tuning the process; and every knob resolves through the one
precedence chain *explicit arg > env var > artifact > built-in*.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from repro.cluster import default_cluster_workers
from repro.exceptions import CalibrationError, InvalidParameterError
from repro.hdc.ingest import ingest_block_rows, ingest_fused_min_rows, use_fused
from repro.hdc.kernels import cell_budget, kernel_threads, use_gemm, use_xor_mt
from repro.runtime import default_workers
from repro.serve.batching import (
    default_batch_max,
    default_batch_window_ms,
    default_max_queue,
)
from repro.streaming import default_chunk_rows
from repro.tuning import (
    KNOB_SCHEMA,
    SCHEMA_VERSION,
    Calibration,
    active_calibration,
    default_knobs,
    invalidate_cache,
    load_calibration,
    resolve_knob,
    save_calibration,
)
from repro.tuning import calibration as _calibration

#: Every knob as ``(section, name)``, in table order.
ALL_KNOBS = [(section, name) for section in KNOB_SCHEMA for name in KNOB_SCHEMA[section]]

#: ``(section, name, value)`` triples the knob's validator must reject,
#: whether the value comes from its env var or from an artifact.
BAD_VALUES = [
    ("kernels", "gemm_crossover", -1.0),
    ("kernels", "gemm_crossover", 0.0),
    ("kernels", "gemm_crossover", math.nan),
    ("kernels", "gemm_crossover", math.inf),
    ("serve", "batch_window_ms", -0.5),
    ("serve", "batch_window_ms", math.nan),
    ("serve", "batch_window_ms", math.inf),
] + [
    (section, name, bad)
    for section, name in ALL_KNOBS
    if KNOB_SCHEMA[section][name].type is int
    for bad in (0, -3)
]


@pytest.fixture(autouse=True)
def _clean_calibration_env(monkeypatch):
    """Each test starts with no active artifact and cold caches."""
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    invalidate_cache()
    yield
    invalidate_cache()


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        cal = Calibration.from_knobs(
            {
                "kernels": {"gemm_crossover": 24.0, "xor_mt_min_cells": 500_000},
                "streaming": {"chunk_rows": 512},
                "runtime": {"workers": 2},
            }
        )
        path = save_calibration(cal, tmp_path / "calibration.json")
        loaded = load_calibration(path)
        assert loaded.knobs == cal.knobs
        assert loaded.get("kernels", "gemm_crossover") == 24.0
        assert loaded.get("runtime", "workers") == 2

    def test_artifact_records_schema_and_host(self, tmp_path):
        path = save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "calibration.json",
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert "host" in payload

    def test_save_creates_parent_dirs(self, tmp_path):
        path = save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "deep" / "nested" / "calibration.json",
        )
        assert path.exists()

    def test_save_never_leaves_temp_files(self, tmp_path):
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "calibration.json",
        )
        assert [p.name for p in tmp_path.iterdir()] == ["calibration.json"]


class TestValidation:
    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": 999, "knobs": {}}))
        with pytest.raises(CalibrationError, match="schema"):
            load_calibration(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(CalibrationError, match="section"):
            Calibration.from_knobs({"quantum": {"flux": 1}})

    @pytest.mark.parametrize(
        "section, knob", [("kernels", "warp_factor"), ("serve", "proc_workers")]
    )
    def test_unknown_knob_rejected(self, section, knob):
        with pytest.raises(CalibrationError, match="knob"):
            Calibration.from_knobs({section: {knob: 2}})

    @pytest.mark.parametrize("value", [0, -1, "fast", None, True])
    def test_non_positive_or_non_numeric_knob_rejected(self, value):
        with pytest.raises(CalibrationError):
            Calibration.from_knobs({"streaming": {"chunk_rows": value}})

    @pytest.mark.parametrize("section, name, value", BAD_VALUES)
    def test_artifact_rejects_what_the_validator_rejects(self, section, name, value):
        with pytest.raises(CalibrationError, match=f"{section}.{name}"):
            Calibration.from_knobs({section: {name: value}})

    @pytest.mark.parametrize("section, name, value", BAD_VALUES)
    def test_env_rejects_what_the_validator_rejects(self, monkeypatch, section, name, value):
        knob = KNOB_SCHEMA[section][name]
        monkeypatch.setenv(knob.env, str(value))
        with pytest.raises(CalibrationError, match=knob.env):
            resolve_knob(section, name)

    def test_negative_crossover_env_is_rejected_by_use_gemm(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "-1")
        with pytest.raises(CalibrationError):
            use_gemm(1, 1000, 10_000)

    def test_zero_batch_window_accepted_from_both_sources(self, tmp_path, monkeypatch):
        path = save_calibration(
            Calibration.from_knobs({"serve": {"batch_window_ms": 0}}),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert default_batch_window_ms() == 0.0
        monkeypatch.setenv("REPRO_SERVE_BATCH_WINDOW_MS", "0")
        assert default_batch_window_ms() == 0.0

    def test_calibration_error_is_an_invalid_parameter_error(self):
        assert issubclass(CalibrationError, InvalidParameterError)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text('{"schema": 1, "knobs": {')
        with pytest.raises(CalibrationError, match="JSON"):
            load_calibration(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_calibration(tmp_path / "nope.json")


class TestActivation:
    def test_no_env_means_no_calibration(self):
        assert active_calibration() is None

    def test_env_activates_artifact(self, tmp_path, monkeypatch):
        path = save_calibration(
            Calibration.from_knobs({"streaming": {"chunk_rows": 333}}),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        active = active_calibration()
        assert active is not None
        assert active.get("streaming", "chunk_rows") == 333

    def test_env_pointing_nowhere_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "missing.json"))
        with pytest.raises(CalibrationError):
            active_calibration()

    def test_rewritten_artifact_is_picked_up(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}), path
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert active_calibration().get("runtime", "workers") == 1
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 3}}), path
        )
        assert active_calibration().get("runtime", "workers") == 3


class TestPrecedence:
    """arg > env > calibration > built-in, at every link of the chain."""

    ENV = "REPRO_CHUNK_ROWS"

    def _resolve(self, **kwargs):
        return resolve_knob("streaming", "chunk_rows", **kwargs)

    def _activate(self, tmp_path, monkeypatch, chunk_rows):
        path = save_calibration(
            Calibration.from_knobs({"streaming": {"chunk_rows": chunk_rows}}),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))

    def test_builtin_when_nothing_configured(self):
        assert self._resolve() == 1024

    def test_calibration_beats_builtin(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
        assert self._resolve() == 256

    def test_env_beats_calibration(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
        monkeypatch.setenv(self.ENV, "512")
        assert self._resolve() == 512

    def test_arg_beats_everything(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
        monkeypatch.setenv(self.ENV, "512")
        assert self._resolve(arg=64) == 64

    @pytest.mark.parametrize(
        "section, name, raw",
        [
            ("streaming", "chunk_rows", "lots"),
            ("streaming", "chunk_rows", "1.5"),
            ("streaming", "chunk_rows", ""),
            ("kernels", "cell_budget", ""),
        ],
    )
    def test_malformed_env_raises_or_is_ignored(self, monkeypatch, section, name, raw):
        knob = KNOB_SCHEMA[section][name]
        monkeypatch.setenv(knob.env, raw)
        if raw:
            with pytest.raises(CalibrationError):
                resolve_knob(section, name)
        else:  # empty string means unset
            assert resolve_knob(section, name) == knob.default()

    def test_env_below_minimum_raises(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "0")
        with pytest.raises(CalibrationError):
            self._resolve()

    def test_builtin_override_is_only_the_last_resort(self, tmp_path, monkeypatch):
        assert self._resolve(builtin=7) == 7
        self._activate(tmp_path, monkeypatch, 256)
        assert self._resolve(builtin=7) == 256

    def test_unknown_knob_raises(self):
        with pytest.raises(CalibrationError, match="warp_factor"):
            resolve_knob("kernels", "warp_factor")

    def test_env_change_takes_effect_immediately(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "128")
        assert self._resolve() == 128
        monkeypatch.setenv(self.ENV, "2048")
        assert self._resolve() == 2048  # resolved-knob memo keys on the raw value


#: The public accessor of each knob.  ``cell_budget`` takes no argument;
#: the two dispatch thresholds are read through :func:`resolve_knob`
#: (their consumers are the ``use_gemm`` / ``use_xor_mt`` predicates).
ACCESSORS = {
    ("kernels", "gemm_crossover"): lambda *a: resolve_knob("kernels", "gemm_crossover", *a),
    ("kernels", "xor_mt_min_cells"): lambda *a: resolve_knob("kernels", "xor_mt_min_cells", *a),
    ("kernels", "xor_mt_threads"): kernel_threads,
    ("kernels", "cell_budget"): cell_budget,
    ("streaming", "chunk_rows"): default_chunk_rows,
    ("ingest", "block_rows"): ingest_block_rows,
    ("ingest", "fused_min_rows"): ingest_fused_min_rows,
    ("cluster", "workers"): default_cluster_workers,
    ("runtime", "workers"): default_workers,
    ("serve", "batch_window_ms"): default_batch_window_ms,
    ("serve", "batch_max"): default_batch_max,
    ("serve", "max_queue"): default_max_queue,
}


class TestConsumers:
    """Every knob's public accessor follows built-in → artifact → env → arg."""

    def _activate(self, tmp_path, monkeypatch, knobs):
        path = save_calibration(
            Calibration.from_knobs(knobs), tmp_path / "calibration.json"
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))

    def test_every_knob_has_an_accessor(self):
        assert sorted(ACCESSORS) == sorted(ALL_KNOBS)

    @pytest.mark.parametrize("section, name", ALL_KNOBS)
    def test_precedence_through_the_accessor(self, tmp_path, monkeypatch, section, name):
        knob = KNOB_SCHEMA[section][name]
        accessor = ACCESSORS[section, name]
        artifact, env, arg = (knob.type(v) for v in (7, 5, 3))
        monkeypatch.delenv(knob.env, raising=False)
        assert accessor() == knob.default()
        self._activate(tmp_path, monkeypatch, {section: {name: artifact}})
        assert accessor() == artifact
        monkeypatch.setenv(knob.env, str(env))
        assert accessor() == env
        if name != "cell_budget":  # the budget has no per-call argument
            assert accessor(arg) == arg

    def test_kernel_thresholds_consumer(self, tmp_path, monkeypatch):
        self._activate(
            tmp_path,
            monkeypatch,
            {"kernels": {"gemm_crossover": 2.0, "xor_mt_min_cells": 1}},
        )
        assert use_gemm(4, 4, 64)      # harmonic 2 >= 2.0
        assert use_xor_mt(1, 1, 8)     # every cube is over a 1-cell floor
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "1000000")
        assert not use_gemm(4, 4, 64)

    def test_ingest_knobs_consumer(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, {"ingest": {"fused_min_rows": 7}})
        assert use_fused(7) and not use_fused(6)


class TestDefaultKnobs:
    def test_default_knobs_cover_every_knob_and_validate(self):
        knobs = default_knobs()
        assert sorted((s, n) for s in knobs for n in knobs[s]) == sorted(ALL_KNOBS)
        assert Calibration.from_knobs(knobs).knobs == knobs

    def test_default_knobs_are_what_an_uncalibrated_process_resolves(self):
        for (section, name), accessor in ACCESSORS.items():
            assert accessor() == default_knobs()[section][name], (section, name)


class TestSchemaDocs:
    """The knob table in ``docs/PERFORMANCE.md`` is the schema, in prose."""

    DOC = Path(__file__).resolve().parents[2] / "docs" / "PERFORMANCE.md"

    def _rows(self):
        rows = {}
        pattern = re.compile(r"^\|\s*`(\w+)`\s*\|\s*`(\w+)`\s*\|\s*`(REPRO_\w+)`\s*\|([^|]*)\|")
        for line in self.DOC.read_text(encoding="utf-8").splitlines():
            match = pattern.match(line)
            if match:
                section, name, env, builtin = match.groups()
                rows[section, name] = (env, builtin.strip())
        return rows

    def test_performance_md_knob_table_matches_schema(self):
        rows = self._rows()
        assert sorted(rows) == sorted(ALL_KNOBS)
        for (section, name), (env, builtin) in rows.items():
            knob = KNOB_SCHEMA[section][name]
            assert env == knob.env, (section, name)
            if callable(knob.builtin):
                assert builtin == "CPU count", (section, name)
            else:
                assert float(builtin.replace(" ", "")) == knob.builtin, (section, name)


class TestIngestKnobCacheInvalidation:
    """The memoised ``ingest.*`` knobs never serve a stale artifact.

    The resolver memoises every resolved knob for hot-loop dispatch
    (one memo, keyed on raw env strings), so the memo must be
    dropped whenever the active calibration can have changed: an
    explicit ``invalidate_cache()``, an in-process ``save_calibration``
    (re-calibration), or the process flipping ``REPRO_CALIBRATION`` to a
    different artifact mid-run.
    """

    def _artifact(self, tmp_path, name, min_rows):
        return save_calibration(
            Calibration.from_knobs({"ingest": {"fused_min_rows": min_rows}}),
            tmp_path / name,
        )

    def test_env_switch_mid_process_re_resolves(self, tmp_path, monkeypatch):
        from repro.hdc.ingest import ingest_fused_min_rows

        first = self._artifact(tmp_path, "a.json", 11)
        second = self._artifact(tmp_path, "b.json", 222)
        monkeypatch.setenv("REPRO_CALIBRATION", str(first))
        assert ingest_fused_min_rows() == 11
        # Flip the artifact without touching any cache hook: the memo
        # key includes the raw env string, so this alone must re-resolve.
        monkeypatch.setenv("REPRO_CALIBRATION", str(second))
        assert ingest_fused_min_rows() == 222
        monkeypatch.delenv("REPRO_CALIBRATION")
        from repro.hdc.ingest import DEFAULT_FUSED_MIN_ROWS

        assert ingest_fused_min_rows() == DEFAULT_FUSED_MIN_ROWS

    def test_save_calibration_invalidates_warm_memo(self, tmp_path, monkeypatch):
        from repro.hdc.ingest import ingest_fused_min_rows

        path = self._artifact(tmp_path, "calibration.json", 33)
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert ingest_fused_min_rows() == 33  # warm the memo
        # Re-calibrating over the same path (same env string, so the
        # memo key alone would not notice) must still be picked up:
        # save_calibration clears every registered knob cache.
        self._artifact(tmp_path, "calibration.json", 44)
        assert ingest_fused_min_rows() == 44

    def test_invalidate_cache_clears_the_memo(self, tmp_path, monkeypatch):
        from repro.hdc import ingest

        path = self._artifact(tmp_path, "calibration.json", 55)
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert ingest.ingest_fused_min_rows() == 55
        assert _calibration._resolved_cache  # warmed
        invalidate_cache()
        assert not _calibration._resolved_cache
        assert ingest.ingest_fused_min_rows() == 55  # re-resolves cleanly
