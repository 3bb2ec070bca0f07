"""The sample outputs in ``docs/REPRODUCING.md`` are what the CLI prints.

Each ``--fast`` run is exactly reproducible (d = 1024, seed 2023), so the
documented tables are golden outputs: ``python -m repro.experiments
<target> --fast --no-cache`` must print them byte for byte.  Table 2 and
Figure 7 pin the regressor's integer-model decode.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
REPRODUCING = REPO_ROOT / "docs" / "REPRODUCING.md"

_TITLES = {
    "table1": "Table 1: classification accuracy",
    "table2": "Table 2: regression MSE",
    "figure7": "Figure 7: normalized regression MSE",
}


def _documented_output(title: str) -> str:
    """The fenced sample-output block that starts with ``title``."""
    text = REPRODUCING.read_text()
    opening = "```\n" + title
    assert text.count(opening) == 1, f"expected one sample output titled {title!r}"
    start = text.index(opening) + len("```\n")
    return text[start:text.index("\n```", start) + 1]


@pytest.mark.parametrize("target", sorted(_TITLES))
def test_fast_output_matches_documentation(target, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_RESULTS_DIR"] = str(tmp_path)  # nothing lands in the repo
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", target, "--fast", "--no-cache"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _documented_output(_TITLES[target])
    assert not any(tmp_path.iterdir())
