"""The query-API examples run clean: exit 0 with every DeprecationWarning an error."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

QUERY_EXAMPLES = (
    "lazy_query",
    "parallel_scan",
    "topk_query",
    "out_of_core",
    "traced_query",
    "serve_and_query",
)


@pytest.mark.parametrize("name", QUERY_EXAMPLES)
def test_example_runs_without_deprecation_warnings(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
