"""Every example runs clean: exit 0 with every DeprecationWarning an error."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = sorted(path.stem for path in (ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert "quickstart" in EXAMPLES and "dmv_hierarchical" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
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
