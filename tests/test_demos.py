"""Every demo script runs to completion against the package in ``src``."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": "src"},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
