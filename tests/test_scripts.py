"""Experiment scripts run end to end from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_mcut_convergence_is_second_order():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mcut_convergence.py"), "--m-cuts", "50", "100"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    rows = [ln for ln in proc.stdout.splitlines() if ln.strip()[:1].isdigit()]
    assert [int(ln.split("|")[0]) for ln in rows] == [0, 1, 3]
    for ln in rows:
        assert float(ln.split("|")[-1]) == pytest.approx(2.0, abs=0.1)
