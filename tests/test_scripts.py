"""Experiment scripts run end to end from a fresh interpreter."""

import math
import os
import re
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


def test_angle_width_study_ground_state_variance():
    # for n = 0 the circular variance of theta_3 is exactly 1 - e^{-mu}
    mus = (0.1, 0.5, 1.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "angle_width_study.py"), "--n", "0",
         "--mu", *map(str, mus)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    values = re.findall(r"^\s*mu=(\S+)\s+V=(\S+)", proc.stdout, re.MULTILINE)
    assert [float(mu) for mu, _ in values] == list(mus)
    for mu, v in values:
        assert float(v) == pytest.approx(1.0 - math.exp(-float(mu)), abs=1e-6)
