"""Experiment scripts run end to end from a fresh interpreter."""

import hashlib
import json
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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_op_peak_rss_reports_vmhwm_and_stdout_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["wigner", "--q", "0.5", "--n", "3", "--m", "3", "--grid-points", "64"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_peak_rss.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    direct = subprocess.run(
        [sys.executable, "-m", "qps.cli", *argv],
        capture_output=True, env=env, timeout=120, check=True,
    )
    report = dict(line.split() for line in proc.stdout.splitlines())
    assert report["stdout_sha256"] == hashlib.sha256(direct.stdout).hexdigest()
    # an interpreter with numpy loaded holds well over 5 MB
    assert 5.0 < float(report["peak_rss_mb"]) < 1000.0
    failed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_peak_rss.py"), "verify", "--q", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert failed.returncode == 2
    assert "peak_rss_mb" in failed.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_verify_memory_does_not_grow_with_n(tmp_path):
    # the ladder relations are checked in O(n): dense (n+1)^2 ladder matrices
    # would hold several GB at n = 5000
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_peak_rss.py"),
         "verify", "--q", "0.5", "--n", "5000", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True
    report = dict(line.split() for line in proc.stdout.splitlines())
    assert float(report["peak_rss_mb"]) < 40.0
