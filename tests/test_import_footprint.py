"""No command loads mpmath or fractions, and only `qps verify` loads decimal.

Extended-precision modules cost start-up time and memory in every process
that imports them.  The exact oracles run on Python integers; only the
quadrature oracle of `qps verify` takes three constants from decimal, and
mpmath is a test-only dependency.  These tests run the CLI in a fresh
interpreter, so the modules loaded by the test session itself cannot hide an
eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, io, json, sys

ORACLE_MODULES = ("mpmath", "fractions", "decimal")
loaded = {}

def record(label):
    loaded[label] = [name for name in ORACLE_MODULES if name in sys.modules]

import qps
record("import qps")
import qps.cli
record("import qps.cli")

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        qps.cli.cli.main(list(args), prog_name="qps", standalone_mode=False)
    return out.getvalue()

for args in (
    ["--version"],
    ["poly", "--q", "0.5", "--n", "3", "--grid-points", "16"],
    ["theta", "--q", "0.5", "--grid-points", "16"],
    ["angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16"],
    ["action-dist", "--q", "0.5", "--n", "2", "--m-range", "-1:4"],
    ["wigner", "--q", "0.5", "--n", "1", "--m", "1", "--grid-points", "16"],
):
    run(*args)
    record(args[0])

report = json.loads(run("verify", "--q", "0.5", "--n", "3"))
record("verify")
print(json.dumps({"loaded": loaded, "verify_passed": report["passed"]}))
"""


def _run_child() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_verify_loads_the_oracle_modules():
    result = _run_child()
    loaded = result["loaded"]
    verify_loaded = loaded.pop("verify")
    assert list(loaded) == [
        "import qps", "import qps.cli", "--version", "poly", "theta",
        "angle-dist", "action-dist", "wigner",
    ]
    for label, modules in loaded.items():
        assert modules == [], label
    assert verify_loaded == ["decimal"]
    assert result["verify_passed"] is True
