"""No command loads mpmath, fractions, decimal, numpy, click, dataclasses or
inspect.

Extended-precision modules, numpy and click cost start-up time and memory in
every process that imports them, and `dataclasses` pulls in `inspect`.  The
exact oracles of `qps verify` run on Python integers alone, mpmath and numpy
are test-only dependencies, and click is needed only by the tests' CliRunner.
These tests run the CLI in fresh interpreters, so the modules loaded by the
test session itself cannot hide an eager import, and run the Wigner paths
once with numpy made unimportable and every command once with click made
unimportable.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from qps import QParam

ROOT = Path(__file__).resolve().parents[1]

#: runs `import qps`, `import qps.cli` and then each command of argv[1] in
#: one interpreter, and prints which watched modules qps has loaded after each
#: (a module the interpreter loaded before qps does not count)
CHILD = r"""
import contextlib, io, json, sys

WATCHED = ("mpmath", "fractions", "decimal", "numpy", "click", "dataclasses", "inspect")
preloaded = set(sys.modules)
loaded = {}

def record(label):
    loaded[label] = [name for name in WATCHED
                     if name in sys.modules and name not in preloaded]

import qps
record("import qps")
import qps.cli
record("import qps.cli")

outputs = {}
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        qps.cli.cli.main(args, prog_name="qps", standalone_mode=False)
    outputs[args[0]] = out.getvalue()
    record(args[0])
print(json.dumps({"loaded": loaded, "outputs": outputs}))
"""

COMMANDS = [
    ["--version"],
    ["poly", "--q", "0.5", "--n", "3", "--grid-points", "16"],
    ["theta", "--q", "0.5", "--grid-points", "16"],
    ["angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16"],
    ["action-dist", "--q", "0.5", "--n", "2", "--m-range", "-1:4"],
    ["verify", "--q", "0.5", "--n", "3"],
]
WIGNER = ["wigner", "--q", "0.5", "--n", "1", "--m", "1", "--grid-points", "16"]


#: runs each command of argv[1] with click unimportable and prints the exit
#: codes and outputs
WITHOUT_CLICK = r"""
import contextlib, io, json, sys

sys.modules["click"] = None
import qps.cli

codes, outputs = {}, {}
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes[args[0]] = qps.cli.cli.main(args, prog_name="qps", standalone_mode=False)
    outputs[args[0]] = out.getvalue()
print(json.dumps({"codes": codes, "outputs": outputs}))
"""


def _run_child(child: str, arg: str) -> dict:
    """Runs the child script with argv[1] = arg and parses its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, arg],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_verify_loads_the_oracle_modules():
    result = _run_child(CHILD, json.dumps(COMMANDS))
    loaded = result["loaded"]
    verify_loaded = loaded.pop("verify")
    assert list(loaded) == [
        "import qps", "import qps.cli", "--version", "poly", "theta",
        "angle-dist", "action-dist",
    ]
    for label, modules in loaded.items():
        assert modules == [], label
    # the exact oracles build their tables from Python integers alone
    assert verify_loaded == []
    assert json.loads(result["outputs"]["verify"])["passed"] is True


def test_no_command_loads_click():
    # click is a test-only dependency: with it unimportable every command
    # still runs and prints what it prints when click is installed
    commands = [*COMMANDS, WIGNER]
    with_click = _run_child(CHILD, json.dumps(commands))["outputs"]
    without = _run_child(WITHOUT_CLICK, json.dumps(commands))
    assert without["codes"] == {args[0]: 0 for args in commands}
    assert without["outputs"] == with_click
    assert all(without["outputs"].values())


def test_no_command_loads_numpy():
    loaded = _run_child(CHILD, json.dumps([*COMMANDS, WIGNER]))["loaded"]
    assert len(loaded) == len(COMMANDS) + 3
    for label, modules in loaded.items():
        assert "numpy" not in modules, label


#: with numpy unimportable, runs `qps wigner` as csv and json, the Wigner
#: functions of the library and the angle-width script at argv[1], and prints
#: a summary
WITHOUT_NUMPY = r"""
import contextlib, io, json, runpy, sys

script = sys.argv[1]
sys.modules["numpy"] = None
import qps
from qps.cli import cli

report = {}
for fmt in ("csv", "json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16",
                  "--format", fmt], prog_name="qps", standalone_mode=False)
    report[fmt] = out.getvalue()
qp = qps.QParam.from_q(0.5)
grid = qps.phase_grid(64)
report["wigner"] = qps.wigner_grid(2, 2, qp, (0.3,))[0]
report["from_wigner"] = qps.angle_distribution_from_wigner(2, 0.3, qp, m_cut=40)
report["angle"] = qps.angle_distribution(2, 0.3, qp)
report["variance"] = qps.circular_variance(qps.angle_table(0, qp, grid), grid)
out = io.StringIO()
sys.argv = [script, "--n", "0", "--mu", "0.5", "--grid-points", "64"]
with contextlib.redirect_stdout(out):
    runpy.run_path(script, run_name="__main__")
report["script"] = out.getvalue()
print(json.dumps(report))
"""


def test_wigner_paths_run_without_numpy():
    report = _run_child(WITHOUT_NUMPY, str(ROOT / "scripts" / "angle_width_study.py"))
    rows = report["csv"].splitlines()
    assert rows[0] == "theta,wigner" and len(rows) == 17
    assert len(json.loads(report["json"])["values"]) == 16
    assert math.isfinite(report["wigner"])
    assert abs(report["from_wigner"] - report["angle"]) < 1e-3
    # for n = 0 the circular variance of theta_3 is exactly 1 - e^{-mu}
    mu = QParam.from_q(0.5).mu
    assert abs(report["variance"] - (1.0 - math.exp(-mu))) < 1e-12
    assert "mu=0.5    V=0.393469" in report["script"]
