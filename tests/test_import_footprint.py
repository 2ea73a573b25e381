"""No command loads mpmath or fractions, only `qps verify` loads decimal, and
only `qps wigner` loads numpy.

Extended-precision modules and numpy cost start-up time and memory in every
process that imports them.  The exact oracles run on Python integers; only
the quadrature oracle of `qps verify` takes three constants from decimal, and
mpmath is a test-only dependency.  numpy is imported by the functions that
vectorize the Wigner spectrum, which only `qps wigner` calls.  These tests run
the CLI in fresh interpreters, so the modules loaded by the test session
itself cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: runs `import qps`, `import qps.cli` and then each command of argv[1] in
#: one interpreter, and prints which watched modules are loaded after each
CHILD = r"""
import contextlib, io, json, sys

WATCHED = ("mpmath", "fractions", "decimal", "numpy")
loaded = {}

def record(label):
    loaded[label] = [name for name in WATCHED if name in sys.modules]

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


def _run_child(commands) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_verify_loads_the_oracle_modules():
    result = _run_child(COMMANDS)
    loaded = result["loaded"]
    verify_loaded = loaded.pop("verify")
    assert list(loaded) == [
        "import qps", "import qps.cli", "--version", "poly", "theta",
        "angle-dist", "action-dist",
    ]
    for label, modules in loaded.items():
        assert modules == [], label
    assert verify_loaded == ["decimal"]
    assert json.loads(result["outputs"]["verify"])["passed"] is True


def test_only_wigner_loads_numpy():
    loaded = _run_child([WIGNER])["loaded"]
    assert loaded == {"import qps": [], "import qps.cli": [], "wigner": ["numpy"]}
