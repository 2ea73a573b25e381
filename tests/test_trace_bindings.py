"""The benchmark tracer's bindings resolve against the library.

`perfbench/tracer.py` wraps qps functions by (module, attribute name) and
reports two lru caches by object.  A rename, or a cache rebuilt under another
name, would break `perfbench/run.py --trace 1` while every library test still
passes.  Most tests read the tracer's tables without installing it; one
installs it around a `qps verify` call to check that the report and its
layers are attributed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import qps.cli
import qps.qseries
import qps.verify
import qps.wigner

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_targets_resolve_to_callables(tracer):
    assert tracer.TARGETS
    for prefix, module, attr, _per_element in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), prefix


def test_caches_are_the_library_lru_caches(tracer):
    assert tracer.CACHES["wigner.quad_tables"] is qps.wigner._mp_quad_tables
    assert tracer.CACHES["wigner.qbinomial_row"] is qps.wigner._qbinomial_row
    assert qps.wigner._qbinomial_row is qps.qseries._qbinomial_row
    for name, cache in tracer.CACHES.items():
        assert callable(cache.cache_info), name
        assert callable(cache.cache_clear), name


def test_verify_report_and_its_layers_are_traced(tracer, capsys):
    # the tracer rebinds only in qps modules already imported, so qps.cli must
    # import the report function at module level for its layers to be counted
    assert qps.cli.build_verify_report is qps.verify.build_verify_report
    tr = tracer.Tracer()
    tr.install()
    try:
        qps.cli.cli.main(["verify", "--q", "0.5", "--n", "3"], prog_name="qps",
                         standalone_mode=False)
    finally:
        tr.uninstall()
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    totals = tr.totals()
    assert totals["cli.build_verify_report"]["calls"] == 1
    for name in ("wigner.carlitz_double_sum", "wigner.orthogonality_quadrature",
                 "qalgebra.verify_algebra", "rspoly.rs_function"):
        assert totals.get(name, {"calls": 0})["calls"] > 0, name
    # the angle check evaluates theta_3 once per point of its grid, for all
    # its n; at q = 0.5, n = 3 that grid has 2^ceil(log2(8*3 + 2*9 + 2)) = 64
    assert totals["theta.theta3"]["calls"] == 64
    assert qps.verify.carlitz_double_sum is qps.wigner.carlitz_double_sum


#: one op per command, in the argv form the benchmark's op streams use
REPLAY = [
    ["poly", "--q", "0.5", "--n", "3", "--grid-points", "16", "--format", "json"],
    ["theta", "--mu", "3", "--grid-points", "16"],
    ["angle-dist", "--n", "2", "--mu-list", "0.1,0.5", "--grid-points", "16"],
    ["action-dist", "--q", "0.5", "--n", "2", "--m-range", "-2:4", "--grid-points", "64"],
    ["wigner", "--q", "0.5", "--n", "2", "--m", "2", "--grid-points", "16"],
    ["verify", "--q", "0.5", "--n", "3"],
]


def test_traced_replay_matches_untraced(tracer):
    # replays ops as `perfbench/run.py --trace 1` does: through CliRunner, with
    # the tracer wrapping each command's callback in qps.cli.cli.commands
    from click.testing import CliRunner

    def replay():
        runner = CliRunner()
        results = [runner.invoke(qps.cli.cli, argv, prog_name="qps") for argv in REPLAY]
        return [(r.exit_code, r.stdout_bytes) for r in results]

    assert sorted(argv[0] for argv in REPLAY) == sorted(qps.cli.cli.commands)
    plain = replay()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = replay()
    finally:
        tr.uninstall()
    assert traced == plain
    assert all(code == 0 and out for code, out in plain)
    totals = tr.totals()
    for argv in REPLAY:
        assert totals[f"cli.{argv[0]}"]["calls"] == 1, argv[0]
    assert totals["cli.json.dumps"]["calls"] == 2
