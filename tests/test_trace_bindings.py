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
    assert json.loads(capsys.readouterr().out)["passed"] is True
    totals = tr.totals()
    assert totals["cli.build_verify_report"]["calls"] == 1
    for name in ("wigner.carlitz_double_sum", "wigner.orthogonality_quadrature",
                 "qalgebra.verify_algebra", "wigner.angle_table"):
        assert totals.get(name, {"calls": 0})["calls"] > 0, name
    assert qps.verify.carlitz_double_sum is qps.wigner.carlitz_double_sum
