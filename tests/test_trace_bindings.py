"""The benchmark tracer's bindings resolve against the library.

`perfbench/tracer.py` wraps qps functions by (module, attribute name) and
reports two lru caches by object.  A rename, or a cache rebuilt under another
name, would break `perfbench/run.py --trace 1` while every library test still
passes; these tests read the tracer's tables without installing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qps.qseries
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
