"""The public namespace: every name in qps.__all__ resolves, and only once."""

from collections import Counter

import qps


def test_every_export_resolves():
    assert [name for name in qps.__all__ if not hasattr(qps, name)] == []


def test_exports_are_unique():
    assert [name for name, count in Counter(qps.__all__).items() if count > 1] == []
