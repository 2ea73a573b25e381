"""The public namespace: every name in qps.__all__ resolves, only once, and has
a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

import qps

ROOT = Path(__file__).resolve().parents[1]

#: exports with no caller in the package or the scripts, each with its reason
UNCALLED = {
    "wigner_one_sided": "the independent Wigner oracle that the tests compare against",
    "jackson_derivative": "the lowering ladder A; ROADMAP item 8 checks it in qps verify",
    "apply_Adag_poly": "the raising ladder A+; ROADMAP item 8 checks it in qps verify",
    "__version__": "package metadata",
}


def read_names(path: Path) -> set[str]:
    """Names a module reads, bare or as an attribute, outside the top-level
    def or class of the same name."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        reads = {node.id for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        reads |= {node.attr for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            reads.discard(stmt.name)
        names |= reads
    return names


def test_every_export_resolves():
    assert [name for name in qps.__all__ if not hasattr(qps, name)] == []


def test_exports_are_unique():
    assert [name for name, count in Counter(qps.__all__).items() if count > 1] == []


def test_every_export_has_a_caller():
    sources = [p for p in (ROOT / "src" / "qps").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "scripts").glob("*.py")
    called = set().union(*map(read_names, sources))
    assert [name for name in qps.__all__ if name not in called and name not in UNCALLED] == []
    assert sorted(name for name in UNCALLED if name in called) == []
