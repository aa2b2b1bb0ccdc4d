"""Static checks of the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quatmhd"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that nothing in the module reads; names
    listed in a literal __all__ count as read (they are re-exported)."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted(set(imported) - used)


def test_unused_imports_detected():
    src = ("from __future__ import annotations\n"
           "import os, numpy as np\n"
           "from .grid import QField, l2_norm\n"
           "__all__ = ['QField']\n"
           "x = np.zeros(3)\n")
    assert unused_imports(src) == ["l2_norm", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private(sources: dict[str, str]) -> list[str]:
    """"module.name" of each private module-level function, class or
    assigned name of the modules `sources` (name -> source text) that no
    module reads: neither as a name nor as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{m}.{n}" for m, n in defined if n not in read)


def test_dead_private_detected():
    sources = {
        "a": ("_USED, _UNUSED = 1, 2\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    return 0\n"
              "def public():\n    return _helper()\n"),
        "b": ("from .a import _shared\n"
              "def _shared_user():\n    return _shared()\n"),
    }
    assert dead_private(sources) == ["a._UNUSED", "a._orphan",
                                     "b._shared_user"]


def test_no_dead_private_code():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private(sources) == []
