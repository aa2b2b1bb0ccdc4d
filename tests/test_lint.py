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
