"""Static checks of the package source that need no linter installed."""

import ast
import math
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


def private_io_imports(source: str) -> list[str]:
    """The _-prefixed names a module imports from the package's io module.
    io keeps every file format, its number format included, behind
    public writers and readers, so a front end needs none of its
    private names."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == "io"
                  for a in node.names if a.name.startswith("_"))


def test_private_io_imports_detected():
    src = ("from .io import _FMT, write_table\n"
           "from .grid import _integer\n"
           "from io import _io\n"
           "from . import io\n"
           "def f():\n"
           "    from .io import _fmt_value\n"
           "    return _fmt_value(1.0) + _FMT\n")
    assert private_io_imports(src) == ["_FMT", "_fmt_value"]


def test_cli_imports_no_private_io_name():
    assert private_io_imports((SRC / "cli.py").read_text()) == []


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


def unpassed_private_defaults(sources: dict[str, str]) -> list[str]:
    """"module.function(param)" for each defaulted parameter of a private
    function of the modules `sources` (name -> source text) that no call in
    them passes, by position or by keyword. A call counts by the name it
    calls, bare or as an attribute; a * or ** argument passes every
    parameter. Methods skip self, which their attribute calls bind."""
    defaults, passed, positional = [], set(), {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                args = node.args.posonlyargs + node.args.args
                first = len(args) - len(node.args.defaults)
                defaults += [(module, node.name, i - (id(node) in methods),
                              args[i].arg) for i in range(first, len(args))]
                defaults += [(module, node.name, None, a.arg)
                             for a, d in zip(node.args.kwonlyargs,
                                             node.args.kw_defaults) if d]
            elif isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                npos = math.inf if starred else len(node.args)
                positional[name] = max(positional.get(name, 0), npos)
                for kw in node.keywords:
                    passed.add((name, kw.arg))  # kw.arg None for **
    return sorted(
        f"{m}.{fn}({arg})" for m, fn, i, arg in defaults
        if (fn, arg) not in passed and (fn, None) not in passed
        and (i is None or positional.get(fn, 0) <= i))


def test_unpassed_private_default_detected():
    sources = {
        "a": ("def _knob(x, tol=1e-6, iters=30, seed=0):\n    return x\n"
              "def _splat(x, y=1):\n    return x\n"
              "class C:\n"
              "    def _m(self, a=1, b=2):\n        return a\n"
              "    def run(self):\n        return self._m(3)\n"
              "def public(args):\n"
              "    return _knob(1, 1e-3) + _splat(*args)\n"),
        "b": ("from .a import _knob\n"
              "def _kw(x, *, scale=1.0, shift=0.0):\n    return x\n"
              "y = _kw(_knob(2, seed=4), shift=1.0)\n"),
    }
    assert unpassed_private_defaults(sources) == [
        "a._knob(iters)", "a._m(b)", "b._kw(scale)"]


def test_no_unpassed_private_defaults():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed_private_defaults(sources) == []


def lapack_calls(source: str) -> list[str]:
    """The numpy.linalg names other than norm that a module reads, by
    attribute (np.linalg.eigvalsh) or by import. The package keeps to
    norm: the decompositions and solvers there call LAPACK, whose first
    use allocates about 0.5 MiB of workspace, which shows in the peak RSS
    of a run."""
    tree = ast.parse(source)
    parent = {id(c): node for node in ast.walk(tree)
              for c in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            up = parent.get(id(node))
            name = up.attr if isinstance(up, ast.Attribute) else "linalg"
            if name != "norm":
                found.append(name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy.linalg":
                found += [a.name for a in node.names if a.name != "norm"]
            elif node.module == "numpy":
                found += [a.name for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "numpy.linalg"]
    return sorted(found)


def test_lapack_calls_detected():
    src = ("import numpy as np\n"
           "import numpy.linalg\n"
           "from numpy import linalg\n"
           "from numpy.linalg import norm, svd\n"
           "la = np.linalg\n"
           "x = np.linalg.norm(np.linalg.eigvalsh(np.eye(2)))\n")
    assert lapack_calls(src) == ["eigvalsh", "linalg", "linalg",
                                 "numpy.linalg", "svd"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_lapack_calls(path):
    assert lapack_calls(path.read_text()) == []


# the continuum operators of OperatorSet
CONTINUUM = ("teodorescu", "cauchy", "bergman_Q", "bergman_P")


def continuum_refs(source: str) -> list[str]:
    """The CONTINUUM names a module reads, as a name, an attribute or an
    import; docstrings and comments do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in CONTINUUM:
            found.append(name)
    return sorted(found)


def test_continuum_refs_detected():
    src = ('"""Applies teodorescu and cauchy in prose only."""\n'
           "from .operators import bergman_P\n"
           "def f(ops, g):\n"
           "    # ops.bergman_Q in a comment\n"
           "    return ops.teodorescu(g) + bergman_P(g)\n"
           "x = cauchy\n")
    assert continuum_refs(src) == ["bergman_P", "bergman_P", "cauchy",
                                   "teodorescu"]


@pytest.mark.parametrize("name", ["solvers.py", "mhd.py", "energy.py"])
def test_solve_path_names_no_continuum_operator(name):
    # the solvers, their brackets and the energy rows run on the lattice
    # pair (poisson_dirichlet), the boundary-data branch included
    assert continuum_refs((SRC / name).read_text()) == []


# the calls that move or copy a field array into another memory layout
LAYOUT_CALLS = ("transpose", "moveaxis", "ascontiguousarray")


def layout_calls(source: str) -> list[str]:
    """The LAYOUT_CALLS a module makes, by attribute (a.transpose(...),
    np.moveaxis(...)) or by bare name, outside QField's constructor, the
    one place that makes field storage contiguous. A field is stored
    components first, the layout every stencil and solve reads, so only
    the file formats (io.py) turn it into rows."""
    tree = ast.parse(source)
    skip = {id(n) for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == "QField"
            for f in c.body
            if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
            for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skip:
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name in LAYOUT_CALLS:
                found.append(name)
    return sorted(found)


def test_layout_calls_detected():
    src = ("import numpy as np\n"
           "from numpy import moveaxis\n"
           "class QField:\n"
           "    def __post_init__(self):\n"
           "        self.values = np.ascontiguousarray(self.values)\n"
           "    def copy(self):\n"
           "        return np.ascontiguousarray(self.values.T)\n"
           "def f(a):\n"
           "    # a.transpose() in a comment, a.T and swapaxes are views\n"
           "    b = a.T + a.swapaxes(0, 1)\n"
           "    return a.transpose(3, 0, 1, 2), moveaxis(b, -1, 0)\n")
    assert layout_calls(src) == ["ascontiguousarray", "moveaxis", "transpose"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "io.py"],
                         ids=lambda p: p.name)
def test_no_layout_calls(path):
    assert layout_calls(path.read_text()) == []


# the stencil and solve calls the pressure path replaced by matrix chains
PRESSURE_METHODS = ("pressure_S", "_sc_dirac_solve")
STENCIL_SOLVES = ("_diff", "poisson_scalar")


def pressure_path_calls(source: str) -> list[str]:
    """"method.name" for each STENCIL_SOLVES call, bare or by attribute, in
    the body of a PRESSURE_METHODS function of a module's classes. The
    pressure operator and its right side apply OperatorSet's per-axis
    matrix chains, so neither a difference stencil nor a collar solve
    belongs in them."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for f in cls.body:
            if (isinstance(f, ast.FunctionDef)
                    and f.name in PRESSURE_METHODS):
                for node in ast.walk(f):
                    if isinstance(node, ast.Call):
                        g = node.func
                        name = (g.id if isinstance(g, ast.Name)
                                else g.attr if isinstance(g, ast.Attribute)
                                else None)
                        if name in STENCIL_SOLVES:
                            found.append(f"{f.name}.{name}")
    return sorted(found)


def test_pressure_path_calls_detected():
    src = ("class Ops:\n"
           "    def pressure_S(self, p):\n"
           "        # _diff(p) in a comment\n"
           "        return self.poisson_scalar(_diff(p, 0, 1.0))\n"
           "    def _sc_dirac_solve(self, g):\n"
           "        return g\n"
           "    def poisson_dirichlet(self, rhs):\n"
           "        return self.poisson_scalar(rhs)\n")
    assert pressure_path_calls(src) == ["pressure_S._diff",
                                        "pressure_S.poisson_scalar"]


def test_pressure_path_is_matrix_chains():
    assert pressure_path_calls((SRC / "operators.py").read_text()) == []


def name_readers(sources: dict[str, str], name: str) -> list[str]:
    """"module.scope" for each read of `name` in the modules `sources`
    (name -> source text): as a name, an attribute or an import, scope
    being the enclosing module-level function or class, or <module>.
    Definitions and docstrings do not count."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for top in tree.body:
            scope = (top.name if isinstance(top, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef,
                                                  ast.ClassDef))
                     else "<module>")
            for node in ast.walk(top):
                read = (node.id if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if read == name:
                    found.append(f"{module}.{scope}")
    return sorted(found)


def test_name_readers_detected():
    sources = {
        "grid": ('def _stride(v, axis):\n    """_stride in prose."""\n'
                 "    return 1\n"
                 "def _diff(v, axis):\n    return _stride(v, axis)\n"
                 "class Box:\n"
                 "    def step(self, v):\n        return _stride(v, 0)\n"),
        "operators": ("from .grid import _diff, _stride\n"
                      "from . import grid\n"
                      "def _dcen(v):\n    return grid._stride(v, 1)\n"),
    }
    assert name_readers(sources, "_stride") == [
        "grid.Box", "grid._diff", "operators.<module>", "operators._dcen"]


def test_stride_is_read_by_diff_alone():
    # grid._diff is the one flat-buffer stencil; the centered and second
    # differences are per-axis matrices (operators._stencil_matrix), so no
    # other function reads the flat-buffer stride
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert name_readers(sources, "_stride") == ["grid._diff"]


def test_one_unit_multiplication_table():
    # quaternion.UNIT_MUL, derived from LEFT_MUL, is the one table of how
    # e_j permutes and signs the components: every product goes through
    # quaternion._add_unit, and _gram_pairs reads the table to list the
    # terms of ||D+u||^2 (its import is solvers.<module>)
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(name_readers(sources, "LEFT_MUL")) == {"quaternion.<module>"}
    assert name_readers(sources, "UNIT_MUL") == [
        "quaternion._add_unit", "solvers.<module>", "solvers._gram_pairs"]


def test_face_order_is_read_from_face_blocks():
    # grid._face_blocks is the one face order: build_domain lists the faces
    # by it and OperatorSet.cauchy walks the same blocks
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert name_readers(sources, "_face_blocks") == [
        "grid.build_domain", "operators.<module>", "operators.OperatorSet"]


def _is_collar_slice(node) -> bool:
    """Whether node spells the one-cell collar slice: 1:-1 or slice(1, -1)."""
    def const(n):
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            inner = const(n.operand)
            return None if inner is None else -inner
        return n.value if isinstance(n, ast.Constant) else None

    if isinstance(node, ast.Slice):
        return (node.step is None and const(node.lower) == 1
                and const(node.upper) == -1)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "slice" and not node.keywords
            and [const(a) for a in node.args] == [1, -1])


def collar_slices(source: str) -> list[int]:
    """The line of each three-axis collar index a module spells: a tuple
    (a subscript's index included) holding three 1:-1 or slice(1, -1)
    entries, or such a one-entry tuple times 3. grid._inner is the one
    statement of the non-collar block."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Tuple):
            hits = sum(map(_is_collar_slice, node.elts))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
              and isinstance(node.left, ast.Tuple)
              and isinstance(node.right, ast.Constant)
              and type(node.right.value) is int):
            hits = sum(map(_is_collar_slice, node.left.elts)) * node.right.value
        else:
            continue
        if hits >= 3:
            found.append(node.lineno)
    return found


def test_collar_slices_detected():
    src = ("inner = (Ellipsis, slice(1, -1), slice(1, -1), slice(1, -1))\n"
           "def f(g, w):\n"
           "    # g[:, 1:-1, 1:-1, 1:-1] in a comment\n"
           "    a = g[:, 1:-1, 1:-1, 1:-1]\n"
           "    b = g[(slice(1, -1),) * 3]\n"
           "    c = g[1:-1, 1:-1] + g[:, 1:-2, 1:-1, 1:-1] + g[w:-w, w:-w, w:-w]\n"
           "    return g[1:-1:2, 1:-1, 1:-1, 1:-1], (1, -1, 1, -1, 1, -1)\n")
    assert collar_slices(src) == [1, 4, 5, 7]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_no_collar_slices_outside_grid(path):
    assert collar_slices(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml requires Python >= 3.10, and CI runs 3.11
    ast.parse(path.read_text(), feature_version=(3, 10))


def numpy_random_refs(source: str) -> list[str]:
    """The reads of numpy's random module in a module: an attribute
    `random` of a name (np.random), an import of numpy.random or from it,
    and the name default_rng anywhere; docstrings and comments do not
    count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name == "default_rng":
            found.append(name)
        elif (isinstance(node, ast.Attribute) and name == "random"
              and isinstance(node.value, ast.Name)):
            found.append(f"{node.value.id}.random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy.random":
                found.append("numpy.random")
            elif node.module == "numpy":
                found += [a.name for a in node.names if a.name == "random"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("numpy.random")]
    return sorted(found)


def test_numpy_random_refs_detected():
    src = ('"""Draws from np.random in prose only."""\n'
           "import numpy as np\n"
           "import numpy.random\n"
           "from numpy import random\n"
           "from numpy.random import default_rng\n"
           "# np.random.default_rng(0) in a comment\n"
           "x = np.random.standard_normal(3) + default_rng(1).random()\n")
    assert numpy_random_refs(src) == ["default_rng", "np.random",
                                      "numpy.random", "numpy.random", "random"]


@pytest.mark.parametrize("name", ["solvers.py", "mhd.py", "cli.py"])
def test_solve_path_names_no_numpy_random(name):
    # importing numpy.random costs a solve process about 15 ms and 5 MiB;
    # the constants and the convection norm's start vector draw from
    # sampling's SplitMix64 stream instead
    assert numpy_random_refs((SRC / name).read_text()) == []
