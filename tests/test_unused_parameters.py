"""Every parameter of every function in the library is read, every name a
library module imports is used, and every module-level constant is read.

A parameter no body reads is an option that changes nothing: callers can
set it and see no effect.  An import no line uses is a dependency that does
nothing, and a constant no line reads is a setting that does nothing.  The
checks parse the sources with `ast`; `self`, `cls` and parameter names
starting with `_` are exempt, and so is the package's `__init__`, whose
imports are its exports.
"""

import ast
import re
from pathlib import Path

import ccproj

SOURCES = sorted(Path(ccproj.__file__).parent.glob("*.py"))


def _unread_parameters(tree: ast.AST) -> list:
    """(function name, line, parameter) for each parameter of a function or
    lambda in tree that its body (nested scopes included) never loads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(getattr(fn, "name", "<lambda>"), fn.lineno, p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return out


def _unused_imports(tree: ast.AST) -> list:
    """(line, name) for each name an import in tree binds (from __future__
    aside) that no expression of the module loads."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in node.names)
            if name not in loaded]


def test_every_import_is_used():
    unused = ["%s:%d %s" % (path.name, line, name) for path in SOURCES
              if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_guard_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from math import pi, tau\n"
                     "def f():\n"
                     "    from sys import argv\n"
                     "    return np.zeros(1) * tau\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "pi"), (6, "argv")]


def test_every_parameter_is_read():
    assert len(SOURCES) >= 10
    unread = ["%s:%d %s(%s)" % (path.name, line, name, arg) for path in SOURCES
              for name, line, arg in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_guard_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c, *rest, d=1, **kw):\n"
                     "    g = lambda x, y: x\n"
                     "    return a + d + g(kw, 0)\n")
    assert _unread_parameters(tree) == [("f", 1, "b"), ("f", 1, "rest"),
                                        ("<lambda>", 2, "y")]


def _unread_constants(trees: dict) -> list:
    """(module, line, name) for each module-level UPPER_CASE name that a
    module of trees (name -> tree) binds and no module loads, by name or as
    a module attribute."""
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return [(module, node.lineno, n.id) for module, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for n in ast.walk(target)
            if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id)
            and n.id not in loaded]


def test_every_constant_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _unread_constants(trees) == []


def test_guard_flags_an_unread_constant():
    trees = {"a.py": ast.parse("LIMIT = 3\n"
                               "LOW, HIGH = 1, 2\n"
                               "SCALE: float = 2.0\n"
                               "Point = tuple\n"
                               "def f(x):\n"
                               "    TINY = 1e-9\n"
                               "    return x * SCALE + TINY\n"),
             "b.py": ast.parse("import a\n"
                               "print(a.LIMIT)\n")}
    assert _unread_constants(trees) == [("a.py", 2, "LOW"), ("a.py", 2, "HIGH")]
