"""Every parameter of every function in the library is read.

A parameter no body reads is an option that changes nothing: callers can
set it and see no effect.  The check parses the sources with `ast`; `self`,
`cls` and names starting with `_` are exempt.
"""

import ast
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
