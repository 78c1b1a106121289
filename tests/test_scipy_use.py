"""Where the library uses scipy: only the line solver's LP (solve_minimax).

The planar steps of the four-section iteration (Chebyshev centres and
halfplane clips) run without it.  The linprog calls are counted by a test
wrapper, as the library has no trace of its own.
"""

import ast
from pathlib import Path

import numpy as np

import ccproj
from ccproj import (browder_four_sections, chebyshev_center, chebyshev_line, convex_hull,
                    gen_quadric, gen_random_fan)
from test_transversal import count_linprog


def package_nodes():
    """(module, enclosing function, node) for every node of the package
    source, found by walking each module's syntax tree."""

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = where + (child.name,)
            yield module, ".".join(inner), child
            yield from visit(child, module, inner)

    for path in sorted(Path(ccproj.__file__).parent.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())


def scipy_imports() -> list:
    """(module, enclosing function) of every scipy import in the package
    source."""
    found = []
    for module, where, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        found.extend((module, where) for name in names if name.split(".")[0] == "scipy")
    return found


def linprog_calls() -> list:
    """(module, enclosing function, keywords) of every call of a name or
    attribute linprog in the package source, each keyword's value read as
    a literal (None where it is not one)."""

    def literal(value):
        try:
            return ast.literal_eval(value)
        except ValueError:
            return None

    return [(module, where, {k.arg: literal(k.value) for k in node.keywords})
            for module, where, node in package_nodes()
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "linprog"]


def test_scipy_is_imported_only_by_the_line_solver():
    assert scipy_imports() == [("transversal", "solve_minimax")]


def test_the_line_solver_runs_highs_without_presolve():
    # the depth LP has 5 columns: presolve has nothing to remove from it and
    # only adds its own pass, so the one linprog call keeps it off
    [(module, where, keywords)] = linprog_calls()
    assert (module, where) == ("transversal", "solve_minimax")
    assert keywords["method"] == "highs"
    assert keywords["options"] == {"presolve": False}


def test_planar_steps_run_without_linprog(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    tri = convex_hull([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.allclose(chebyshev_center(tri), [1.0, 1.0], rtol=0.0, atol=1e-15)
    res = browder_four_sections(gen_quadric(12, 64).fan, indices=(0, 3, 6, 9))
    assert res.converged and res.line.value <= 1e-7
    for seed in range(5):
        browder_four_sections(gen_random_fan(seed).fan)


def test_the_line_solver_still_calls_linprog(monkeypatch):
    # linprog calls per operation on the transversal benchmark stay above
    # zero: chebyshev_line and helly_verify solve the depth LP with it
    calls = count_linprog(monkeypatch)
    fan = gen_random_fan(0).fan
    browder_four_sections(fan)
    assert calls == []
    chebyshev_line(fan)
    assert len(calls) >= 1
