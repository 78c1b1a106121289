"""In-memory spans around the library's public calls.

The benchmark calls the library through an *api* namespace: one attribute
per public function it uses.  Untraced, the attributes are the library
functions themselves.  Traced, each is wrapped in a span named
``<module>.<function>``; the span open when a call starts is its parent,
so every layer span hangs under the operation that issued it.

The CLI reaches the library through its own module globals, so a traced
run also swaps those globals (and scipy's ``linprog``, which the library
imports at call time) for wrapped versions while the run lasts.
"""

from __future__ import annotations

import contextlib
import inspect
import time
import types
from dataclasses import dataclass, field

from ccproj import cli, dualize, eulercalc, fan, planar, scene, surgery, transversal

# Every library function the benchmark calls directly, by attribute name.
PUBLIC = (
    cli.main,
    scene.parse, scene.serialize,
    planar.convex_hull, planar.minkowski_scaled_sum, planar.polar_dual,
    planar.distance, planar.chebyshev_center,
    fan.validate, fan.section_at, fan.project_from,
    dualize.l_dual, dualize.involution_residual, dualize.point_in_fan,
    dualize.plane_meets_all_sections,
    surgery.surgery_s, surgery.surgery_p, surgery.octagonalize,
    transversal.chebyshev_line, transversal.certify_line,
    transversal.browder_four_sections, transversal.helly_verify,
    eulercalc.chi_section,
)


def _fan_vertices(out, kwargs):
    return {"vertices_out": sum(s.n for s in out.sections)}


def _line_counts(out, kwargs):
    counts = {"iterations": out.iterations}
    if kwargs.get("target") is not None:
        counts["target_hit"] = float(out.value <= kwargs["target"])
    return counts


# Counts read from a call's result and stored on its span.
COUNTS = {
    "dualize.l_dual": _fan_vertices,
    "surgery.surgery_s": _fan_vertices,
    "surgery.surgery_p": _fan_vertices,
    "surgery.octagonalize": _fan_vertices,
    "transversal.chebyshev_line": _line_counts,
    "transversal.browder_four_sections":
        lambda out, kwargs: {"converged": float(out.converged)},
}


def span_name(fn) -> str:
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for an operation
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one run, kept in memory until the report is made."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else -1,
                               time.perf_counter()))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if count is not None:
                sp.counts = count(out, kwargs)
            return out

        traced.__name__ = fn.__name__
        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]


def make_api(tracer: Tracer | None = None) -> types.SimpleNamespace:
    """Namespace of the public functions, wrapped in spans when traced."""
    if tracer is None:
        return types.SimpleNamespace(**{f.__name__: f for f in PUBLIC})
    return types.SimpleNamespace(**{f.__name__: tracer.wrap(f) for f in PUBLIC})


def _traced_module(tracer: Tracer, mod) -> types.SimpleNamespace:
    return types.SimpleNamespace(**{
        n: tracer.wrap(f) for n, f in vars(mod).items()
        if inspect.isfunction(f) and not n.startswith("_")})


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the CLI's library calls and every linprog call through spans."""
    import scipy.optimize

    patches = {name: tracer.wrap(getattr(cli, name))
               for name in ("parse", "serialize", "validate", "section_at")}
    patches.update({mod.__name__.rsplit(".", 1)[-1]: _traced_module(tracer, mod)
                    for mod in (dualize, eulercalc, surgery, transversal)})
    saved = {name: getattr(cli, name) for name in patches}
    saved_linprog = scipy.optimize.linprog
    for name, value in patches.items():
        setattr(cli, name, value)
    scipy.optimize.linprog = tracer.wrap(saved_linprog, "scipy.linprog")
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)
        scipy.optimize.linprog = saved_linprog
