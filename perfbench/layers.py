"""Per-layer metrics of a traced run.

Layer kernels are timed from spans.  A kernel the workload's operations
call is timed on those calls; one they never call is timed in a separate
kernel pass, on the workload's own kernel fans, so every workload reports
every layer.  The planar kernels are always timed in the kernel pass,
because the operations reach them only from inside the library.
"""

from __future__ import annotations

import statistics

import numpy as np

from ccproj import Scene, l_dual, serialize
from ccproj.projcore import PI, ArcSegment, ProjLine

from workloads import OCT_DIRS, run_cli

# metric name -> (span name, scale from seconds to the unit, unit)
KERNEL_METRICS = {
    "planar.convex_hull_us": ("planar.convex_hull", 1e6, "us"),
    "planar.minkowski_scaled_sum_us": ("planar.minkowski_scaled_sum", 1e6, "us"),
    "planar.polar_dual_us": ("planar.polar_dual", 1e6, "us"),
    "planar.distance_us": ("planar.distance", 1e6, "us"),
    "planar.chebyshev_center_us": ("planar.chebyshev_center", 1e6, "us"),
    "fan.validate_ms": ("fan.validate", 1e3, "ms"),
    "fan.section_at_us": ("fan.section_at", 1e6, "us"),
    "fan.project_from_us": ("fan.project_from", 1e6, "us"),
    "dualize.l_dual_ms": ("dualize.l_dual", 1e3, "ms"),
    "dualize.involution_residual_ms": ("dualize.involution_residual", 1e3, "ms"),
    "dualize.point_in_fan_us": ("dualize.point_in_fan", 1e6, "us"),
    "dualize.plane_meets_all_sections_us":
        ("dualize.plane_meets_all_sections", 1e6, "us"),
    "surgery.surgery_s_ms": ("surgery.surgery_s", 1e3, "ms"),
    "surgery.surgery_p_ms": ("surgery.surgery_p", 1e3, "ms"),
    "surgery.octagonalize_ms": ("surgery.octagonalize", 1e3, "ms"),
    "transversal.chebyshev_line_ms": ("transversal.chebyshev_line", 1e3, "ms"),
    "transversal.helly_verify_ms": ("transversal.helly_verify", 1e3, "ms"),
    "transversal.browder_four_sections_ms":
        ("transversal.browder_four_sections", 1e3, "ms"),
    "transversal.certify_line_us": ("transversal.certify_line", 1e6, "us"),
    "eulercalc.chi_section_us": ("eulercalc.chi_section", 1e6, "us"),
    "scene.parse_ms": ("scene.parse", 1e3, "ms"),
    "scene.serialize_ms": ("scene.serialize", 1e3, "ms"),
}

# metric name -> (span names, count key, unit): the mean count per call
COUNT_METRICS = {
    "transversal.solver_iterations":
        (("transversal.chebyshev_line",), "iterations", "count"),
    "transversal.target_hit_ratio":
        (("transversal.chebyshev_line",), "target_hit", "ratio"),
    "transversal.browder_converged_ratio":
        (("transversal.browder_four_sections",), "converged", "ratio"),
    "dualize.vertices_out": (("dualize.l_dual",), "vertices_out", "count"),
    "surgery.vertices_out": (("surgery.surgery_s", "surgery.surgery_p",
                              "surgery.octagonalize"), "vertices_out", "count"),
}

# Layers whose span self time is reported per operation.
BUSY_LAYERS = ("scene", "fan", "dualize", "surgery", "transversal", "eulercalc",
               "scipy")
SURGERY_ARCS = ((0.2, 1.0), (0.0, 1.5708))


def _planes(n: int = 4):
    return np.random.default_rng(0).normal(size=(n, 4))


def _mid_gaps(fan, n: int = 8):
    idx = np.unique(np.linspace(0, fan.k - 1, min(n, fan.k)).astype(int))
    nxt = np.append(fan.thetas[1:], fan.thetas[0] + PI)
    return [float((fan.thetas[i] + nxt[i]) / 2 % PI) for i in idx]


def _spread(fan, n: int = 4):
    return tuple(int(i) for i in np.linspace(0, fan.k, n, endpoint=False))


def _centroid_line(fan) -> ProjLine:
    i, j = _spread(fan, 2)
    return ProjLine(np.vstack([
        fan.frame.section_point(float(fan.thetas[k]), *fan.sections[k].centroid())
        for k in (i, j)]))


def _cli_section(api, fan):
    run_cli(api.main, ["section", "--in", "-", "--theta", "0.5"],
            serialize(Scene(fan)))


# span name -> kernel(api, fan): calls on one kernel fan
KERNELS = {
    "planar.convex_hull": lambda api, f: [api.convex_hull(s.vertices)
                                          for s in f.sections],
    "planar.minkowski_scaled_sum": lambda api, f: [
        api.minkowski_scaled_sum(0.5, f.sections[i - 1], 0.5, f.sections[i])
        for i in range(f.k)],
    "planar.polar_dual": lambda api, f: [api.polar_dual(s, s.centroid())
                                         for s in f.sections],
    "planar.distance": lambda api, f: [
        api.distance(p, s) for s in f.sections
        for p in (s.centroid(), 2.0 * s.vertices[0] - s.centroid())],
    "planar.chebyshev_center": lambda api, f: [api.chebyshev_center(s)
                                               for s in f.sections],
    "fan.validate": lambda api, f: api.validate(f),
    "fan.section_at": lambda api, f: [api.section_at(f, t) for t in _mid_gaps(f)],
    "fan.project_from": lambda api, f: [api.project_from(f, psi)
                                        for psi in np.arange(8) * PI / 8 + 0.1],
    "dualize.l_dual": lambda api, f: api.l_dual(f),
    "dualize.involution_residual": lambda api, f: api.involution_residual(f),
    "dualize.point_in_fan": lambda api, f: [api.point_in_fan(d, xi)
                                            for d in [l_dual(f)] for xi in _planes()],
    "dualize.plane_meets_all_sections": lambda api, f: [
        api.plane_meets_all_sections(f, xi) for xi in _planes()],
    "surgery.surgery_s": lambda api, f: api.surgery_s(f, ArcSegment(*SURGERY_ARCS[0])),
    "surgery.surgery_p": lambda api, f: api.surgery_p(f, ArcSegment(*SURGERY_ARCS[1])),
    "surgery.octagonalize": lambda api, f: api.octagonalize(f, OCT_DIRS),
    "transversal.chebyshev_line": lambda api, f: api.chebyshev_line(
        f, target=1e-7 * f.diameter()),
    "transversal.browder_four_sections": lambda api, f: api.browder_four_sections(
        f, _spread(f)),
    "transversal.certify_line": lambda api, f: api.certify_line(f, _centroid_line(f)),
    "eulercalc.chi_section": lambda api, f: [api.chi_section(f, xi) for xi in _planes()],
    "scene.parse": lambda api, f: api.parse(serialize(Scene(f))),
    "scene.serialize": lambda api, f: api.serialize(Scene(f)),
    "cli.main": _cli_section,
}


def _by_name(tracer) -> dict:
    out = {}
    for sp, self_s in zip(tracer.spans, tracer.self_seconds()):
        out.setdefault(sp.name, []).append((sp, self_s))
    return out


def run_kernels(workload, api, loop_tracer) -> None:
    """Time, on the workload's kernel fans, every kernel its operations never
    called.  helly_verify, whose cost grows as k choose 5, runs only on the
    kernel fan with the fewest samples."""
    called = {sp.name for sp in loop_tracer.spans}
    for name, kernel in KERNELS.items():
        if name not in called:
            for f in workload.kernel_fans:
                kernel(api, f)
    if "transversal.helly_verify" not in called:
        api.helly_verify(min(workload.kernel_fans, key=lambda f: f.k))


def span_paths(tracer) -> dict:
    """Calls and total seconds per span path, such as
    ``op.validate/cli.main/fan.validate``: the parentage of every span."""
    paths, out = [], {}
    for sp in tracer.spans:
        path = sp.name if sp.parent < 0 else paths[sp.parent] + "/" + sp.name
        paths.append(path)
        calls, seconds = out.get(path, (0, 0.0))
        out[path] = (calls + 1, seconds + sp.seconds)
    return out


def layer_metrics(loop_tracer, kernel_tracer, n_ops: int,
                  untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    loop, kern = _by_name(loop_tracer), _by_name(kernel_tracer)

    def spans(name):
        return loop.get(name) or kern.get(name, [])

    out = {}
    for metric, (name, scale, unit) in KERNEL_METRICS.items():
        out[metric] = (scale * statistics.median(sp.seconds for sp, _ in spans(name)),
                       unit)
    for metric, (names, key, unit) in COUNT_METRICS.items():
        vals = [sp.counts[key] for n in names for sp, _ in spans(n)
                if key in sp.counts]
        out[metric] = (float(np.mean(vals)), unit)
    out["cli.self_ms"] = (1e3 * statistics.median(s for _, s in spans("cli.main")), "ms")
    for layer in BUSY_LAYERS:
        busy = sum(s for name, rows in loop.items() if name.startswith(layer + ".")
                   for _, s in rows)
        out[layer + ".self_ms_per_op"] = (1e3 * busy / n_ops, "ms")
    out["scipy.linprog_calls_per_op"] = (len(loop.get("scipy.linprog", [])) / n_ops,
                                         "count")
    layer_spans = sum(len(rows) for name, rows in loop.items()
                      if not name.startswith("op."))
    out["trace.spans_per_op"] = (layer_spans / n_ops, "count")
    out["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return out
