"""Scene files, generators, and mesh export.

A scene is a fan plus tolerance overrides and the generator seed,
serialized as UTF-8 JSON text with every number printed with 17
significant digits, so parse(serialize(scene)) is byte-identical.
serialize fills one fixed template, one %-format per sample and per vertex
array ("%.17g" is the text of format(x, ".17g")).  parse reads the whole
document at once: all thetas and all vertices in one conversion each, and
one stacked `planar._convex_cycle` certificate per vertex count proves
samples are their own hulls; only the rest take convex_hull, one by one.

Generators produce validated fans: the quadric family (unit-disk sections
in the canonical unit charts; in the chart x2 != 0 these are the disks
u^2 + v^2 <= 1 + w^2 of the standard signature-(2,2) quadric) and seeded
random fans built from coupled-ellipse quadric bodies refined by random
surgeries, which preserves validity by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain
from operator import getitem

import numpy as np

from .fan import SectionFan, validate
from .planar import ConvexPolygon, _certified_cycles, _ear_terms, _roll_to_min, convex_hull
from .projcore import (PI, DEFAULT_TOL, ArcSegment, DegenerateInput, GeometryError,
                       PencilFrame, Tolerances)


class SceneFormatError(GeometryError):
    """Scene text is not a valid scene document."""


@dataclass(frozen=True)
class Scene:
    fan: SectionFan
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None


# ---------------------------------------------------------------------------
# Serialization (byte-exact round trip)
# ---------------------------------------------------------------------------

_VEC4 = "[%.17g, %.17g, %.17g, %.17g]"
_SAMPLE = '{"theta": %.17g, "chart": {"origin": ' + _VEC4 + ', "u": %s, "v": %s}, "vertices": %s}'


def _pairs(v: np.ndarray) -> str:
    """An (n, 2) vertex array as the JSON text [[x, y], ...], in one format."""
    return ("[" + ", ".join(["[%.17g, %.17g]"] * len(v)) + "]") % tuple(v.ravel().tolist())


def serialize(scene: Scene) -> str:
    f, fr = scene.fan, scene.fan.frame
    u, v = _VEC4 % tuple(fr.g0.tolist()), _VEC4 % tuple(fr.g1.tolist())
    origins = f.plane_rows[1].tolist()
    samples = ", ".join(_SAMPLE % (t, *o, u, v, _pairs(s.vertices))
                        for t, o, s in zip(f.thetas.tolist(), origins, f.sections))
    tolerances = ", ".join('"%s": %.17g' % (k, float(x))
                           for k, x in sorted(scene.tolerances.items()))
    return ('{"format": "ccproj-scene", "version": 1, "frame": {"space": %s, "g0": %s, '
            '"g1": %s, "h2": %s, "h3": %s}, "samples": [%s], "tolerances": {%s}, '
            '"seed": %s, "validated": %s}\n'
            % (json.dumps(fr.space), u, v, _VEC4 % tuple(fr.h2.tolist()),
               _VEC4 % tuple(fr.h3.tolist()), samples, tolerances,
               "null" if scene.seed is None else "%d" % scene.seed,
               "true" if f.validated else "false"))


def parse(text: str) -> Scene:
    """Scene from its JSON text.

    Total: any document that is not a scene (bad JSON, a NaN or infinite
    number, a missing key, a value of the wrong type or shape, a version
    other than 1, fewer than 3 samples, a sample that is not a strictly
    convex counterclockwise polygon, a sample chart that is not the
    canonical unit chart of its plane within eps_incid, a non-orthonormal
    frame or one in neither space, validated not a JSON boolean, seed
    neither an integer nor null, a JSON boolean among the numbers of a
    frame vector, a chart or a vertex array) raises SceneFormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise SceneFormatError("not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or doc.get("format") != "ccproj-scene":
        raise SceneFormatError("missing ccproj-scene format marker")
    try:
        return _scene_from_doc(doc)
    except KeyError as exc:
        raise SceneFormatError("missing key %s" % exc) from exc
    except (TypeError, ValueError, OverflowError, DegenerateInput) as exc:
        raise SceneFormatError("malformed scene: %s" % exc) from exc


def _numbers(x, ndim: int) -> np.ndarray:
    """x as a float array of ndim dimensions; only finite JSON numbers pass
    (Python's json reads NaN, Infinity and 1e999 as floats)."""
    arr = np.asarray(x)
    ok = arr.ndim == ndim and arr.dtype.kind in "iuf" and np.all(np.isfinite(arr))
    if ok and ndim:  # numpy reads a JSON boolean among numbers as 0 or 1
        at = zip(*[i.tolist() for i in np.nonzero((arr == 0) | (arr == 1))])
        ok = bool not in {type(reduce(getitem, i, x)) for i in at}
    if not ok:
        raise SceneFormatError("expected finite numbers of rank %d, got %s"
                               % (ndim, json.dumps(x)[:80]))
    return arr.astype(float)


def _sample(s) -> tuple:
    """(theta, polygon) of one sample document, or the error naming it."""
    theta = float(_numbers(s["theta"], 0))
    verts = _numbers(s["vertices"], 2)
    if verts.shape[1] != 2:
        raise SceneFormatError("sample at theta=%s: vertices are not (u, v) pairs" % theta)
    poly = convex_hull(verts)
    if not np.array_equal(poly.vertices, _roll_to_min(verts)):
        raise SceneFormatError("sample at theta=%s: vertices are not in strictly convex "
                               "counterclockwise position" % theta)
    return theta, poly


def _samples(raw) -> list:
    """`_sample` of every sample document, stacked.  A certified row is its
    own hull: the sample rotated, or reversed when clockwise, which its
    first ear shows (`_ear_terms`' sign; the certificate's margin exceeds
    its rounding).  Points, segments, clockwise and declined rows take
    `_sample` in document order, so the first bad sample raises its own
    error; so does every row of a document the stacked conversion refuses
    (a missing key, a theta that is not a float, a JSON boolean, ...)."""
    try:
        thetas = [s["theta"] for s in raw]
        counts = np.array([len(s["vertices"]) for s in raw], dtype=int)
        verts = _numbers([p for s in raw for p in s["vertices"]], 2)
        stacked = (all(type(t) is float for t in thetas) and np.isfinite(thetas).all()
                   and counts.all() and verts.shape[1] == 2)
    except (KeyError, TypeError, ValueError, SceneFormatError):
        stacked = False
    if not stacked:
        return [_sample(s) for s in raw]
    first = np.cumsum(counts) - counts
    polys = _certified_cycles(verts, counts, DEFAULT_TOL.eps_convex * np.maximum(
        1.0, np.maximum.reduceat(np.abs(verts).max(axis=1), first)))
    ear = verts[np.stack([first + counts - 1, first, np.minimum(first + 1, len(verts) - 1)], 1)]
    cw = _ear_terms(ear)[0][:, 1] > 0.0
    return [(t, p) if p is not None and not c else _sample(s)
            for t, p, c, s in zip(thetas, polys, cw, raw)]


def _check_charts(frame: PencilFrame, raw, thetas, eps: float) -> None:
    """Raise unless every sample's chart (origin, u, v) is the canonical unit
    chart of its plane, PencilFrame.origin(theta mod pi), g0 and g1, within
    eps in max-norm: one comparison of the stacked (k, 12) charts.  The
    charts' many zeros and ones make `_numbers`' JSON boolean test slow, so
    the types of all entries are checked at once instead."""
    vecs = [s["chart"][key] for s in raw for key in ("origin", "u", "v")]
    flat = list(chain.from_iterable(vecs))
    if set(map(len, vecs)) != {4} or not set(map(type, flat)) <= {int, float}:
        raise SceneFormatError("a sample chart is not three 4-vectors origin, u, v")
    want = np.concatenate((frame.plane_rows(np.array(thetas) % PI)[1], np.broadcast_to(
        np.concatenate((frame.g0, frame.g1)), (len(thetas), 8))), axis=1)
    charts = np.array(flat, dtype=float).reshape(-1, 12)
    ok = (np.abs(charts - want) <= eps).all(axis=1)  # False for NaN too
    if not ok.all():
        raise SceneFormatError("sample at theta=%s: chart is not the canonical unit chart "
                               "of its plane" % thetas[int(np.argmin(ok))])


def _scene_from_doc(doc: dict) -> Scene:
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise SceneFormatError("version must be 1, got %s" % json.dumps(doc["version"])[:80])
    fr = doc["frame"]
    g0, g1, h2, h3 = _numbers([fr[key] for key in ("g0", "g1", "h2", "h3")], 2)
    if fr.get("space", "primal") not in ("primal", "dual"):
        raise SceneFormatError("frame space must be primal or dual")
    frame = PencilFrame(g0, g1, h2, h3, fr.get("space", "primal"))
    samples = _samples(doc["samples"])
    validated = doc.get("validated", False)
    seed = doc.get("seed")
    if not isinstance(validated, bool):
        raise SceneFormatError("validated must be true or false")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SceneFormatError("seed must be an integer or null")
    fan = SectionFan.create(frame, samples, validated=validated)
    tolerances = {k: float(_numbers(v, 0))
                  for k, v in dict(doc.get("tolerances", {})).items()}
    # TypeError for an unknown key, ValueError for a bad value
    tol = replace(DEFAULT_TOL, **tolerances)
    _check_charts(frame, doc["samples"], [t for t, _ in samples], tol.eps_incid)
    return Scene(fan, tolerances, seed)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _mgon(radius: float, m: int) -> ConvexPolygon:
    a = 2.0 * PI * np.arange(m) / m
    return convex_hull(np.stack([radius * np.cos(a), radius * np.sin(a)], axis=1))


def quadric_thetas(k: int) -> np.ndarray:
    """Pencil parameters of tan-spaced slope samples w = tan(psi)."""
    psis = -PI / 2 + PI * (np.arange(k) + 0.5) / k
    ws = np.tan(psis)
    return np.sort(np.arctan2(1.0, -ws) % PI)


def gen_quadric(k: int = 12, m: int = 64, mode: str = "inscribed",
                tol: Tolerances = DEFAULT_TOL) -> Scene:
    """Fan of the standard quadric body: every section is the unit disk in
    its unit chart, rendered as a regular m-gon (inscribed or
    circumscribed).  Inscribed mode is contained in the body exactly."""
    if k < 3 or m < 8:
        raise ValueError("need k >= 3 and m >= 8")
    if mode not in ("inscribed", "circumscribed"):
        raise ValueError("mode must be inscribed or circumscribed")
    r = 1.0 if mode == "inscribed" else 1.0 / np.cos(PI / m)
    frame = PencilFrame.standard()
    fan = SectionFan.create(frame, [(float(t), _mgon(r, m))
                                    for t in quadric_thetas(k)])
    report = validate(fan, tol)
    if not report.ok:
        raise GeometryError("generated quadric fan failed validation")
    fan = SectionFan(fan.frame, fan.thetas, fan.sections, validated=True)
    return Scene(fan, {}, None)


def _ellipse_section(P, N, C, theta: float, m: int) -> ConvexPolygon:
    o = np.array([-np.sin(theta), np.cos(theta)])
    w0 = -np.linalg.solve(P, C @ o)
    rho = float(o @ N @ o + (C @ o) @ np.linalg.solve(P, C @ o))
    a = 2.0 * PI * np.arange(m) / m
    circ = np.stack([np.cos(a), np.sin(a)], axis=1) * np.sqrt(rho)
    L = np.linalg.cholesky(np.linalg.inv(P))
    return convex_hull(w0[None, :] + circ @ L.T)


def gen_random_fan(seed: int, k: int = 12, complexity: int = 2, m: int = 48,
                   tol: Tolerances = DEFAULT_TOL) -> Scene:
    """Seeded random valid fan.

    Starts from a random coupled-ellipse quadric body (positive-definite
    blocks on L and its complement, small off-diagonal coupling) sampled at
    jittered parameters, then applies `complexity` random hull/pointing
    surgeries; both preserve validity.  Deterministic in the seed.
    """
    from .surgery import surgery_p, surgery_s

    rng = np.random.default_rng(seed)

    def rand_spd(scale_lo, scale_hi):
        ang = rng.uniform(0, PI)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        return rot @ np.diag(rng.uniform(scale_lo, scale_hi, size=2)) @ rot.T

    P = rand_spd(0.6, 1.6)
    N = rand_spd(0.5, 2.5)
    C = rng.normal(scale=0.15, size=(2, 2))
    jitter = rng.uniform(-0.25, 0.25, size=k) / k
    thetas = np.sort(((np.arange(k) + 0.5) / k + jitter) * PI) % PI
    frame = PencilFrame.standard()
    fan = SectionFan.create(frame, [(float(t), _ellipse_section(P, N, C, float(t), m))
                                    for t in thetas])
    for _ in range(int(complexity)):
        kind = rng.choice(["S", "P"])
        a = rng.uniform(0, PI)
        length = rng.uniform(0.15, 0.45) * PI
        arc = ArcSegment(a, (a + length) % PI)
        if kind == "S":
            fan = surgery_s(fan, arc, tol)
        else:
            fan = surgery_p(fan, arc, tol)
    report = validate(fan, tol)
    if not report.ok:
        raise GeometryError("random fan generation failed validation (seed %d): %s"
                            % (seed, "; ".join(report.messages[:2])))
    fan = SectionFan(fan.frame, fan.thetas, fan.sections, validated=True)
    return Scene(fan, {}, int(seed))


# ---------------------------------------------------------------------------
# Mesh export
# ---------------------------------------------------------------------------

def export_mesh(fan: SectionFan) -> str:
    """Indexed triangle mesh of the boundary surface, "ccmesh 1" format.

    Header line "ccmesh 1"; vertex lines "v x y z"; face lines "f i j k"
    with 1-based indices.  Section polygons are embedded in the affine
    chart whose infinity plane sits in the largest sample gap and lofted
    ring-to-ring across the k-1 finite gaps; the wrap gap passes through
    the chart's infinity plane and is omitted.
    """
    from .transversal import build_solver_chart

    chart = build_solver_chart(fan)
    rings = [np.column_stack([p.vertices, np.full(p.n, float(h))])
             for p, h in zip(chart.polys, chart.heights)]
    offsets = np.cumsum([0] + [len(ring) for ring in rings])
    xyz = np.vstack(rings)
    lines = ["ccmesh 1",
             "\n".join(["v %.17g %.17g %.17g"] * len(xyz)) % tuple(xyz.ravel().tolist())]

    def ring_angles(ring):
        c = ring[:, :2].mean(axis=0)
        return np.arctan2(ring[:, 1] - c[1], ring[:, 0] - c[0]) % (2 * PI)

    for j in range(chart.m - 1):
        r1, r2 = rings[j], rings[j + 1]
        a1 = ring_angles(r1)
        a2 = ring_angles(r2)
        o1 = np.argsort(a1)
        o2 = np.argsort(a2)
        i1 = i2 = 0
        n1, n2 = len(o1), len(o2)
        while i1 < n1 or i2 < n2:
            next1 = a1[o1[(i1 + 1) % n1]] + (2 * PI if i1 + 1 >= n1 else 0)
            next2 = a2[o2[(i2 + 1) % n2]] + (2 * PI if i2 + 1 >= n2 else 0)
            va = offsets[j] + o1[i1 % n1]
            vb = offsets[j + 1] + o2[i2 % n2]
            if i1 < n1 and (i2 >= n2 or next1 <= next2):
                vc = offsets[j] + o1[(i1 + 1) % n1]
                i1 += 1
            else:
                vc = offsets[j + 1] + o2[(i2 + 1) % n2]
                i2 += 1
            lines.append("f %d %d %d" % (va + 1, vb + 1, vc + 1))
    return "\n".join(lines) + "\n"
