"""2D convex geometry inside one pencil plane.

Convex polygons live in the affine chart of their plane in which the line L
sits at infinity, so "direction points on L" are literal direction classes
of parallel lines.  Polygons are canonically ordered (counterclockwise,
starting at the lexicographic minimum) and degenerate polygons (single
points and segments) are first-class.

Hulls come from Andrew's monotone chain (de Berg et al., *Computational
Geometry*, ch. 1) with a dedup and a collinear merge under eps.  Most hull
calls (parsing a scene, polar duals, dual and clipped sections) receive a
polygon that is already a hull, in cyclic order; `_convex_cycle` certifies
those with a few vectorized passes and returns them rotated, bit-identical
to the chain's output, so the chain runs only on points it may change.

All functions are pure and values are treated as immutable.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .projcore import (PI, DEFAULT_TOL, DegenerateInput, Tolerances, cached_method,
                       wrap_angle)


class RefNotInterior(DegenerateInput):
    """Polar-dual reference point is not strictly interior."""


class DegenerateQuadrangle(DegenerateInput):
    """Arc endpoints give a single direction class; no tangent quadrangle."""


# ---------------------------------------------------------------------------
# Convex polygons
# ---------------------------------------------------------------------------

def _ear_terms(cycle: np.ndarray):
    """(cross, d, e, ln) at every vertex v of a cycle, with neighbors u, w:
    cross = e x d for e = w - u and d = v - u (negative where the cycle
    turns left at v) and ln = |e|.  A (P, n, 2) stack of cycles gives
    (P, n) arrays."""
    u = np.concatenate((cycle[..., -1:, :], cycle[..., :-1, :]), axis=-2)
    e = np.concatenate((cycle[..., 1:, :], cycle[..., :1, :]), axis=-2) - u
    d = cycle - u
    return (e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0], d, e,
            np.hypot(e[..., 0], e[..., 1]))


def _chord_distances(cycle: np.ndarray) -> np.ndarray:
    """Distance of every vertex v of a cycle (or a (P, n, 2) stack) to the
    chord of its neighbors u, w: |e x d| / |e| for e = w - u, d = v - u where
    v projects into the chord, immune to the near-collinear cross-product
    pitfall; else the distance to the nearer end (a flat cycle's vertex
    beyond its neighbors is extreme, not collinear)."""
    cross, d, e, ln = _ear_terms(cycle)
    dot = e[..., 0] * d[..., 0] + e[..., 1] * d[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(cross) / ln
    f = d - e  # v - w
    dist = np.where(dot > ln * ln, np.hypot(f[..., 0], f[..., 1]), dist)
    return np.where((dot < 0.0) | (ln == 0.0), np.hypot(d[..., 0], d[..., 1]), dist)


def _chord_distance(u, v, w) -> float:
    """`_chord_distances` for one vertex v, in the same float operations."""
    e0, e1 = w[0] - u[0], w[1] - u[1]
    d0, d1 = v[0] - u[0], v[1] - u[1]
    ln = float(np.hypot(e0, e1))
    dot = e0 * d0 + e1 * d1
    if dot < 0.0 or ln == 0.0:
        return float(np.hypot(d0, d1))
    if dot > ln * ln:
        return float(np.hypot(d0 - e0, d1 - e1))
    return abs(e0 * d1 - e1 * d0) / ln


def _merge_collinear(cycle: np.ndarray, eps: float) -> np.ndarray:
    """Drop vertices within eps of the chord of their neighbors.

    Safe simplification: a pop moves the boundary by at most eps (the
    guard is a true point-to-chord distance), but pops add up, so every
    input vertex lies within pops * eps of the result; a vertex that
    genuinely sticks out is never discarded.

    The result is that of repeatedly popping the first vertex within eps
    of its chord, rescanning from index 0 after every pop.  Popping index i
    changes only the triples now at i-1 and i, plus the triple at 0 when
    the last vertex pops, so the scan resumes at i-1 (at 0 when i was 0 or
    the last index) and makes the same pops in the same order with
    O(n + pops) distance evaluations instead of O(n * pops).  A cycle with
    no vertex within eps, the common case, is screened in one numpy pass
    and returned unchanged."""
    cand = np.flatnonzero(_chord_distances(cycle) <= eps)
    if len(cand) == 0:
        return cycle
    pts = cycle.tolist()
    i = int(cand[0])
    while len(pts) > 2 and i < len(pts):
        if _chord_distance(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) <= eps:
            last = len(pts) - 1
            pts.pop(i)
            i = i - 1 if 0 < i < last else 0
        else:
            i += 1
    return np.array(pts)


def _chain(pts: list) -> list:
    """One monotone chain: pops while cross(b - a, p - a) <= 0 for the last
    two kept points a, b."""
    out = []
    for p in pts:
        px, py = p
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def _roll_to_min(v: np.ndarray) -> np.ndarray:
    """The cycle rotated to start at its lexicographic minimum."""
    start = int(np.lexsort((v[:, 1], v[:, 0]))[0])
    return np.concatenate((v[start:], v[:start]))


# Ear cross products of a certified convex cycle are below -EAR_MARGIN * s^2,
# s = max(1, max |coordinate|): 128 unit roundoffs, four times the rounding
# error of one cross product in _chain.
EAR_MARGIN = 128 * 2.0 ** -53


def _some(flags) -> bool:
    """flags.any(), without its overhead for a numpy scalar."""
    return bool(flags) if flags.ndim == 0 else bool(flags.any())


def _convex_cycle(points: np.ndarray, eps):
    """Certify point cycles as hulls: one (n, 2) cycle, or a (P, n, 2)
    stack of them row by row, with eps a scalar or one value per row.

    Returns (ok, cycles): where ok (a flag per row) holds, cycles is the
    monotone chain's result for those points under that eps.  A row is
    accepted when its n >= 3 points form a cycle, in either orientation, and
    1. consecutive points in lexicographic order differ by more than eps in
       max-norm: the chain's dedup test, in the same float operations, so
       it keeps every point;
    2. along the cycle the points rise lexicographically and then fall, once,
       so they form one x-monotone loop;
    3. every ear cross product (`_ear_terms`, in counterclockwise order) is
       below -EAR_MARGIN * s^2: every turn is strictly left, by a margin.
       With 2, the edge directions then wind once around, turning left at
       every vertex, so the points are a strictly convex polygon;
    4. every chord distance exceeds eps, in `_chord_distances`' float
       operations, so `_merge_collinear`'s screen pops nothing (rows with
       no line distance within 2 eps skip it: no chord is nearer).
    The float chain then keeps every point, in cyclic order.  The smallest
    triangle on the vertices of a convex polygon is an ear (the distance of
    a vertex to a line through two others is unimodal along the boundary),
    so every cross(b - a, p - a) the chain evaluates is, in exact
    arithmetic, at least as large in magnitude as the least exact ear,
    which exceeds 95 u s^2 (u = 2^-53; a computed ear is off by at most
    32 u s^2).  The chain's own value is off by at most 32 u s^2 as well
    (two products of differences of magnitude <= 2s, and their
    difference), so it has the exact sign and every pop decision is the
    exact one.  The result, the points rotated to their lexicographic
    minimum, equals the chain's bit for bit.  Every step is elementwise or
    a reduction along one row, so a row's verdict and cycle do not depend
    on the other rows.  A single row is declined before any step that
    could overflow or divide by zero; in a stack, such steps may run on
    rows that are declined anyway.
    """
    n = points.shape[-2]
    if n < 3:
        return np.zeros(points.shape[:-2], dtype=bool), points
    top = np.abs(points).max(axis=(-2, -1))
    ok = top < 2.0 ** 500  # no overflow; also rejects NaN and infinities
    if not _some(ok):
        return ok, points
    rows = (np.arange(len(points)),) if points.ndim == 3 else ()
    by_row = tuple(r[:, None] for r in rows)
    order = np.lexsort((points[..., 1], points[..., 0]))
    srt = points[by_row + (order,)]
    gap = np.abs(srt[..., 1:, :] - srt[..., :-1, :])
    ok &= np.maximum(gap[..., 0], gap[..., 1]).min(axis=-1) > eps
    # ranks 0 .. n-1 rise and fall once around the cycle iff their total
    # variation is 2 (n - 1)
    rank = np.empty_like(order)
    rank[by_row + (order,)] = np.arange(n)
    ok &= (np.abs(rank[..., 1:] - rank[..., :-1]).sum(axis=-1)
           + np.abs(rank[..., 0] - rank[..., -1]) == 2 * (n - 1))
    if not _some(ok):
        return ok, points
    start = order[..., 0]
    cross, _, _, ln = _ear_terms(points)
    cw = cross[rows + (start,)] > 0.0
    if _some(cw):  # clockwise rows reversed: their chord terms round differently
        points = np.where(cw[..., None, None], points[..., ::-1, :], points)
        start = np.where(cw, n - 1 - start, start)
        cross, _, _, ln = _ear_terms(points)
    scale = np.maximum(1.0, top)
    ok &= cross.max(axis=-1) < -EAR_MARGIN * scale * scale
    if not _some(ok):
        return ok, points
    near = (np.abs(cross) / ln).min(axis=-1)  # ln > 0 where ok: no ear is flat
    if _some(near <= 2.0 * eps):  # the factor 2 absorbs rounding
        near = _chord_distances(points).min(axis=-1)
    ok &= near > eps
    if not rows:
        return ok, np.concatenate((points[start:], points[:start]))
    return ok, points[by_row + ((start[:, None] + np.arange(n)) % n,)]


def _certified_cycles(pts: np.ndarray, sizes, eps) -> list:
    """`_convex_cycle` on the cycles stacked in pts, row i of sizes[i]
    points, grouped by size: a ConvexPolygon where it certifies, else None."""
    out, first = [None] * len(sizes), np.cumsum(sizes) - sizes
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        ok, cycles = _convex_cycle(pts[first[rows][:, None] + np.arange(n)], eps[rows])
        for r, c in zip(rows[ok], cycles[ok]):
            out[r] = ConvexPolygon(c)
    return out


def _hull_cycle(points: np.ndarray, eps: float) -> np.ndarray:
    """Andrew monotone chain; ccw from the lexicographic minimum.

    Points that already form a strictly convex cycle are certified by
    `_convex_cycle` and returned rotated, bit-identical to the chain's
    output, without running it.  The chain pops on exact cross <= 0 (never
    discarding a point that strictly sticks out, however slightly);
    near-collinear survivors are merged afterwards under a point-to-chord
    distance guard: each pop moves the hull by up to eps, and pops add up
    (`_merge_collinear`).  Before the chain, a point within eps in max-norm
    of the last one kept (in lexicographic order) is dropped, up to
    sqrt(2) eps from a kept point.  In all, every input point lies within
    sqrt(2) eps + pops * eps of the result, plus sqrt(2) eps when a segment
    within eps collapses to its first point.  The scans run on Python
    floats, in the same IEEE operations as the numpy formulas."""
    ok, fast = _convex_cycle(points, eps)
    if ok:
        return fast
    pts = points[np.lexsort((points[:, 1], points[:, 0]))].tolist()
    keep = [pts[0]]
    for p in pts[1:]:
        q = keep[-1]
        if max(abs(p[0] - q[0]), abs(p[1] - q[1])) > eps:
            keep.append(p)
    if len(keep) <= 2:
        return np.array(keep)
    # chain on the points scaled by 2^k, largest coordinate near 2^500: a
    # cross product of subnormal differences would round to 0 and pop a
    # point that sticks out; scaling up by a power of two is exact both
    # ways and leaves every sign test that does not underflow as it was.
    # Above 2^500, k < 0 scales down so that no product overflows, and the
    # merge runs on the scaled cycle with eps 2^k, in the same decisions
    k = 500 - math.frexp(float(np.abs(keep).max()))[1]
    scaled = np.ldexp(keep, k).tolist()
    lower = _chain(scaled)
    upper = _chain(scaled[::-1])
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:
        out = np.ldexp([lower[0], lower[-1]], -k)
    elif k < 0:
        out = np.ldexp(_merge_collinear(np.array(cycle), math.ldexp(eps, k)), -k)
    else:
        out = _merge_collinear(np.ldexp(cycle, -k), eps)
    if len(out) == 2 and np.max(np.abs(out[1] - out[0])) <= eps:
        return np.array([min(out.tolist())])  # a segment within eps is a point
    return _roll_to_min(out)


@dataclass(frozen=True)
class ConvexPolygon:
    """Compact convex polygon; vertices ccw from the lexicographic minimum.

    Degeneracy is the vertex count: single points and segments (n < 3) are
    degenerate, every other polygon is not.
    """

    vertices: np.ndarray

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float).reshape(-1, 2).copy()
        if len(verts) == 0:
            raise DegenerateInput("polygon needs at least one vertex")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3

    @cached_property
    def scale(self) -> float:
        return max(1.0, float(np.abs(self.vertices).max()))

    @cached_method
    def diameter(self) -> float:
        v = self.vertices
        if len(v) == 1:
            return 0.0
        dx = np.subtract.outer(v[:, 0], v[:, 0])
        dy = np.subtract.outer(v[:, 1], v[:, 1])
        return float(np.sqrt(np.max(dx * dx + dy * dy)))

    @cached_property
    def section_stack(self) -> "SectionStack":
        """The polygon as a one-section `SectionStack`."""
        return stack_sections((self,))

    def centroid(self) -> np.ndarray:
        return np.mean(self.vertices, axis=0)

    def support(self, dirs) -> np.ndarray:
        """Support function values max_x <d, x> for an (k,2) array of directions."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.max(dirs @ self.vertices.T, axis=1)

    def support_interval(self, normal) -> tuple:
        """(min, max) of <normal, x> over the polygon."""
        vals = self.vertices @ np.asarray(normal, dtype=float)
        return float(np.min(vals)), float(np.max(vals))

    def edges(self) -> np.ndarray:
        v = self.vertices
        return np.roll(v, -1, axis=0) - v

    def translated(self, offset) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices + np.asarray(offset, dtype=float))

    def scaled(self, factor: float) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices * float(factor))

    def negated(self) -> "ConvexPolygon":
        """Point reflection through the origin, rotated back to start at
        the lexicographic minimum (a half-turn keeps ccw order)."""
        return ConvexPolygon(_roll_to_min(-self.vertices))

    def __repr__(self):
        return "ConvexPolygon(n=%d%s)" % (self.n, ", degenerate" if self.degenerate else "")


def convex_hull(points, tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Convex hull in canonical ccw order; degenerate inputs allowed."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise DegenerateInput("empty point set")
    scale = max(1.0, float(np.max(np.abs(pts))))
    cycle = _hull_cycle(pts, tol.eps_convex * scale)
    return ConvexPolygon(cycle)


# ---------------------------------------------------------------------------
# Polar duality
# ---------------------------------------------------------------------------

def _edge_halfplanes(v: np.ndarray):
    """Outward unit edge normals n and offsets b = n·v of a ccw cycle (n, 2)
    or a (P, n, 2) stack of them: the half-planes {x : n·x <= b}.  A
    zero-length edge gives NaN rows."""
    e = np.roll(v, -1, axis=-2) - v
    ln = np.sqrt(e[..., 1] * e[..., 1] + e[..., 0] * e[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        nrm = np.stack([e[..., 1] / ln, -e[..., 0] / ln], axis=-1)
    return nrm, np.sum(nrm * v, axis=-1)


def interior_margin(poly: ConvexPolygon, p) -> float:
    """Signed distance from p to the edge lines; positive strictly inside."""
    if poly.n <= 2:
        return -distance(p, poly)
    nrm, b = _edge_halfplanes(poly.vertices)
    good = ~np.isnan(b)  # zero-length edges skipped
    return float(np.min(b[good] - nrm[good] @ np.asarray(p, dtype=float)))


def polar_dual(poly: ConvexPolygon, ref, tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Polar dual around an interior reference point.

    Realizes the set of lines not meeting the polygon, in the affine chart
    of lines <xi, x - ref> = 1.  k-gon -> k-gon; applying it twice around
    the same reference returns the original.
    """
    ref = np.asarray(ref, dtype=float)
    if poly.degenerate:
        raise RefNotInterior("degenerate polygon has no interior")
    margin = interior_margin(poly, ref)
    if margin <= tol.eps_convex * poly.scale:
        raise RefNotInterior("reference point is not strictly interior")
    v = poly.vertices - ref[None, :]
    w = np.roll(v, -1, axis=0)
    # dual vertex of edge (v_i, v_{i+1}): solves <xi, v_i> = <xi, v_{i+1}> = 1
    det = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    xi = np.stack([(w[:, 1] - v[:, 1]) / det, (v[:, 0] - w[:, 0]) / det], axis=1)
    return convex_hull(xi, tol)


# ---------------------------------------------------------------------------
# Minkowski combinations
# ---------------------------------------------------------------------------

MERGE_TINY = 1e-12  # radians: sorted edges of a sum at most this far apart merge
MinkowskiPlan = namedtuple("MinkowskiPlan", "P Q starts cur nxt heads wrap")


def minkowski_plan(P: ConvexPolygon, Q: ConvexPolygon) -> MinkowskiPlan:
    """What a*P + b*Q takes from P and Q alone (see `minkowski_scaled_sum`):
    each operand's min-(y, x) vertex (starts, rows of the concatenated
    vertices of P and Q), the (current, next) vertex rows of every edge in
    the angle order of the unscaled edges (cur, nxt), the heads of the
    merge runs, and the length of the wrap run, moved to the front (wrap, 0
    for none).  A positive weight does not turn an edge, so this order is
    the sum's for all weights: the plan is the definition, and sorting the
    scaled edges differs from it only in how near-ties round."""
    v = np.concatenate((P.vertices, Q.vertices))
    starts, cur, nxt = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for first, w in ((0, P.vertices), (P.n, Q.vertices)):
        n, s = len(w), int(np.lexsort((w[:, 0], w[:, 1]))[0])
        starts.append(first + s)
        if n > 1:  # a point has no edge
            cur.append(first + (s + np.arange(n)) % n)
            nxt.append(first + (s + np.arange(1, n + 1)) % n)
    cur, nxt = np.concatenate(cur), np.concatenate(nxt)
    e = v[nxt] - v[cur]
    ang = np.arctan2(e[:, 1], e[:, 0]) % (2.0 * PI)
    # a falling edge whose arctan2 underflows to -0 enters its start: last
    ang[(e[:, 1] < 0.0) & (ang == 0.0)] = 2.0 * PI
    order = np.argsort(ang, kind="stable")
    ang, cur, nxt = ang[order], cur[order], nxt[order]
    heads = np.flatnonzero(np.diff(ang, prepend=-np.inf) > MERGE_TINY)
    wrap = 0
    if len(heads) > 1 and ang[0] + 2.0 * PI - ang[-1] <= MERGE_TINY:
        # the last run wraps across 0 into the first: the cycle starts at its head
        wrap = len(ang) - int(heads[-1])
        cur, nxt = np.roll(cur, wrap), np.roll(nxt, wrap)
        heads = np.concatenate(([0], heads[1:-1] + wrap))
    for x in (cur, nxt, heads):  # cached on immutable fans
        x.setflags(write=False)
    return MinkowskiPlan(P, Q, tuple(starts), cur, nxt, heads, wrap)


def planned_sum(plan: MinkowskiPlan, a: float, b: float,
                tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """a*P + b*Q for positive scalars from the plan of P and Q: the scaled
    vertices, the edge vectors, the merge, the partial sums and the hull
    certificate.  The plan's starts, edge order, runs and wrap hold for
    every a and b as they are."""
    v = np.concatenate((plan.P.vertices * float(a), plan.Q.vertices * float(b)))
    start = v[plan.starts[0]] + v[plan.starts[1]]
    if len(plan.cur) == 0:
        return ConvexPolygon(start)
    edges = v[plan.nxt] - v[plan.cur]
    if plan.wrap:
        start = start - edges[:plan.wrap].sum(axis=0)
    merged = np.add.reduceat(edges, plan.heads, axis=0)
    pts = start + np.cumsum(merged[:-1], axis=0)
    return convex_hull(np.vstack([start, pts]), tol)


def minkowski_scaled_sum(a: float, P: ConvexPolygon, b: float, Q: ConvexPolygon,
                         tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Minkowski sum a*P + b*Q for nonnegative scalars, by edge merging (de
    Berg et al., *Computational Geometry*, section 13.3).

    Both operands' edges, sorted by angle from the sum's min-(y, x) vertex,
    are summed up after each run of consecutive angles at most MERGE_TINY
    apart (also across 0 and 2 pi) is merged into one edge: adjacent fan
    sections share edge normals, and an unmerged pair leaves a collinear
    vertex.  So `_convex_cycle` can certify the sum; where it declines (a
    merged edge within eps, say) the chain decides.  A run of r edges spans
    at most (r - 1) * MERGE_TINY radians, so the merge moves the boundary by
    at most that times the run's length, far below the chain's eps_convex *
    scale merge.

    Only the scaled vertices, the edge vectors, their sums and the
    certificate depend on a and b (`planned_sum`).  The starts, the edge
    order, the runs and the wrap depend on P and Q alone: `minkowski_plan`
    finds them once on the unscaled operands, and a SectionFan keeps one
    plan per gap for every theta in it.  A positive weight does not turn an
    edge, so the plan's order of the unscaled edges is the definition of
    the sum.  Sorting the scaled edges instead differs only in the rounding
    of near-ties: scaling rounds every vertex, so two edges parallel up to
    an ulp can swap, a bottom edge tilted by an ulp can move a start to its
    other end, and an edge at the MERGE_TINY boundary of a run can leave or
    join it.
    """
    if a < 0 or b < 0:
        raise ValueError("scalars must be nonnegative")
    if a == 0.0:
        return Q.scaled(b) if b != 1.0 else Q
    if b == 0.0:
        return P.scaled(a) if a != 1.0 else P
    return planned_sum(minkowski_plan(P, Q), a, b, tol)


# ---------------------------------------------------------------------------
# Distances and containment
# ---------------------------------------------------------------------------

SectionStack = namedtuple("SectionStack", "v e ee screen real points")
SectionStack.__doc__ = """k sections padded to one vertex count (`stack_sections`), for
`_edge_feet`: query point i against section i, or every query point against
the one section of a 1-stack (a polygon's `section_stack`)."""


def stack_sections(polys) -> SectionStack:
    """k polygons padded to n vertices, from one concatenation of their
    vertex cycles: vertices v and edge vectors e (k, n, 2), where a padded
    entry repeats the first vertex (it closes the cycle; its edge is 0),
    squared edge lengths ee (k, n), 1 where 0, the inside screen (k,),
    -1e-15 * max|v|**2 for a polygon (unclamped: s·p screens against s·P as p
    against P) and NaN for a point or segment, real (k, n), False at the
    padding, and the indices of the point sections."""
    if len(polys) == 1:  # nothing to pad
        n = polys[0].n
        v, real = polys[0].vertices[None], np.ones((1, n), dtype=bool)
        points = np.arange(int(n == 1))
    else:
        counts = np.array([p.n for p in polys])
        j = np.arange(counts.max())
        real = j < counts[:, None]
        first = (np.cumsum(counts) - counts)[:, None]
        v = np.concatenate([p.vertices for p in polys])[first + np.where(real, j, 0)]
        points = np.flatnonzero(counts == 1)
    e = np.concatenate((v[:, 1:], v[:, :1]), axis=1) - v
    ee = e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1]
    ee[ee == 0.0] = 1.0
    screen = np.where([p.n >= 3 for p in polys], -1e-15 * np.abs(v).max(axis=(1, 2)) ** 2, np.nan)
    stack = SectionStack(v, e, ee, screen, real, points)
    for a in stack:  # cached on immutable polygons, fans and charts
        a.setflags(write=False)
    return stack


def _edge_feet(p: np.ndarray, s: SectionStack):
    """(inside, t, dists) of the query points p (m, 2): p[i] against
    section i of s, or every p[i] against the one section of a 1-stack.
    inside[i]: p[i] passes the inside screen (cross >= screen on every
    edge).  Edge j's nearest point to p[i] is v[j] + t[i, j] * e[j], at
    distance dists[i, j], +inf at the padding, whose foot (vertex 0) can
    come out an ulp nearer than the true one; t and dists are None when
    every p[i] is inside.  Four (m, n) buffers of x and y components are
    reused in place; every entry has the bits of the one-point computation."""
    vx, vy, ex, ey = s.v[..., 0], s.v[..., 1], s.e[..., 0], s.e[..., 1]
    px, py = p[:, :1], p[:, 1:]
    rx, ry = px - vx, py - vy
    a, b = ex * ry, ey * rx
    a -= b  # the cross products; a padded one is 0
    inside = (a >= s.screen[:, None]).all(axis=1)
    if inside.all():
        return inside, None, None
    t = np.multiply(rx, ex, out=a)
    t += np.multiply(ry, ey, out=b)
    t /= s.ee
    np.clip(t, 0.0, 1.0, out=t)
    for r, q, w, e in ((rx, px, vx, ex), (ry, py, vy, ey)):  # r = (p - (v + t e))**2
        np.multiply(t, e, out=b)
        b += w
        np.subtract(q, b, out=r)
        r *= r
    rx += ry
    dists = np.sqrt(rx, out=rx)
    np.copyto(dists, np.inf, where=~s.real)
    return inside, t, dists


def _distances(pts: np.ndarray, s: SectionStack) -> np.ndarray:
    """The least of `_edge_feet`'s distances for each query point; 0 inside."""
    inside, _, dists = _edge_feet(pts, s)
    return np.zeros(len(pts)) if dists is None else np.where(inside, 0.0, dists.min(axis=1))


def section_distances(pts: np.ndarray, s: SectionStack) -> np.ndarray:
    """Distance from pts[i] (k, 2) to section i of s; 0 inside or on it.  A
    point section takes the 1-D `np.linalg.norm`: a stacked norm rounds
    differently."""
    out = _distances(pts, s)
    for i in s.points:
        out[i] = np.linalg.norm(pts[i] - s.v[i, 0])
    return out


def distance(p, poly: ConvexPolygon) -> float:
    """Euclidean distance from a point to the polygon; 0 inside or on it.

    Convex as a function of p.
    """
    return float(section_distances(np.asarray(p, dtype=float)[None], poly.section_stack)[0])


def nearest_point(p, poly: ConvexPolygon) -> np.ndarray:
    """Closest point of the polygon to p (p itself when inside)."""
    p = np.asarray(p, dtype=float)
    if poly.n == 1:
        return poly.vertices[0].copy()
    s = poly.section_stack
    inside, t, dists = _edge_feet(p[None], s)
    if inside[0]:
        return p.copy()
    j = int(np.argmin(dists[0]))
    return s.v[0, j] + t[0, j] * s.e[0, j]


def hausdorff(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Hausdorff distance between two compact convex polygons: the largest
    `_edge_feet` distance of a vertex of either to the other."""
    return float(max(_distances(P.vertices, Q.section_stack).max(),
                     _distances(Q.vertices, P.section_stack).max()))


def contains_polygon(P: ConvexPolygon, Q: ConvexPolygon, eps: float = 0.0) -> bool:
    """True if Q is contained in P within eps."""
    return float(_distances(Q.vertices, P.section_stack).max()) <= eps


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

def halfplane_clip(vertices: np.ndarray, normal, offset: float,
                   eps: float = 1e-12) -> np.ndarray:
    """Clip a convex ccw vertex cycle to the halfplane {x : n.x <= offset}.

    The signed values n.v - offset come from one numpy product (a BLAS
    kernel may fuse its multiply and add, which Python floats cannot
    reproduce); the walk along the edges and each crossing point
    a + t (b - a) run on Python floats, in the IEEE operations numpy's
    elementwise ones make.  A cycle inside the halfplane is returned as
    it came."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = np.asarray(normal, dtype=float)
    if len(v) == 0:
        return v
    if len(v) == 1:
        return v if float(v[0] @ n) <= offset + eps else v[:0]
    vals = v @ n - offset
    if (vals <= eps).all():
        return v
    vals, pts = vals.tolist(), v.tolist()
    wrap = len(pts) > 2  # a segment has no closing edge
    out = []
    for a, b, fa, fb in zip(pts, pts[1:] + pts[:wrap], vals, vals[1:] + vals[:wrap]):
        if fa <= eps:
            out.append(a)
        if (fa < -eps and fb > eps) or (fa > eps and fb < -eps):
            t = fa / (fa - fb)
            out.append([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])])
    if not wrap and vals[1] <= eps:
        out.append(pts[1])
    return np.array(out) if out else np.zeros((0, 2))


def intersect_halfplanes(halfplanes, seed_vertices: np.ndarray,
                         tol: Tolerances = DEFAULT_TOL):
    """Intersection of halfplanes {n.x <= c} clipped out of a seed polygon.

    Returns a ConvexPolygon, or None when the intersection is empty.
    """
    verts = np.asarray(seed_vertices, dtype=float)
    scale = max(1.0, float(np.max(np.abs(verts))))
    for n, c in halfplanes:
        verts = halfplane_clip(verts, n, c, eps=tol.eps_convex * scale)
        if len(verts) == 0:
            return None
    return convex_hull(verts, tol)


def intersect_polygons(P: ConvexPolygon, Q: ConvexPolygon,
                       tol: Tolerances = DEFAULT_TOL):
    """Intersection of two convex polygons; None when empty."""
    if Q.n < 3:
        # degenerate Q: clip Q against P instead
        P, Q = Q, P
        if Q.n < 3:
            # both degenerate: brute segment/point handling
            if P.n == 1:
                return P if distance(P.vertices[0], Q) <= 1e-12 * Q.scale else None
            if Q.n == 1:
                return Q if distance(Q.vertices[0], P) <= 1e-12 * P.scale else None
            raise DegenerateInput("segment-segment intersection is not supported")
    v = Q.vertices
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    b = np.sum(nrm * v, axis=1)
    return intersect_halfplanes(zip(nrm, b), P.vertices, tol)


# ---------------------------------------------------------------------------
# Chebyshev center (largest inscribed disk)
# ---------------------------------------------------------------------------

LP_TIE = 2.0 ** -40  # relative size below which chebyshev_center counts a change as 0


def _times3(m, v):
    """The 3x3 matrix m (nested lists) times the 3-vector v."""
    return [r0 * v[0] + r1 * v[1] + r2 * v[2] for r0, r1, r2 in m]


def _gain(d) -> int:
    """What the move d = (dx, dy, dr) gains: 2 if it raises r, 1 if it keeps
    r and lowers x, or keeps x and lowers y, else 0.  Components within
    LP_TIE of the move's largest count as zero, so a move and its reverse
    never both gain."""
    tie = LP_TIE * max(map(abs, d))
    if abs(d[2]) > tie:
        return 2 if d[2] > 0.0 else 0
    return int(d[0] < -tie or (d[0] <= tie and d[1] < -tie))


def _inverse3(m):
    """Inverse of a 3x3 matrix (nested lists) by cofactors; None if singular."""
    (a, b, c), (d, e, f), (g, h, i) = m
    A, B, C = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * A + b * B + c * C
    if det == 0.0:
        return None
    r = 1.0 / det
    return [[A * r, (c * h - b * i) * r, (b * f - c * e) * r],
            [B * r, (a * i - c * g) * r, (c * d - a * f) * r],
            [C * r, (b * g - a * h) * r, (a * e - b * d) * r]]


def _largest_disk(poly: ConvexPolygon):
    """(centre, r) of `chebyshev_center`'s LP at the basis its simplex
    stops at, or None for a singular or endless pivot sequence."""
    nrm, b = _edge_halfplanes(poly.vertices)
    good = ~np.isnan(b)  # zero-length edges skipped, as in interior_margin
    m = int(good.sum())
    a = np.empty((m + 1, 3))
    a[:m, :2], a[:m, 2], a[m] = nrm[good], 1.0, (0.0, 0.0, -1.0)
    b = np.append(b[good], 0.0)
    rows, rhs = a.tolist(), b.tolist()
    basis = [m - 1, 0, m]  # the edges into and out of vertex 0, and r >= 0
    zero_slack = LP_TIE * poly.scale
    for _ in range(10 * m + 50):
        basis_rows = [rows[k] for k in basis]
        inv = _inverse3(basis_rows)
        if inv is None:
            return None
        # a solve and one refinement: at a sliver's sharp vertex the
        # cofactor solve alone leaves the tight rows off by cond * ulp
        x = _times3(inv, [rhs[k] for k in basis])
        res = [rhs[k] - t for k, t in zip(basis, _times3(basis_rows, x))]
        x = [xi + ci for xi, ci in zip(x, _times3(inv, res))]
        # leaving basis row j moves (x, y, r) along d = -inv[:, j], which
        # opens row j's slack at unit rate and keeps the other two tight
        j, d = max(((j, [-inv[0][j], -inv[1][j], -inv[2][j]])
                    for j in sorted(range(3), key=basis.__getitem__)),
                   key=lambda move: _gain(move[1]))
        if _gain(d) == 0:
            return np.array(x[:2]), x[2]
        rate = a @ d
        rate[basis] = 0.0
        slack = b - a @ x
        slack[slack <= zero_slack] = 0.0
        ahead = rate > LP_TIE * max(map(abs, d))
        if not ahead.any():
            return None
        step = np.full(m + 1, np.inf)
        step[ahead] = slack[ahead] / rate[ahead]
        basis[j] = int(np.argmin(step))
    return None


def chebyshev_center(poly: ConvexPolygon):
    """Center of the largest inscribed disk.

    Solves the LP max r subject to n_i·x + r <= b_i over the unit edge rows
    of `_edge_halfplanes` (zero-length edges skipped) and r >= 0 with a
    dense primal simplex on its vertices (x, r): three tight rows make a
    basis, solved anew at every step.  It starts at vertex 0 (on a
    canonical polygon the lexicographically smallest) with r = 0 and
    pivots by Bland's rule, first on r and then, once no move raises r, on
    (x, y) among the moves that keep r: of the moves that gain most
    (`_gain`), the one off the basis row of least index, onto the row of
    least index among the nearest ones in the ratio test.  Neither phase
    can cycle in exact arithmetic (at most 10 m + 50 pivots for m edges).

    Tie rule: the objective is lexicographic (largest r, then least x, then
    least y), so where the largest disks form a segment of centres the
    lexicographically smallest maximiser is returned, a point that depends
    on the polygon alone.  A move's components within LP_TIE of its
    largest, and slacks within LP_TIE of the scale, count as zero: radii
    that differ by rounding are tied.  Polygons with n <= 2, and a
    singular or endless pivot sequence, give the centroid."""
    disk = None if poly.n <= 2 else _largest_disk(poly)
    return poly.centroid() if disk is None else disk[0]


# ---------------------------------------------------------------------------
# Tangent quadrangle for pointing a set with respect to an arc on L
# ---------------------------------------------------------------------------

def quadrangle_corners(support, arc_start: float, arc_end: float,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The two corners (..., 2, 2) of the support quadrangle whose support
    cones avoid the open direction arc (ccw, period pi), each a 2x2 solve of
    two support lines, from the support intervals (..., 2, 2) =
    support(normals) along the endpoint normals.  Parallel endpoint
    directions raise before support is called."""
    a, b = wrap_angle(arc_start), wrap_angle(arc_end)
    s = np.sin(b - a)
    if abs(s) <= tol.eps_convex:
        raise DegenerateQuadrangle("arc endpoints give parallel tangent directions")
    normals = np.array([[-np.sin(a), np.cos(a)], [-np.sin(b), np.cos(b)]])
    iv = support(normals)
    b0, b1 = (0, 1) if s > 0 else (1, 0)
    rhs = np.stack([iv[..., 0, 1], iv[..., 1, b0], iv[..., 0, 0], iv[..., 1, b1]], axis=-1)
    return np.linalg.solve(normals, rhs.reshape(rhs.shape[:-1] + (2, 2, 1)))[..., 0]


def tangent_quadrangle_corners(poly: ConvexPolygon, arc_start: float, arc_end: float,
                               tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """`quadrangle_corners` of one polygon."""
    return quadrangle_corners(
        lambda nrm: np.array([poly.support_interval(n) for n in nrm]), arc_start, arc_end, tol)


def hulls_with_corners(verts: np.ndarray, starts, corners: np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> list:
    """convex_hull(vstack(section i, corners[i])) for the ccw cycles
    verts[starts[i]:starts[i + 1]] and corners (k, 2, 2).  The edges a
    corner sees form one run on a convex cycle: the corner replaces the
    vertices inside it, after the run's head, and `_convex_cycle` certifies
    the spliced cycles (grouped by length) as the chain would.  Points,
    segments, rows where a corner sees no edge or two runs, or both see one
    edge, rows with two lexicographically consecutive points within eps
    (the chain's dedup would drop one), and declined rows take the hull."""
    k, counts = len(corners), np.diff(np.append(starts, len(verts)))
    sec, idx = np.repeat(np.arange(k), counts), np.arange(len(verts))
    nxt, prv = idx + 1, idx - 1
    nxt[starts + counts - 1], prv[starts] = starts, starts + counts - 1
    e, rel = verts[nxt] - verts, corners[sec] - verts[:, None, :]
    vis = e[:, None, 0] * rel[..., 1] - e[:, None, 1] * rel[..., 0] < 0.0  # edge i, corner q
    head, drop = vis & ~vis[prv], (vis & vis[prv]).any(axis=1)
    runs = np.add.reduceat(np.c_[head, vis.all(axis=1)].astype(int), starts, axis=0)
    ok = (counts >= 3) & np.all(runs == [1, 1, 0], axis=1)
    eps = tol.eps_convex * np.maximum(1.0, np.maximum(
        np.maximum.reduceat(np.abs(verts).max(axis=1), starts), np.abs(corners).max(axis=(1, 2))))
    row, cloud = np.r_[sec, np.repeat(np.arange(k), 2)], np.r_[verts, corners.reshape(-1, 2)]
    order = np.lexsort((cloud[:, 1], cloud[:, 0], row))
    row, gap = row[order], np.abs(np.diff(cloud[order], axis=0)).max(axis=1)
    ok[row[1:][(row[1:] == row[:-1]) & (gap <= eps[row[1:]])]] = False
    keep = ok[sec] & ~drop
    heads = [np.flatnonzero(head[:, q] & ok[sec]) + 0.5 for q in (0, 1)]
    pts = np.concatenate([verts[keep], corners[ok, 0], corners[ok, 1]])
    pts = pts[np.argsort(np.concatenate([idx[keep]] + heads), kind="stable")]
    out = _certified_cycles(pts, np.add.reduceat(keep.astype(int), starts) + 2 * ok, eps)
    return [convex_hull(np.vstack([verts[a:a + n], c]), tol) if o is None else o
            for o, a, n, c in zip(out, starts, counts, corners)]
