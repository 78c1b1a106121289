"""2D convex geometry inside one pencil plane.

Convex polygons live in the affine chart of their plane in which the line L
sits at infinity, so "direction points on L" are literal direction classes
of parallel lines.  Polygons are canonically ordered (counterclockwise,
starting at the lexicographic minimum) and degenerate polygons (single
points and segments) are first-class, carrying an explicit flag.

Hulls come from Andrew's monotone chain (de Berg et al., *Computational
Geometry*, ch. 1) with a dedup and a collinear merge under eps.  Most hull
calls (parsing a scene, polar duals, dual and clipped sections) receive a
polygon that is already a hull, in cyclic order; `_convex_cycle` certifies
those with a few vectorized passes and returns them rotated, bit-identical
to the chain's output, so the chain runs only on points it may change.

All functions are pure and values are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projcore import PI, DEFAULT_TOL, DegenerateInput, Tolerances, wrap_angle


class RefNotInterior(DegenerateInput):
    """Polar-dual reference point is not strictly interior."""


class DegenerateSupport(DegenerateInput):
    """Support slab has zero width (polygon is a segment parallel to the direction)."""


# ---------------------------------------------------------------------------
# Direction points on L
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirPoint:
    """Point on the chart's line at infinity: a direction class, period pi."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(self.angle))

    def vector(self) -> np.ndarray:
        return np.array([np.cos(self.angle), np.sin(self.angle)])

    def normal(self) -> np.ndarray:
        """Unit normal of lines with this direction."""
        return np.array([-np.sin(self.angle), np.cos(self.angle)])


def _as_angle(d) -> float:
    if isinstance(d, DirPoint):
        return d.angle
    return wrap_angle(float(d))


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


def _hull_cycle(points: np.ndarray, eps: float) -> np.ndarray:
    """Andrew monotone chain; ccw from the lexicographic minimum.

    Points that already form a strictly convex cycle are certified by
    `_convex_cycle` and returned rotated, bit-identical to the chain's
    output, without running it.  The chain pops on exact cross <= 0 (never
    discarding a point that strictly sticks out, however slightly);
    near-collinear survivors are merged afterwards under a point-to-chord
    distance guard: each pop moves the hull by up to eps, and pops add up
    (`_merge_collinear`).  The scans run on Python floats, in the same IEEE
    operations as the numpy formulas."""
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
    lower = _chain(keep)
    upper = _chain(keep[::-1])
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:
        out = np.array([lower[0], lower[-1]])
    else:
        out = _merge_collinear(np.array(cycle), eps)
    if len(out) == 2 and np.max(np.abs(out[1] - out[0])) <= eps:
        return np.array([min(out.tolist())])  # a segment within eps is a point
    return _roll_to_min(out)


@dataclass(frozen=True)
class ConvexPolygon:
    """Compact convex polygon; vertices ccw from the lexicographic minimum.

    degenerate is True for single points and segments.
    """

    vertices: np.ndarray
    degenerate: bool

    def __init__(self, vertices, degenerate=None):
        verts = np.asarray(vertices, dtype=float).reshape(-1, 2).copy()
        if len(verts) == 0:
            raise DegenerateInput("polygon needs at least one vertex")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(
            self, "degenerate", len(verts) < 3 if degenerate is None else bool(degenerate)
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.vertices))))

    def diameter(self) -> float:
        v = self.vertices
        if len(v) == 1:
            return 0.0
        dx = np.subtract.outer(v[:, 0], v[:, 0])
        dy = np.subtract.outer(v[:, 1], v[:, 1])
        return float(np.sqrt(np.max(dx * dx + dy * dy)))

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
        return ConvexPolygon(self.vertices + np.asarray(offset, dtype=float),
                             degenerate=self.degenerate)

    def scaled(self, factor: float) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices * float(factor), degenerate=self.degenerate)

    def negated(self) -> "ConvexPolygon":
        """Point reflection through the origin, rotated back to start at
        the lexicographic minimum (a half-turn keeps ccw order)."""
        return ConvexPolygon(_roll_to_min(-self.vertices), degenerate=self.degenerate)

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
# Support lines and slabs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportLines:
    """Two parallel support lines {x : n.x = c} of a polygon, direction d.

    The polygon lies in the closed slab c_low <= n.x <= c_high.  degenerate
    flags a zero-width slab (segment parallel to d); not fatal.
    """

    direction: DirPoint
    normal: np.ndarray
    c_low: float
    c_high: float
    degenerate: bool


def support_lines_through(poly: ConvexPolygon, d, tol: Tolerances = DEFAULT_TOL,
                          strict: bool = False) -> SupportLines:
    """The two support lines of poly with direction d (a point at infinity).

    A zero-width slab (poly is a segment parallel to d) is flagged, not
    fatal; pass strict=True to raise DegenerateSupport instead.
    """
    dp = d if isinstance(d, DirPoint) else DirPoint(_as_angle(d))
    n = dp.normal()
    lo, hi = poly.support_interval(n)
    degen = (hi - lo) <= tol.eps_convex * poly.scale
    if degen and strict:
        raise DegenerateSupport("support lines coincide for this direction")
    return SupportLines(dp, n, lo, hi, degen)


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

def minkowski_scaled_sum(a: float, P: ConvexPolygon, b: float, Q: ConvexPolygon,
                         tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Minkowski sum a*P + b*Q for nonnegative scalars, by edge merging (de
    Berg et al., *Computational Geometry*, section 13.3).

    Both operands' edges, sorted by angle from the sum's min-(y, x) vertex,
    are summed up after each run of consecutive angles at most `tiny` apart
    (also across 0 and 2 pi) is merged into one edge: adjacent fan sections
    share edge normals, and an unmerged pair leaves a collinear vertex.  So
    `_convex_cycle` can certify the sum; where it declines (a merged edge
    within eps, say) the chain decides.  A run of r edges spans at most
    (r - 1) * tiny radians, so the merge moves the boundary by at most that
    times the run's length, far below the chain's eps_convex * scale merge.
    """
    if a < 0 or b < 0:
        raise ValueError("scalars must be nonnegative")
    if a == 0.0:
        return Q.scaled(b) if b != 1.0 else Q
    if b == 0.0:
        return P.scaled(a) if a != 1.0 else P
    vp, vq = (np.roll(v, -int(np.lexsort((v[:, 0], v[:, 1]))[0]), axis=0)
              for v in (P.vertices * float(a), Q.vertices * float(b)))
    start = vp[0] + vq[0]
    edges = np.vstack([np.roll(v, -1, axis=0) - v for v in (vp, vq) if len(v) > 1]
                      + [np.zeros((0, 2))])
    if len(edges) == 0:
        return ConvexPolygon(start)
    tiny = 1e-12  # radians
    ang = np.arctan2(edges[:, 1], edges[:, 0]) % (2.0 * PI)
    order = np.argsort(ang, kind="stable")
    ang, edges = ang[order], edges[order]
    heads = np.flatnonzero(np.diff(ang, prepend=-np.inf) > tiny)
    if len(heads) > 1 and ang[0] + 2.0 * PI - ang[-1] <= tiny:
        # the last run wraps across 0 into the first: the cycle starts at its head
        k = heads[-1]
        start = start - edges[k:].sum(axis=0)
        edges = np.roll(edges, len(edges) - k, axis=0)
        heads = np.concatenate(([0], heads[1:-1] + (len(edges) - k)))
    merged = np.add.reduceat(edges, heads, axis=0)
    pts = start + np.cumsum(merged[:-1], axis=0)
    return convex_hull(np.vstack([start, pts]), tol)


# ---------------------------------------------------------------------------
# Distances and containment
# ---------------------------------------------------------------------------

def _edge_feet(p: np.ndarray, poly: ConvexPolygon):
    """(feet, dists): the nearest point of every edge segment to p (n >= 2)
    and its distance from p, or None when p is inside the polygon (n >= 3)."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    rel = p[None, :] - v
    if poly.n >= 3:
        cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
        if np.all(cross >= -1e-15 * poly.scale ** 2):
            return None
    ee = np.sum(e * e, axis=1)
    ee[ee == 0.0] = 1.0
    t = np.clip(np.sum(rel * e, axis=1) / ee, 0.0, 1.0)
    foot = v + t[:, None] * e
    return foot, np.linalg.norm(p[None, :] - foot, axis=1)


def distance(p, poly: ConvexPolygon) -> float:
    """Euclidean distance from a point to the polygon; 0 inside or on it.

    Convex as a function of p.
    """
    p = np.asarray(p, dtype=float)
    if poly.n == 1:
        return float(np.linalg.norm(p - poly.vertices[0]))
    feet = _edge_feet(p, poly)
    return 0.0 if feet is None else float(np.min(feet[1]))


def nearest_point(p, poly: ConvexPolygon) -> np.ndarray:
    """Closest point of the polygon to p (p itself when inside)."""
    p = np.asarray(p, dtype=float)
    if poly.n == 1:
        return poly.vertices[0].copy()
    feet = _edge_feet(p, poly)
    return p.copy() if feet is None else feet[0][int(np.argmin(feet[1]))]


def distance_many(pts, poly: ConvexPolygon) -> np.ndarray:
    """Vectorized distance for an (k,2) array of query points.

    Works on (k, n) arrays of x and y differences to the n vertices: points
    inside the polygon are screened out first, and the rest take the
    nearest foot on each edge, the least squared distance and one square
    root (correctly rounded and monotone, so the same as the least root).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v = poly.vertices
    px, py = pts[:, :1], pts[:, 1:]
    rx, ry = px - v[:, 0], py - v[:, 1]
    if poly.n == 1:
        return np.sqrt(rx * rx + ry * ry)[:, 0]
    e = np.roll(v, -1, axis=0) - v
    ex, ey = e[:, 0], e[:, 1]
    d = np.zeros(len(pts))
    out = slice(None)
    if poly.n >= 3:
        out = ~np.all(ex * ry - ey * rx >= -1e-15 * poly.scale ** 2, axis=1)
        px, py, rx, ry = px[out], py[out], rx[out], ry[out]
    ee = ex * ex + ey * ey
    ee[ee == 0.0] = 1.0
    t = np.clip((rx * ex + ry * ey) / ee, 0.0, 1.0)
    dx, dy = px - (v[:, 0] + t * ex), py - (v[:, 1] + t * ey)
    d[out] = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
    return d


def hausdorff(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Hausdorff distance between two compact convex polygons."""
    d1 = float(np.max(distance_many(P.vertices, Q)))
    d2 = float(np.max(distance_many(Q.vertices, P)))
    return max(d1, d2)


def contains_polygon(P: ConvexPolygon, Q: ConvexPolygon, eps: float = 0.0) -> bool:
    """True if Q is contained in P within eps."""
    return float(np.max(distance_many(Q.vertices, P))) <= eps


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

def halfplane_clip(vertices: np.ndarray, normal, offset: float,
                   eps: float = 1e-12) -> np.ndarray:
    """Clip a convex ccw vertex cycle to the halfplane {x : n.x <= offset}."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = np.asarray(normal, dtype=float)
    if len(v) == 0:
        return v
    if len(v) == 1:
        return v if float(v[0] @ n) <= offset + eps else v[:0]
    out = []
    vals = v @ n - offset
    m = len(v)
    for i in range(m):
        j = (i + 1) % m
        if m == 2 and i == 1:
            break
        a, b = v[i], v[j]
        fa, fb = vals[i], vals[j]
        if fa <= eps:
            out.append(a)
        if (fa < -eps and fb > eps) or (fa > eps and fb < -eps):
            t = fa / (fa - fb)
            out.append(a + t * (b - a))
    if m == 2:
        if vals[1] <= eps:
            out.append(v[1])
    if not out:
        return np.zeros((0, 2))
    return np.array(out)


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

def chebyshev_center(poly: ConvexPolygon):
    """Center of the largest inscribed disk, via a small LP."""
    from scipy.optimize import linprog

    if poly.n <= 2:
        return poly.centroid()
    nrm, b = _edge_halfplanes(poly.vertices)
    a_ub = np.hstack([nrm, np.ones((len(b), 1))])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    if not res.success:
        return poly.centroid()
    return np.array(res.x[:2])


# ---------------------------------------------------------------------------
# Tangent quadrangle for pointing a set with respect to an arc on L
# ---------------------------------------------------------------------------

def tangent_quadrangle_corners(poly: ConvexPolygon, arc_start: float, arc_end: float,
                               tol: Tolerances = DEFAULT_TOL):
    """The two corners of the support quadrangle whose support cones avoid
    the open direction arc (arc_start -> arc_end, ccw, period pi).

    The quadrangle is bounded by the two support-line pairs with directions
    arc_start and arc_end.  Returns (corners (2,2) array, degenerate flag).
    """
    a = wrap_angle(arc_start)
    b = wrap_angle(arc_end)
    s = np.sin(b - a)
    if abs(s) <= tol.eps_convex:
        raise DegenerateInput("arc endpoints give parallel tangent directions")
    sla = support_lines_through(poly, a, tol)
    slb = support_lines_through(poly, b, tol)
    degen = sla.degenerate or slb.degenerate
    # corner signs (s_a, s_b) with s_a*s_b = -sign(sin(b - a))
    want = -1.0 if s > 0 else 1.0
    pairs = [(1.0, want), (-1.0, -want)]
    mat = np.vstack([sla.normal, slb.normal])
    corners = []
    for s_a, s_b in pairs:
        ca = sla.c_high if s_a > 0 else sla.c_low
        cb = slb.c_high if s_b > 0 else slb.c_low
        corners.append(np.linalg.solve(mat, np.array([ca, cb])))
    return np.array(corners), degen
