import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from ccproj import planar
from ccproj import (ConvexPolygon, RefNotInterior, chebyshev_center, contains_polygon,
                    convex_hull, distance, hausdorff, minkowski_scaled_sum,
                    nearest_point, polar_dual)
from ccproj.planar import interior_margin, intersect_polygons, tangent_quadrangle_corners
from conftest import dir_normal, mgon, minkowski_oracle


def brute_support(vertices, direction):
    # independent oracle: plain max of dot products
    return max(float(np.dot(v, direction)) for v in vertices)


def test_convex_hull_examples():
    tri = convex_hull([[0, 0], [1, 0], [0, 1], [0.2, 0.2]])
    assert tri.n == 3
    assert np.allclose(tri.vertices, [[0, 0], [1, 0], [0, 1]])

    pt = convex_hull([[2.5, -1.0]])
    assert pt.n == 1 and pt.degenerate

    sq = [[-1, -1], [1, 1], [1, -1], [-1, 1]]
    a = convex_hull(sq)
    b = convex_hull(sq[::-1])
    assert np.array_equal(a.vertices, b.vertices)
    assert np.allclose(a.vertices, [[-1, -1], [1, -1], [1, 1], [-1, 1]])


def test_convex_hull_collinear():
    seg = convex_hull([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    assert seg.n == 2 and seg.degenerate
    assert np.allclose(seg.vertices, [[0, 0], [2, 2]])


def test_convex_hull_of_collinear_points_keeps_both_ends():
    # rounding leaves a flat cycle after the chain; an end lies on the line
    # through its two neighbors but not on their chord, and must stay
    rng = np.random.default_rng(17)
    for _ in range(500):
        direction = rng.normal(size=2)
        t = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(3, 8)))
        pts = t[:, None] * direction[None, :]
        ends = convex_hull(pts[[0, -1]])
        assert hausdorff(convex_hull(pts), ends) <= 1e-12 * ends.scale


def test_support_lines_disk():
    disk = mgon(1.0, 64)
    lo, hi = disk.support_interval(dir_normal(0.0))
    # analytic tangents of the unit circle are v = +-1
    assert abs(hi - 1.0) <= 1e-2 and abs(lo + 1.0) <= 1e-2


def test_support_lines_square():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    lo, hi = sq.support_interval(dir_normal(0.0))
    assert hi == 1.0 and lo == -1.0
    n45 = dir_normal(np.pi / 4)
    lo45, hi45 = sq.support_interval(n45)
    assert abs(hi45 - brute_support(sq.vertices, n45)) < 1e-12
    assert abs(hi45 - np.sqrt(2)) < 1e-12
    # the high support line passes through (-1, 1), the low one through (1, -1)
    assert abs(np.dot(n45, [-1, 1]) - hi45) < 1e-12
    assert abs(np.dot(n45, [1, -1]) - lo45) < 1e-12


def test_support_lines_degenerate_segment():
    # a zero-width slab is not fatal to the tangent quadrangle
    seg = ConvexPolygon([[0, 0], [2, 0]])
    lo, hi = seg.support_interval(dir_normal(0.0))
    assert abs(hi - lo) < 1e-12
    corners = tangent_quadrangle_corners(seg, 0.0, np.pi / 2)
    assert sorted(map(tuple, np.round(corners, 12))) == [(0.0, 0.0), (2.0, 0.0)]


def test_polar_dual_square_diamond():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    dia = polar_dual(sq, [0, 0])
    assert np.allclose(sorted(map(tuple, dia.vertices)),
                       sorted([(-1, 0), (0, -1), (1, 0), (0, 1)]))
    back = polar_dual(dia, [0, 0])
    assert hausdorff(back, sq) < 1e-12


def test_polar_dual_regular_polygon_radius():
    poly = mgon(2.0, 64)
    dual = polar_dual(poly, [0, 0])
    # polar of a regular m-gon with circumradius R: circumradius 1/(R cos(pi/m))
    expected = 1.0 / (2.0 * np.cos(np.pi / 64))
    rad = np.linalg.norm(dual.vertices, axis=1)
    assert np.max(np.abs(rad - expected)) < 1e-9
    assert dual.n == poly.n


def test_polar_dual_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.normal(size=(12, 2)) * rng.uniform(0.5, 3)
        poly = convex_hull(pts)
        if poly.degenerate or interior_margin(poly, poly.centroid()) < 1e-3:
            continue
        c = poly.centroid()
        shifted = poly.translated(-c)
        dd = polar_dual(polar_dual(shifted, [0, 0]), [0, 0])
        assert hausdorff(dd, shifted) <= 1e-8 * max(1.0, shifted.diameter())


def test_polar_dual_ref_not_interior():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    with pytest.raises(RefNotInterior):
        polar_dual(sq, [1.0, 0.0])
    with pytest.raises(RefNotInterior):
        polar_dual(ConvexPolygon([[0, 0], [1, 0]]), [0.5, 0.0])


def test_minkowski_disks():
    d1, d3 = mgon(1.0, 64), mgon(3.0, 64)
    mid = minkowski_scaled_sum(0.5, d1, 0.5, d3)
    rad = np.linalg.norm(mid.vertices, axis=1)
    assert np.max(np.abs(rad - 2.0)) < 1e-2


def test_minkowski_t_zero_is_identity():
    P, Q = mgon(1.0, 16), mgon(2.0, 12)
    assert minkowski_scaled_sum(0.0, P, 1.0, Q) is Q
    assert minkowski_scaled_sum(1.0, P, 0.0, Q) is P


def test_minkowski_square_diamond_support_identity():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    dia = convex_hull([[1, 0], [0, 1], [-1, 0], [0, -1]])
    out = minkowski_scaled_sum(0.5, sq, 0.5, dia)
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    hv = out.support(dirs)
    ref = 0.5 * (np.array([brute_support(sq.vertices, d) for d in dirs])
                 + np.array([brute_support(dia.vertices, d) for d in dirs]))
    assert np.max(np.abs(hv - ref)) <= 1e-9 * np.max(np.abs(ref))
    # octagon landmarks: support 1 along axes, 0.75*sqrt(2) along diagonals
    assert abs(out.support([[1.0, 0.0]])[0] - 1.0) < 1e-12
    diag = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    assert abs(out.support([diag])[0] - 0.75 * np.sqrt(2)) < 1e-12


def test_minkowski_support_identity_random():
    rng = np.random.default_rng(11)
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(10):
        P = convex_hull(rng.normal(size=(10, 2)))
        Q = convex_hull(rng.normal(size=(8, 2)) + rng.normal(size=2))
        t = float(rng.uniform(0, 1))
        out = minkowski_scaled_sum(t, P, 1 - t, Q)
        ref = t * P.support(dirs) + (1 - t) * Q.support(dirs)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(out.support(dirs) - ref)) <= 1e-9 * scale


def test_minkowski_degenerate_operands():
    seg_h = ConvexPolygon([[0, 0], [1, 0]])
    seg_v = ConvexPolygon([[0, 0], [0, 1]])
    out = minkowski_scaled_sum(1.0, seg_h, 1.0, seg_v)
    assert np.allclose(out.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]])
    pt = ConvexPolygon([[3, 4]])
    shifted = minkowski_scaled_sum(1.0, seg_h, 1.0, pt)
    assert np.allclose(shifted.vertices, [[3, 4], [4, 4]])


def test_distance_examples():
    disk = mgon(1.0, 64)
    assert abs(distance([2, 0], disk) - 1.0) <= 1e-2
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert distance([0, 0], sq) == 0.0
    assert abs(distance([2, 2], sq) - np.sqrt(2)) < 1e-12


def test_distance_convexity_probe():
    rng = np.random.default_rng(7)
    poly = convex_hull(rng.normal(size=(9, 2)))
    for _ in range(1000):
        p, q = rng.normal(size=2, scale=3), rng.normal(size=2, scale=3)
        t = float(rng.uniform(0, 1))
        lhs = distance(t * p + (1 - t) * q, poly)
        rhs = t * distance(p, poly) + (1 - t) * distance(q, poly)
        assert lhs <= rhs + 1e-12


def test_nearest_point_and_center():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert np.allclose(nearest_point([3, 0], sq), [1, 0])
    assert np.allclose(nearest_point([0.2, 0.1], sq), [0.2, 0.1])
    assert np.allclose(chebyshev_center(sq), [0, 0], atol=1e-9)


def test_intersect_polygons():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    dia = convex_hull([[1, 0], [0, 1], [-1, 0], [0, -1]])
    inter = intersect_polygons(sq, dia)
    assert hausdorff(inter, dia) < 1e-12
    far = convex_hull([[10, 10], [11, 10], [10, 11]])
    assert intersect_polygons(sq, far) is None


def test_tangent_quadrangle_corner_selection():
    disk = mgon(1.0, 64)
    corners = tangent_quadrangle_corners(disk, 0.0, np.pi / 2)
    got = sorted(map(tuple, np.round(corners, 9)))
    assert got == [(-1.0, -1.0), (1.0, 1.0)]
    # complementary arc selects the other diagonal
    corners2 = tangent_quadrangle_corners(disk, np.pi / 2, 0.0)
    got2 = sorted(map(tuple, np.round(corners2, 9)))
    assert got2 == [(-1.0, 1.0), (1.0, -1.0)]


# ---------------------------------------------------------------------------
# Reference hull kernel: the restart-from-0 merge and the numpy-row monotone
# chain that planar._merge_collinear and planar._hull_cycle replace.  The
# new kernel must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def ref_merge_collinear(cycle, eps):
    pts = list(cycle)
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            u = pts[(i - 1) % len(pts)]
            v = pts[i]
            w = pts[(i + 1) % len(pts)]
            e = w - u
            ln = float(np.hypot(e[0], e[1]))
            dot = float(e @ (v - u))
            if ln == 0.0 or dot < 0.0:  # v projects before u: distance to u
                dist = float(np.hypot(*(v - u)))
            elif dot > ln * ln:  # v projects beyond w: distance to w
                dist = float(np.hypot(*((v - u) - e)))
            else:
                dist = abs(_cross2(e, v - u)) / ln
            if dist <= eps:
                pts.pop(i)
                changed = True
                break
    return np.array(pts)


def ref_hull_cycle(points, eps):
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    keep = [pts[0]]
    for p in pts[1:]:
        if max(abs(p[0] - keep[-1][0]), abs(p[1] - keep[-1][1])) > eps:
            keep.append(p)
    pts = np.array(keep)
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], p - out[-2]) <= 0.0:
                out.pop()
            out.append(p)
        return out

    # the chain runs on the points scaled by 2^k, the largest coordinate in
    # [2^499, 2^500), so that no cross product underflows
    k = max(0, 500 - int(np.frexp(np.abs(pts).max())[1]))
    lower = chain(np.ldexp(pts, k))
    upper = chain(np.ldexp(pts, k)[::-1])
    cycle = np.ldexp(lower[:-1] + upper[:-1], -k)
    if len(cycle) < 3:
        out = np.ldexp([lower[0], lower[-1]] if len(lower) >= 2 else lower, -k)
    else:
        out = ref_merge_collinear(cycle, eps)
    if len(out) == 2 and np.max(np.abs(out[1] - out[0])) <= eps:
        return np.array([min(out.tolist())])
    start = int(np.lexsort((out[:, 1], out[:, 0]))[0])
    return np.roll(out, -start, axis=0)


coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
# the hull tolerance factor: convex_hull's eps_convex, and coarser ones that
# force many merge pops
eps_factor = st.sampled_from([1e-9, 1e-6, 1e-3, 0.05])


@st.composite
def clouds(draw):
    """Point clouds mixing random points, near-duplicates within eps,
    exactly and nearly collinear runs, single points and segments."""
    base = draw(st.lists(point, min_size=1, max_size=24))
    pts = [np.array(p, dtype=float) for p in base]
    scale = max(1.0, max(float(np.max(np.abs(p))) for p in pts))
    unit = 1e-9 * scale
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["dup", "line", "near-line"]))
        p0 = pts[draw(st.integers(0, len(pts) - 1))]
        if kind == "dup":
            for _ in range(draw(st.integers(1, 4))):
                off = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
                pts.append(p0 + unit * draw(st.sampled_from([1.0, 1e3, 1e6]))
                           * np.array(off))
        else:
            d = np.array(draw(point))
            n = np.array([-d[1], d[0]])
            for t in draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8)):
                q = p0 + t * d
                if kind == "near-line":
                    q = q + draw(st.floats(-3.0, 3.0)) * unit * n
                pts.append(q)
    return np.array(pts, dtype=float)


def _hull_eps(pts, factor):
    return factor * max(1.0, float(np.max(np.abs(pts))))


@settings(max_examples=400, deadline=None)
@given(clouds(), eps_factor)
def test_hull_cycle_matches_reference(pts, factor):
    eps = _hull_eps(pts, factor)
    assert np.array_equal(planar._hull_cycle(pts, eps), ref_hull_cycle(pts, eps))


@settings(max_examples=300, deadline=None)
@given(st.lists(point, min_size=3, max_size=40), eps_factor)
def test_merge_collinear_matches_reference_on_any_cycle(pts, factor):
    # arbitrary cycles, convex or not: the resumed scan must make the
    # restart scan's pops in the same order
    cycle = np.array(pts, dtype=float)
    eps = _hull_eps(cycle, factor)
    assert np.array_equal(planar._merge_collinear(cycle, eps),
                          ref_merge_collinear(cycle, eps))


@settings(max_examples=300, deadline=None)
@given(st.lists(point, min_size=3, max_size=40), eps_factor)
@example([(0.5, -1.0), (1.25, -0.75), (1.5, -0.25), (1.25, 1.0), (0.75, 0.75)], 2.0 / 3.0)
def test_merge_collinear_moves_vertices_at_most_pops_times_eps(pts, factor):
    # a pop drops a vertex within eps of the chord of its current
    # neighbors, and every point within eps of a chord stays within eps of
    # the chords that later replace it, so the moves add up: the example
    # (the pentagon of test_hull_collapses_segment_within_eps at eps = 1)
    # pops three vertices and moves its first one by 1.25 eps (1.77 eps once
    # _hull_cycle collapses the remaining segment to a point)
    cycle = np.array(pts, dtype=float)
    eps = _hull_eps(cycle, factor)
    out = ConvexPolygon(planar._merge_collinear(cycle, eps))
    pops = len(cycle) - out.n
    rounding = (pops + 1) * 1e-12 * _hull_eps(cycle, 1.0)
    assert max(distance(p, out) for p in cycle) <= pops * eps + rounding


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 64), st.floats(0.0, 2.0 * np.pi), st.floats(0.05, 5.0),
       st.floats(0.05, 5.0), st.floats(0.0, 1.0), st.tuples(coord, coord))
def test_hull_cycle_matches_reference_on_minkowski_sums(m, phase, r1, r2, t, center):
    # same-phase regular m-gons have pairwise parallel edges: the unmerged
    # edge chain has m collinear midpoints, the many-pop case
    P, Q = mgon(r1, m, center, phase), mgon(r2, m, (0.0, 0.0), phase)
    points = ref_minkowski_chain(t, P, 1.0 - t, Q)
    eps = _hull_eps(points, 1e-9)
    assert np.array_equal(planar._hull_cycle(points, eps), ref_hull_cycle(points, eps))


# ---------------------------------------------------------------------------
# Reference Minkowski sum: the cumulative sum of all sorted edges, parallel
# runs unmerged, closed on its start point, then re-hulled.
# ---------------------------------------------------------------------------

def ref_minkowski_chain(a, P, b, Q):
    """The summed edge chain of a*P + b*Q: the sum of the two min-(y, x)
    vertices, then every partial sum of the edges sorted by angle."""
    starts, edges = [], []
    for w, poly in ((a, P), (b, Q)):
        v = poly.scaled(w).vertices
        v = np.roll(v, -int(np.lexsort((v[:, 0], v[:, 1]))[0]), axis=0)
        starts.append(v[0])
        if len(v) > 1:
            edges.append(np.roll(v, -1, axis=0) - v)
    start = starts[0] + starts[1]
    if not edges:
        return start[None, :]
    edges = np.vstack(edges)
    ang = np.arctan2(edges[:, 1], edges[:, 0]) % (2.0 * np.pi)
    ang[(edges[:, 1] < 0.0) & (ang == 0.0)] = 2.0 * np.pi  # below 0 by less than arctan2 resolves
    order = np.argsort(ang, kind="stable")
    return np.vstack([start, start + np.cumsum(edges[order], axis=0)])


def ref_minkowski_scaled_sum(a, P, b, Q):
    if a == 0.0:
        return Q.scaled(b) if b != 1.0 else Q
    if b == 0.0:
        return P.scaled(a) if a != 1.0 else P
    return convex_hull(ref_minkowski_chain(a, P, b, Q))


weight = st.floats(0.0, 3.0)


@st.composite
def minkowski_operands(draw):
    """Operand pairs: same-phase m-gons (every edge of one parallel to an
    edge of the other), axis-aligned rectangles (edges at angle 0 in both),
    segments, points and random hulls."""
    kind = draw(st.sampled_from(["mgons", "rectangles", "any"]))
    if kind == "mgons":
        m, phase = draw(st.integers(3, 64)), draw(st.floats(0.0, 2.0 * np.pi))
        return tuple(mgon(draw(st.floats(0.05, 5.0)), m, draw(st.tuples(coord, coord)), phase)
                     for _ in range(2))
    if kind == "rectangles":
        return tuple(convex_hull([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
                     for x0, y0, w, h in draw(st.lists(
                         st.tuples(coord, coord, st.floats(0.01, 20.0), st.floats(0.01, 20.0)),
                         min_size=2, max_size=2)))
    shape = st.one_of(clouds(), st.lists(point, min_size=1, max_size=2))
    return tuple(convex_hull(np.array(draw(shape), dtype=float)) for _ in range(2))


def test_minkowski_merges_a_run_across_zero_angle():
    # P's bottom edge enters its min-(y, x) vertex at angle 2 pi - 1e-13 and
    # Q's leaves its own at angle 0: one run, merged into one edge
    P = convex_hull([[0.0, 0.0], [1.0, -1e-13], [1.5, 1.0], [0.0, 1.0]])
    Q = convex_hull([[0.0, 0.0], [2.0, 0.0], [2.0, 3.0], [0.0, 3.0]])
    calls = []
    chain = planar._chain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_chain", lambda pts: calls.append(1) or chain(pts))
        out = minkowski_scaled_sum(1.0, P, 1.0, Q)
    assert not calls
    assert np.array_equal(out.vertices[:2], [[0.0, 0.0], [3.0, -1e-13]])
    assert out.n == 5 and hausdorff(out, ref_minkowski_scaled_sum(1.0, P, 1.0, Q)) <= 1e-15


@st.composite
def planned_operands(draw):
    """minkowski_operands, plus: a hull and a copy turned by at most
    MERGE_TINY (every edge has a partner parallel within tiny), shrunk far
    from the origin so that scaling turns short edges by more than tiny;
    quadrilaterals with a bottom edge tilted by a few ulps; and pairs with
    a merge run across angle 0 (a bottom edge entering its min-(y, x)
    vertex just below angle 2 pi, the other leaving its own at 0)."""
    kind = draw(st.sampled_from(["base", "turned", "tilted", "wrap"]))
    if kind == "base":
        return draw(minkowski_operands())
    if kind == "turned":
        center, size = np.array(draw(point)), 10.0 ** draw(st.floats(-6.0, 0.0))
        pts = center + size * np.array(draw(clouds()))
        d = draw(st.floats(-1e-12, 1e-12))
        turn = np.array([[np.cos(d), -np.sin(d)], [np.sin(d), np.cos(d)]])
        shift = np.array(draw(point)) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
        return convex_hull(pts), convex_hull((pts - center) @ turn.T + center + shift)
    if kind == "tilted":
        x0, y0 = draw(point)
        w, h = (draw(st.floats(0.01, 20.0)) for _ in range(2))
        ulps = draw(st.integers(-3, 3))
        y1 = y0 + ulps * np.spacing(y0)
        quad = lambda y: convex_hull([[x0, y0], [x0 + w, y], [x0 + 0.7 * w, y0 + h],  # noqa: E731
                                      [x0 + 0.1 * w, y0 + 0.6 * h]])
        return quad(y1), quad(y0 + draw(st.integers(-3, 3)) * np.spacing(y0))
    w, h, drop = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 2e-12))
    P = convex_hull([[0.0, 0.0], [w, -drop * w], [1.5 * w, h], [0.0, h]])
    size = draw(st.floats(0.1, 5.0))
    Q = convex_hull(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 3.0], [0.0, 3.0]]) * size)
    return P, Q


plan_weight = st.one_of(weight, st.sampled_from([1e-11, 1e10, 2.0 ** -510, 2.0 ** 501]))


@settings(max_examples=600, deadline=None)
@given(planned_operands(), plan_weight, plan_weight)
# the reference's chain collapses this 1.002e-9 by 1e-7 rectangle to a
# segment, 1.0018e-9 from the sum
@example((convex_hull([[0.0, 0.0], [0.01, 0.0], [0.01, 1.0], [0.0, 1.0]]),
          convex_hull([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])), 1e-7, 1e-12)
# both chains collapse this sliver triangle, to two segments 5.1e-10 apart
@example((convex_hull([[-28.0, 0.0], [44.0, 0.0], [0.0, 26.0]]),
          convex_hull([[-29.0, 0.0], [44.0, 0.0], [0.0, 26.0]])), 1e-11, 1e-11)
# both chains drop a vertex of this 1.4e-9 quadrilateral, different ones
@example((lambda P: (P, P))(convex_hull([[-36.0, -3.0], [4.5, -54.0], [36.0, 0.0],
                                         [0.0, 19.0]])), 1e-11, 1e-11)
# the reference's pops add up to 103 on this quadrilateral, at eps 80
@example((lambda P: (P, P))(convex_hull([
    [-0.12965338406690355, 4.0], [0.0031622776601683794, 3.949403557437306],
    [0.034785054261852175, 4.0], [0.0347851190885442, 4.000000113446711]])), 1e10, 1e10)
# the reference's dedup drops an end of this segment for a point 7.35e-8
# inside it, at eps 7.26e-8
@example((lambda P: (P, P))(convex_hull([[0.29218051509951787, 24.194787010066346],
                                         [1.5095993280141757, 24.0]])),
         3.0, 5.960464477539063e-08)
def test_merged_minkowski_sum_matches_unmerged_reference(operands, a, b):
    P, Q = operands
    plan = planar.minkowski_plan(P, Q)
    event("wrap run" if plan.wrap else "no wrap run")
    out, ref = minkowski_scaled_sum(a, P, b, Q), ref_minkowski_scaled_sum(a, P, b, Q)
    scale = max(out.scale, ref.scale)
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    normals = [np.stack([np.cos(angles), np.sin(angles)], axis=1)]
    for poly in (P, Q, out, ref):
        if poly.n > 1:
            e = poly.edges()  # zero-length when a weight is 0
            normals.append(np.stack([e[:, 1], -e[:, 0]], axis=1)
                           / np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)[:, None])
    dirs = np.vstack(normals)
    exact = a * P.support(dirs) + b * Q.support(dirs)
    err, ref_err = (np.max(np.abs(poly.support(dirs) - exact)) for poly in (out, ref))
    runs = len(plan.heads) if a > 0.0 and b > 0.0 else 0  # the merged sum's vertices
    if min(out.n, ref.n) < runs:
        # the chain's eps merge dropped a vertex of the merged sum (or
        # collapsed it to a segment or a point), in the output or the
        # reference, each by its own pops: the output stays within the
        # hull's documented allowance of the exact sum, sqrt(2) eps for the
        # dedup and for a segment collapsed to a point, plus eps per pop (at
        # most one per chain point it drops)
        event("vertex dropped by the eps merge")
        chain = ref_minkowski_chain(a, P, b, Q)
        eps = planar.DEFAULT_TOL.eps_convex * max(1.0, np.abs(chain).max())
        assert err <= (2.0 * np.sqrt(2.0) + len(chain) - out.n) * eps
    else:
        # beyond what the chain's own eps merge moves (the reference's
        # error), the merge of parallel edges moves the support by rounding
        assert err <= ref_err + 1e-12 * scale
        if ref_err <= 1e-9 * scale:  # else the reference's pops add up past eps
            assert hausdorff(out, ref) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Minkowski plans: the plan of the unscaled operands decides the sum for
# every weight.  Where no near-tie rounds differently once the operands are
# scaled, the sum has the bits of the old body (conftest.minkowski_oracle),
# which decides on the scaled operands on every call.
# ---------------------------------------------------------------------------

def test_minkowski_sum_puts_an_edge_whose_angle_underflows_last():
    # the edge into the min-(y, x) vertex (10, -5e-324) falls by 5e-324, so
    # its arctan2 underflows to -0: sorted first as angle 0, it translated
    # the sum by the edge, 19 units for a = 1
    P = convex_hull([[0.5, 0.0], [10.0, -5e-324], [7.0, 1.0], [1.5, 1.0]])
    for a in (1.0, 0.5, 1.19e-7):
        assert hausdorff(minkowski_scaled_sum(a, P, 1.0, P), P.scaled(a + 1.0)) <= 1e-15


def test_plan_with_a_wrap_run_matches_the_old_body():
    # P's bottom edge enters its min-(y, x) vertex at angle 2 pi - 1e-13 and
    # Q's leaves its own at 0: the plan moves that run to the front
    P = convex_hull([[0.0, 0.0], [1.0, -1e-13], [1.5, 1.0], [0.0, 1.0]])
    Q = convex_hull([[0.0, 0.0], [2.0, 0.0], [2.0, 3.0], [0.0, 3.0]])
    plan = planar.minkowski_plan(P, Q)
    assert plan.wrap == 1 and plan.heads[0] == 0
    for a, b in [(1.0, 1.0), (0.3, 2.5), (1e-11, 7.0), (2.0, 1e-9)]:
        assert np.array_equal(planar.planned_sum(plan, a, b).vertices,
                              minkowski_oracle(a, P, b, Q).vertices)


def test_plan_of_points_and_segments():
    pt, seg = convex_hull([[1.0, 2.0]]), convex_hull([[0.0, 0.0], [3.0, 1.0]])
    for P, Q in [(pt, pt), (pt, seg), (seg, pt), (seg, seg)]:
        plan = planar.minkowski_plan(P, Q)
        assert len(plan.cur) == (P.n == 2) * 2 + (Q.n == 2) * 2
        assert np.array_equal(planar.planned_sum(plan, 0.5, 2.0).vertices,
                              minkowski_oracle(0.5, P, 2.0, Q).vertices)


@settings(max_examples=300, deadline=None)
@given(planned_operands(), weight, weight, st.integers(0, 980))
def test_minkowski_sum_scales_by_powers_of_two(operands, a, b, j):
    # a power of two scales every product, sum and comparison of the plan,
    # the merge and the hull without rounding, as long as nothing overflows
    # (below 2^1024), no weighted vertex underflows, and the hull's eps
    # scales too (the sum reaches 1)
    P, Q = operands
    for w, poly in ((a, P), (b, Q)):
        x = poly.vertices[poly.vertices != 0.0]
        assume(w == 0.0 or (np.abs(w * x) >= 2.0 ** -1022).all())
    out = minkowski_scaled_sum(a, P, b, Q)
    assume(np.abs(out.vertices).max() >= 2.0)
    big = minkowski_scaled_sum(a, P.scaled(2.0 ** j), b, Q.scaled(2.0 ** j))
    assert np.array_equal(big.vertices, out.vertices * 2.0 ** j)


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_negated_matches_hull_of_negation(pts):
    P = convex_hull(pts)
    N = P.negated()
    H = convex_hull(-P.vertices)
    assert np.array_equal(N.vertices, H.vertices)
    assert N.degenerate == H.degenerate


def test_hull_collapses_segment_within_eps():
    # the merge pops this pentagon (eps = 1) down to the segment from
    # (1.5, -0.25) to (0.75, 0.75), within eps in max-norm: that is one
    # point, its lexicographically smaller end
    cycle = np.array([[0.5, -1.0], [1.25, -0.75], [1.5, -0.25], [1.25, 1.0], [0.75, 0.75]])
    assert np.array_equal(planar._merge_collinear(cycle, 1.0), [[1.5, -0.25], [0.75, 0.75]])
    assert np.array_equal(planar._hull_cycle(cycle, 1.0), [[0.75, 0.75]])
    assert np.array_equal(ref_hull_cycle(cycle, 1.0), [[0.75, 0.75]])


def test_hull_keeps_points_whose_cross_products_underflow():
    # unscaled, both chains' cross products at (0, 0.3) are products of 0.3
    # and 5e-324, which round to 0, so both chains pop it and the hull was
    # the single point (0, 0), 0.3 from an input point
    pts = np.array([[0.0, 0.0], [0.0, 0.3], [5e-324, 0.0]])
    P = convex_hull(pts)
    assert P.vertices.tolist() == [[0.0, 0.3], [5e-324, 0.0]]
    assert max(distance(p, P) for p in pts) <= 1e-9
    assert np.array_equal(ref_hull_cycle(pts, 1e-9), P.vertices)


def test_hull_keeps_sliver_ends_beyond_eps():
    # the merge pops this sliver, 1.8e-15 wide, down to the segment from
    # (0, 15) to its top end 1.9e-7 away, more than eps = 1e-9 * 15, as the
    # hull of its negation also finds; a merge that measured distances to
    # the chord's line popped the bottom end and left one point
    tiny = -1.7881393440000005e-15
    pts = np.array([[0.0, 15.0]] * 4 + [[tiny, 15.0], [0.0, 15.000000178813934],
                                        [tiny, 15.000000193715096]])
    P = convex_hull(pts)
    assert P.n == 2 and P.degenerate
    assert np.array_equal(P.vertices, [[tiny, 15.000000193715096], [0.0, 15.0]])
    assert np.array_equal(P.negated().vertices, convex_hull(-pts).vertices)
    assert np.array_equal(P.negated().vertices, convex_hull(-P.vertices).vertices)


def test_merge_collinear_rechecks_first_vertex_after_last_pops():
    # popping the last vertex changes vertex 0's chord: (-1, -0.053) is
    # within eps of the chord from (-2, 0) to (0, 0.09), and once it is gone
    # (0, 0.09) is within eps of the chord from (-2, 0) to (2, 0), though
    # not of the chord from (-1, -0.053) to (2, 0)
    cycle = np.array([[0.0, 0.09], [2.0, 0.0], [-2.0, 0.0], [-1.0, -0.053]])
    out = planar._merge_collinear(cycle, 0.1)
    assert np.array_equal(out, ref_merge_collinear(cycle, 0.1))
    assert np.array_equal(out, [[2.0, 0.0], [-2.0, 0.0]])


# ---------------------------------------------------------------------------
# Convex-cycle fast path: planar._convex_cycle certifies points that already
# form a strictly convex cycle, and _hull_cycle then returns them rotated
# without running the chain.  Whatever it accepts must equal the reference
# chain's output bit for bit; whatever the chain would change it must decline.
# ---------------------------------------------------------------------------

def _matches_chain(pts, eps):
    """Assert the fast path and _hull_cycle agree with the reference chain;
    True when the fast path took the points."""
    ref = ref_hull_cycle(pts, eps)
    ok, fast = planar._convex_cycle(pts, eps)
    assert not ok or np.array_equal(fast, ref)
    assert np.array_equal(planar._hull_cycle(pts, eps), ref)
    event("fast path" if ok else "chain")
    return bool(ok)


def _arranged(draw, ccw):
    """A counterclockwise cycle from a drawn start, in a drawn orientation."""
    pts = np.roll(ccw, draw(st.integers(0, len(ccw) - 1)), axis=0)
    return pts[::-1].copy() if draw(st.booleans()) else pts


@st.composite
def ellipse_polygons(draw, min_n=3, max_n=48):
    """Counterclockwise vertices at distinct angles on a rotated ellipse, at
    scales from 1e-6 to 1e6; close angles give near-collinear triples."""
    n = draw(st.integers(min_n, max_n))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    angles = (draw(st.floats(0.0, 2.0 * np.pi))
              + 2.0 * np.pi * (np.cumsum(gaps) - gaps) / np.sum(gaps))
    a, b = draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0))
    rot = draw(st.floats(0.0, 2.0 * np.pi))
    size = 10.0 ** draw(st.integers(-6, 6))
    e = np.stack([a * np.cos(angles), b * np.sin(angles)], axis=1)
    r = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    return size * (np.array(draw(point)) + e @ r.T)


def _least_gap(pts):
    """Least max-norm gap between lexicographically consecutive points."""
    srt = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return float(np.min(np.max(np.abs(np.diff(srt, axis=0)), axis=1)))


@settings(max_examples=300, deadline=None)
@given(st.data(), eps_factor)
def test_fast_path_matches_chain_on_convex_cycles(data, factor):
    pts = _arranged(data.draw, data.draw(ellipse_polygons()))
    _matches_chain(pts, _hull_eps(pts, factor))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["chord", "gap"]), st.sampled_from([-1, 0, 1]))
def test_fast_path_thresholds_straddling_eps(data, which, ulps):
    # eps one ulp below, at, or one ulp above the least chord distance (the
    # merge screen's threshold) or the least lexicographic gap (the dedup's)
    ccw = data.draw(ellipse_polygons())
    edge = (float(np.min(planar._chord_distances(ccw))) if which == "chord"
            else _least_gap(ccw))
    eps = {-1: np.nextafter(edge, -np.inf), 0: edge, 1: np.nextafter(edge, np.inf)}[ulps]
    took = _matches_chain(_arranged(data.draw, ccw), eps)
    if ulps >= 0:
        assert not took


@settings(max_examples=200, deadline=None)
@given(st.data(), eps_factor, st.floats(0.0, 1.5))
def test_fast_path_matches_chain_with_vertex_pairs_within_eps(data, factor, reach):
    # a vertex doubled within reach * eps of itself, next to it in the cycle
    ccw = data.draw(ellipse_polygons())
    eps = _hull_eps(ccw, factor)
    i = data.draw(st.integers(0, len(ccw) - 1))
    off = np.array(data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    pts = np.insert(ccw, i + 1, ccw[i] + reach * eps * off, axis=0)
    _matches_chain(_arranged(data.draw, pts), eps)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([5] + list(range(7, 18))), st.floats(0.0, 2.0 * np.pi),
       st.floats(0.1, 1e3))
def test_fast_path_declines_star_polygons(data, n, phase, radius):
    # {n/k} stars turn left at every vertex but wind k > 1 times
    k = data.draw(st.sampled_from([k for k in range(2, (n + 1) // 2)
                                   if np.gcd(n, k) == 1]))
    a = phase + 2.0 * np.pi * k * np.arange(n) / n
    star = radius * np.stack([np.cos(a), np.sin(a)], axis=1)
    assert np.all(planar._ear_terms(star)[0] < 0.0)
    pts = _arranged(data.draw, star)
    assert not _matches_chain(pts, _hull_eps(pts, 1e-9))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.floats(-3.0, 0.6), st.floats(0.0, 2.0 * np.pi),
       st.sampled_from([0.0, 1e-300]))
def test_fast_path_on_slivers_near_the_ear_margin(data, log_ratio, turn, eps):
    # squash an ellipse polygon until its least ear cross product is 10^-3
    # to 4 times the certificate's margin, then turn and shift it: the
    # chain's cross products are differences of nearly equal products, and
    # below a quarter of the margin its float decisions may be wrong
    ccw = data.draw(ellipse_polygons(max_n=12))
    ccw = ccw - ccw.mean(axis=0)
    ears = -planar._ear_terms(ccw)[0]
    scale = max(1.0, float(np.max(np.abs(ccw))))
    squash = 10.0 ** log_ratio * planar.EAR_MARGIN * scale * scale / float(np.min(ears))
    r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    sliver = (ccw * np.array([1.0, min(squash, 1.0)])) @ r.T
    sliver = sliver + scale * np.array(data.draw(st.tuples(st.floats(-3.0, 3.0),
                                                             st.floats(-3.0, 3.0))))
    _matches_chain(_arranged(data.draw, sliver), eps)


def test_fast_path_takes_rotated_and_clockwise_cycles():
    poly = mgon(2.0, 64, center=(3.0, -1.0), phase=0.3).vertices
    tri = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # clockwise, vertical edge
    cycles = [np.roll(p, s, axis=0) for p in (poly, poly[::-1]) for s in (0, 1, 17, 63)]
    for pts in cycles + [tri]:
        ok, fast = planar._convex_cycle(pts, 1e-9 * 5.0)
        assert ok and np.array_equal(fast, ref_hull_cycle(pts, 1e-9 * 5.0))


def test_fast_path_margin_declines_turns_within_rounding():
    # a turned sliver whose four computed ear cross products all turn left,
    # by less than one cross product's rounding error: the chain reduces it
    # to three points, and without the margin the certificate would keep all four
    pts = np.array([[0.6391253299000291, -2.238133692712448],
                    [1.5236899558552441, -1.088706490559021],
                    [1.7353971346374704, -0.8136084558386384],
                    [1.6648246649744811, -0.9053122318812203]])
    ref = ref_hull_cycle(pts, 0.0)
    assert len(ref) == 3
    assert not planar._convex_cycle(pts, 0.0)[0]
    assert np.array_equal(planar._hull_cycle(pts, 0.0), ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "EAR_MARGIN", 0.0)
        ok, fast = planar._convex_cycle(pts, 0.0)
        assert ok and len(fast) == 4


def test_parse_and_polar_dual_take_the_fast_path():
    # every golden scene's sections and their polar duals are hulls already:
    # with the chain disabled, parse and polar_dual still succeed
    from ccproj import parse, serialize
    from test_golden import SCENES

    texts = [serialize(make()) for make in SCENES.values()]

    def no_chain(pts):
        raise AssertionError("monotone chain ran on a convex cycle")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planar, "_chain", no_chain)
        for text in texts:
            for s in parse(text).fan.sections:
                polar_dual(s, s.centroid())


@settings(max_examples=200, deadline=None)
@given(clouds())
def test_diameter_matches_broadcast_formula(pts):
    # per-coordinate outer differences: the same IEEE operations as the
    # (n, n, 2) broadcast, so the same bits
    v = convex_hull(pts).vertices
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
    assert ConvexPolygon(v).diameter() == float(np.sqrt(np.max(d2)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(3, 24), st.integers(1, 6))
def test_stacked_fast_path_matches_one_row_calls(data, n, rows):
    # a (P, n, 2) stack mixing convex cycles (either orientation, any
    # start, some with two vertices swapped), slivers near the ear margin
    # and clouds, each row under its own eps: every row's flag and cycle
    # equal the one-row call's, bit for bit
    stack, eps = [], []
    for _ in range(rows):
        kind = data.draw(st.sampled_from(["cycle", "swapped", "sliver", "cloud"]))
        if kind == "cloud":
            pts = np.array(data.draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        else:
            pts = data.draw(ellipse_polygons(min_n=n, max_n=n))
            if kind == "sliver":
                pts = (pts - pts.mean(axis=0)) * np.array([1.0, 1e-14])
            pts = _arranged(data.draw, pts)
            if kind == "swapped":
                i = data.draw(st.integers(0, n - 2))
                pts[[i, i + 1]] = pts[[i + 1, i]]
        stack.append(pts)
        eps.append(_hull_eps(pts, data.draw(eps_factor)))
    with np.errstate(divide="ignore", invalid="ignore"):  # declined rows may divide by 0
        ok, cycles = planar._convex_cycle(np.array(stack), np.array(eps))
    assert ok.shape == (rows,)
    event("mixed stack" if 0 < ok.sum() < rows else "uniform stack")
    for pts, e, flag, cycle in zip(stack, eps, ok, cycles):
        one_ok, one = planar._convex_cycle(pts, e)
        assert flag == one_ok
        if flag:
            assert np.array_equal(cycle, one)
            assert np.array_equal(cycle, ref_hull_cycle(pts, e))


def einsum_distances(pts, poly):
    """The distances from points to a polygon that `hausdorff` and
    `contains_polygon` once took, on (k, n, 2) arrays: feet by einsum, norms
    along the last axis, then inside points set to 0."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v = poly.vertices
    if poly.n == 1:
        return np.linalg.norm(pts - v[0][None, :], axis=1)
    e = np.roll(v, -1, axis=0) - v
    rel = pts[:, None, :] - v[None, :, :]
    ee = np.sum(e * e, axis=1)
    ee[ee == 0.0] = 1.0
    t = np.clip(np.einsum("kij,ij->ki", rel, e) / ee[None, :], 0.0, 1.0)
    foot = v[None, :, :] + t[:, :, None] * e[None, :, :]
    d = np.min(np.linalg.norm(pts[:, None, :] - foot, axis=2), axis=1)
    if poly.n >= 3:
        cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        inside = np.all(cross >= -1e-15 * np.abs(v).max() ** 2, axis=1)
        d[inside] = 0.0
    return d


def assert_pair_matches_einsum_oracle(P, Q, eps):
    """The shared kernel's distances from each polygon's vertices to the
    other, hausdorff and contains_polygon, against `einsum_distances`."""
    d_pq, d_qp = einsum_distances(P.vertices, Q), einsum_distances(Q.vertices, P)
    assert np.array_equal(planar._distances(P.vertices, Q.section_stack), d_pq)
    assert np.array_equal(planar._distances(Q.vertices, P.section_stack), d_qp)
    assert hausdorff(P, Q) == max(d_pq.max(), d_qp.max())
    assert contains_polygon(P, Q, eps) == (d_qp.max() <= eps)


def test_distances_match_einsum_oracle_on_roundtrip_sections():
    # the sections of each golden scene against those of its double dual,
    # both ways, as involution_residual compares them
    from ccproj import l_dual
    from test_golden import SCENES

    for make in SCENES.values():
        fan = make().fan
        dd = l_dual(l_dual(fan), dual_params=fan.thetas)
        for P, Q in zip(fan.sections, dd.sections):
            assert_pair_matches_einsum_oracle(P, Q, 1e-9 * P.scale)


@settings(max_examples=300, deadline=None)
@given(clouds(), st.lists(point, min_size=1, max_size=30), st.floats(0.0, 3.0))
def test_distances_match_einsum_oracle(pts, queries, spread):
    # polygons, segments and points of any cloud; queries inside, on and
    # outside them, and their hull (a point, segment or polygon) as the
    # other polygon of hausdorff and contains_polygon
    poly = convex_hull(pts)
    q = np.vstack([np.array(queries, dtype=float), poly.vertices,
                   poly.centroid() + spread * (poly.vertices - poly.centroid())])
    assert np.array_equal(planar._distances(q, poly.section_stack), einsum_distances(q, poly))
    assert_pair_matches_einsum_oracle(poly, convex_hull(q), spread)
    assert_pair_matches_einsum_oracle(poly, convex_hull(queries), spread)


# ---------------------------------------------------------------------------
# Reference point-to-polygon kernels: distance, nearest_point and
# interior_margin as each wrote out its own edge feet or edge normals, and
# chebyshev_center's LP rows.  The shared helpers must reproduce them bit
# for bit.
# ---------------------------------------------------------------------------

def ref_distance(p, poly):
    p = np.asarray(p, dtype=float)
    v = poly.vertices
    if poly.n == 1:
        return float(np.linalg.norm(p - v[0]))
    e = np.roll(v, -1, axis=0) - v
    rel = p[None, :] - v
    if poly.n >= 3:
        cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
        if np.all(cross >= -1e-15 * np.abs(v).max() ** 2):
            return 0.0
    ee = np.sum(e * e, axis=1)
    ee[ee == 0.0] = 1.0
    t = np.clip(np.sum(rel * e, axis=1) / ee, 0.0, 1.0)
    foot = v + t[:, None] * e
    return float(np.min(np.linalg.norm(p[None, :] - foot, axis=1)))


def ref_nearest_point(p, poly):
    p = np.asarray(p, dtype=float)
    v = poly.vertices
    if poly.n == 1:
        return v[0].copy()
    e = np.roll(v, -1, axis=0) - v
    rel = p[None, :] - v
    if poly.n >= 3:
        cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
        if np.all(cross >= -1e-15 * np.abs(v).max() ** 2):
            return p.copy()
    ee = np.sum(e * e, axis=1)
    ee[ee == 0.0] = 1.0
    t = np.clip(np.sum(rel * e, axis=1) / ee, 0.0, 1.0)
    foot = v + t[:, None] * e
    i = int(np.argmin(np.linalg.norm(p[None, :] - foot, axis=1)))
    return foot[i]


def ref_interior_margin(poly, p):
    p = np.asarray(p, dtype=float)
    v = poly.vertices
    if poly.n == 1:
        return -float(np.linalg.norm(p - v[0]))
    e = poly.edges()
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    ln = np.linalg.norm(nrm, axis=1)
    good = ln > 0
    nrm = nrm[good] / ln[good][:, None]
    b = np.sum(nrm * v[good], axis=1)
    if poly.n == 2:
        return -ref_distance(p, poly)
    return float(np.min(b - nrm @ p))


def ref_chebyshev_rows(poly):
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    ln = np.linalg.norm(nrm, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-length edges
        nrm = nrm / ln[:, None]
    return nrm, np.sum(nrm * v, axis=1)


def ref_dual_offsets(v):
    """The offsets dualize._dual_sections compared with its margin, on a
    (P, n, 2) stack."""
    w = np.roll(v, -1, axis=1)
    e = w - v
    ln = np.sqrt(e[..., 1] * e[..., 1] + e[..., 0] * e[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return e[..., 1] / ln * v[..., 0] + -e[..., 0] / ln * v[..., 1]


@st.composite
def kernel_polygons(draw):
    """Hulls of clouds (polygons, segments and points) and, from a hull of
    n >= 3 vertices, a ConvexPolygon with one vertex repeated: a zero-length
    edge."""
    poly = convex_hull(draw(clouds()))
    if poly.n >= 3 and draw(st.booleans()):
        i = draw(st.integers(0, poly.n - 1))
        poly = ConvexPolygon(np.insert(poly.vertices, i, poly.vertices[i], axis=0))
    return poly


@settings(max_examples=400, deadline=None)
@given(kernel_polygons(), st.lists(point, min_size=1, max_size=10), st.floats(0.0, 3.0))
def test_point_kernels_match_reference(poly, queries, spread):
    # queries anywhere, at the vertices, and on rays from the centroid
    # through them: inside, on and outside the polygon
    c = poly.centroid()
    q = np.vstack([np.array(queries, dtype=float), poly.vertices,
                   c + spread * (poly.vertices - c)])
    for p in q:
        assert distance(p, poly) == ref_distance(p, poly)
        assert np.array_equal(nearest_point(p, poly), ref_nearest_point(p, poly))
        assert interior_margin(poly, p) == ref_interior_margin(poly, p)


def test_stacked_kernel_masks_the_padding():
    # the triangle is padded to the octagon's 8 vertices; a padded entry
    # that repeated vertex 0 unmasked would come out an ulp nearer to the
    # query than the true nearest foot on the first edge
    tri = ConvexPolygon([[-1.2627784984786055, 0.8469605111846839],
                         [1.122518095004468, -0.4451686263851543],
                         [1.6182364884988185, -0.374036746682324]])
    p = np.array([-3.3639523193225633, -3.0318489757688014])
    stack = planar.stack_sections([tri, mgon(1.0, 8)])
    got = planar.section_distances(np.array([p, [0.0, 0.0]]), stack)
    assert got[0] == ref_distance(p, tri) == 4.4113597066528545


# The inside screen, cross >= -1e-15 * max|v|**2, is relative: with scale
# clamped to >= 1 (the old screen) a point outside an edge of a polygon of
# size 1e-6 or less read as inside.

def test_distance_sees_a_point_outside_a_small_triangle():
    from ccproj.transversal import _depth_rows
    tri = convex_hull([[-1e-06, 1.195e-07], [-5.276e-07, -2.5e-07], [-6.03e-10, 8.61e-10]])
    x = np.array([2.2e-311, 2.9e-133])
    nrm, c = _depth_rows(tri)
    row = np.max(nrm @ x - c)  # 1.04e-9: x lies outside an edge
    assert distance(x, tri) >= row > 1e-9


def test_hausdorff_separates_small_triangles():
    P = convex_hull([[-7.2e-10, -6e-11], [9e-11, -1.08e-9], [7.2e-10, 0.0]])
    Q = convex_hull([[-7.2e-10, -6e-11], [9e-11, -1.08e-9], [3.6e-10, 1.9e-10]])
    # 3.92e-10, as the pair scaled by 1e3 shows
    assert hausdorff(P, Q) == pytest.approx(1e-3 * hausdorff(P.scaled(1e3), Q.scaled(1e3)),
                                            rel=1e-9, abs=0.0)


# coordinates 0 or at least 1e-100 in size: every product the kernel takes
# (of coordinates or of their differences) stays a normal float after a
# scaling by 2^-40, where an underflowed one would break the scaling of any
# float kernel, screen or no screen
scalable = st.one_of(st.just(0.0), st.floats(1e-100, 50.0), st.floats(-50.0, -1e-100))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(scalable, scalable), min_size=1, max_size=12),
       st.lists(st.tuples(scalable, scalable), min_size=1, max_size=6),
       st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]), st.integers(-40, 40))
def test_distance_scales_with_the_polygon(pts, queries, spread, j):
    # distance(s p, s P) = s distance(p, P) for s = 2^j: the inside screen
    # scales with the polygon.  Queries anywhere, and inside, on and
    # outside the hull on rays from its centroid through its vertices
    poly, s = convex_hull(pts), 2.0 ** j
    c = poly.centroid()
    for p in np.vstack([np.array(queries), c + spread * (poly.vertices - c)]):
        d = distance(p, poly)
        assert distance(s * p, poly.scaled(s)) == pytest.approx(s * d, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_polygons(), min_size=1, max_size=6), st.data())
def test_stacked_kernel_matches_distance(polys, data):
    # one query per section of a padded stack (points, segments, polygons
    # with near-collinear or repeated vertices, mixed vertex counts): a
    # random point, one on the ray from the centroid through a vertex,
    # inside, on or outside the section, or one outside the first edge
    # just past vertex 0, where a padded entry repeating vertex 0 would
    # beat the nearest foot by an ulp
    pts = []
    for poly in polys:
        c, v = poly.centroid(), poly.vertices[data.draw(st.integers(0, poly.n - 1))]
        spread = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 1.0 + 1e-12, 1.5, 3.0]))
        if data.draw(st.booleans()) and poly.n > 1:
            e = poly.vertices[1] - poly.vertices[0]
            pts.append(poly.vertices[0] + data.draw(st.floats(0.01, 2.0)) * np.array([e[1], -e[0]])
                       + data.draw(st.sampled_from([-1e-16, 1e-16, 3e-16])) * e)
        elif spread is None:
            pts.append(np.array(data.draw(point)))
        else:
            pts.append(c + spread * (v - c))
    pts = np.array(pts)
    stack = planar.stack_sections(polys)
    got = planar.section_distances(pts, stack)
    inside, t, dists = planar._edge_feet(pts, stack)
    for i, (x, poly) in enumerate(zip(pts, polys)):
        assert got[i] == distance(x, poly) == ref_distance(x, poly)
        if poly.n > 1 and not inside[i]:
            j = int(np.argmin(dists[i]))
            foot = stack.v[i, j] + t[i, j] * stack.e[i, j]
            assert np.array_equal(foot, ref_nearest_point(x, poly))


@settings(max_examples=200, deadline=None)
@given(kernel_polygons())
def test_edge_halfplanes_match_chebyshev_and_dual_rows(poly):
    if poly.n < 3:
        return  # chebyshev_center takes the centroid, without rows
    v = poly.vertices
    nrm, b = planar._edge_halfplanes(v)
    ref_nrm, ref_b = ref_chebyshev_rows(poly)
    assert np.array_equal(nrm, ref_nrm, equal_nan=True)
    assert np.array_equal(b, ref_b, equal_nan=True)
    stack = np.stack([v, v[::-1]])
    assert np.array_equal(planar._edge_halfplanes(stack)[1], ref_dual_offsets(stack),
                          equal_nan=True)


def lp_oracle(poly):
    """The centre scipy's linprog (HiGHS) finds for chebyshev_center's LP,
    on a polygon with n >= 3: the test oracle."""
    from scipy.optimize import linprog

    nrm, b = ref_chebyshev_rows(poly)
    good = ~np.isnan(b)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.hstack([nrm[good], np.ones((good.sum(), 1))]),
                  b_ub=b[good], bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    assert res.success
    return res.x[:2]


def assert_optimal_center(poly):
    """chebyshev_center solves its LP: the interior margin of its centre
    equals the simplex's optimal r within 1e-12 * scale, so the centre
    carries a disk of that radius, and no smaller than the margin of
    linprog's centre.  linprog's own r is not the reference: HiGHS drops
    matrix entries of at most 1e-9 and accepts rows violated by up to
    1e-7, so its r is 8.6e-11 short on the triangle (0, 1e-9), (1, 0),
    (0, 1) and 1.7e-9 over on the quadrilateral (-0.999999996,
    -2.000000002), (2, 2), (1, 2), (0, 0), where the simplex's r is the
    exact optimum to 1e-16.  n <= 2 gives the centroid."""
    centre = chebyshev_center(poly)
    if poly.n <= 2:
        assert np.array_equal(centre, poly.centroid())
        return
    bound = 1e-12 * poly.scale
    got, r = planar._largest_disk(poly)
    assert np.array_equal(centre, got)
    assert abs(interior_margin(poly, centre) - r) <= bound
    assert r >= interior_margin(poly, lp_oracle(poly)) - bound


@settings(max_examples=300, deadline=None)
@given(kernel_polygons())
# a sliver whose cofactor solves alone leave the centre 1.5e-8 off its rows,
# a sliver on which one lexicographic pass with absolute thresholds cycled,
# and the polygons on which linprog's own r is off
@example(ConvexPolygon([[0.0, 1.0], [2.0, 2.0], [0.999999999, 1.500000002]]))
@example(ConvexPolygon([[0.0, 1.0], [1e-15, 0.0], [1e-6, 1.0]]))
@example(ConvexPolygon([[0.0, 1e-9], [1.0, 0.0], [0.0, 1.0]]))
@example(ConvexPolygon([[-0.999999996, -2.000000002], [2.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
def test_chebyshev_center_solves_the_lp(poly):
    assert_optimal_center(poly)


@st.composite
def browder_polygons(draw):
    """An X2 or X1 polygon of a browder_four_sections run: the admissible
    hit-point sets it intersects, takes the centre of, and projects onto."""
    from unittest import mock

    from ccproj import browder_four_sections, gen_random_fan
    from ccproj.transversal import EmptySelection

    fan = gen_random_fan(draw(st.integers(0, 10 ** 6)), k=6,
                         complexity=draw(st.integers(0, 2)), m=32).fan
    assume(fan.k >= 4)
    idx = sorted(draw(st.sets(st.integers(0, fan.k - 1), min_size=4, max_size=4)))
    seen = []

    def record(P, Q, tol=planar.DEFAULT_TOL):
        seen.append(intersect_polygons(P, Q, tol))
        return seen[-1]

    with mock.patch.object(planar, "intersect_polygons", record):
        try:
            browder_four_sections(fan, idx)
        except EmptySelection:
            pass
    seen = [X for X in seen if X is not None]
    assume(seen)
    return draw(st.sampled_from(seen))


@settings(max_examples=100, deadline=None)
@given(browder_polygons())
def test_chebyshev_center_solves_the_lp_of_browder_steps(poly):
    assert_optimal_center(poly)


def test_chebyshev_center_tie_rule():
    # the lexicographically smallest maximiser: least x, then least y
    assert np.array_equal(chebyshev_center(convex_hull([[0, 0], [4, 0], [4, 2], [0, 2]])),
                          [1.0, 1.0])
    assert np.array_equal(chebyshev_center(convex_hull([[0, 0], [2, 0], [2, 4], [0, 4]])),
                          [1.0, 1.0])
    # radius-1 centres (c, 1) for c in [sqrt 2 - 1, 7 - sqrt 2]
    hexagon = convex_hull([[0, 0], [6, 0], [7, 1], [6, 2], [0, 2], [-1, 1]])
    assert np.allclose(chebyshev_center(hexagon), [np.sqrt(2.0) - 1.0, 1.0],
                       rtol=0.0, atol=1e-14)
    # a turned 4 x 2 rectangle: the end of its axis segment with least x
    polys = [hexagon]
    for th in (0.5, -0.5, 1.2, np.pi / 2):
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rect = convex_hull(np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float) @ rot.T)
        ends = np.array([[1.0, 1.0], [3.0, 1.0]]) @ rot.T
        assert np.allclose(chebyshev_center(rect), min(ends.tolist()), rtol=0.0, atol=1e-14)
        polys.append(rect)
    # the rule picks a point of the polygon, not of its vertex order: the
    # simplex starts at vertex 0, and from most other vertices it would
    # meet the far end of the segment first
    for poly in polys:
        for k in range(1, poly.n):
            turned = ConvexPolygon(np.roll(poly.vertices, k, axis=0))
            assert np.allclose(chebyshev_center(turned), chebyshev_center(poly),
                               rtol=0.0, atol=1e-14)


def test_chebyshev_center_of_points_segments_and_repeated_vertices():
    assert np.array_equal(chebyshev_center(convex_hull([[1.5, -2.0]])), [1.5, -2.0])
    assert np.array_equal(chebyshev_center(convex_hull([[0.0, 0.0], [2.0, 3.0]])), [1.0, 1.5])
    tri = convex_hull([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.allclose(chebyshev_center(tri), [1.0, 1.0], rtol=0.0, atol=1e-15)
    # a repeated vertex is a zero-length edge, skipped: the rows, and so
    # the pivots and the centre, of the cycle without it
    for i in range(tri.n):
        rep = ConvexPolygon(np.insert(tri.vertices, i, tri.vertices[i], axis=0))
        assert np.array_equal(chebyshev_center(rep), chebyshev_center(tri))


def ref_halfplane_clip(vertices, normal, offset, eps=1e-12):
    """halfplane_clip as it was, indexing numpy arrays vertex by vertex."""
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


@settings(max_examples=400, deadline=None)
@given(kernel_polygons(), point, st.data())
def test_halfplane_clip_matches_the_old_body(poly, normal, data):
    # lines through a vertex, shifted by 0, by eps either way, or anywhere
    # across the polygon; every clipped vertex keeps its bits
    v, n = poly.vertices, np.array(normal)
    eps = data.draw(st.sampled_from([0.0, 1e-12, 1e-9 * poly.scale]))
    offset = float(v[data.draw(st.integers(0, poly.n - 1))] @ n) + data.draw(
        st.sampled_from([0.0, eps, -eps, 2 * eps]) | st.floats(-50.0, 50.0))
    assert np.array_equal(planar.halfplane_clip(v, n, offset, eps),
                          ref_halfplane_clip(v, n, offset, eps))


@pytest.mark.parametrize("seed", range(5))
def test_hull_commutes_with_power_of_two_scaling(seed):
    # above 2^500 the chain and the merge run on the points scaled down,
    # with eps scaled alike: the same decisions as at any smaller scale
    pts = np.random.default_rng(seed).uniform(-50.0, 50.0, size=(30, 2))
    base = convex_hull(pts).vertices
    with np.errstate(over="raise"):
        for j in range(521):
            assert np.array_equal(convex_hull(np.ldexp(pts, j)).vertices, np.ldexp(base, j))
