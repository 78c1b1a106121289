import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ccproj import planar
from ccproj import (ConvexPolygon, DirPoint, RefNotInterior, chebyshev_center,
                    convex_hull, distance, hausdorff, minkowski_scaled_sum,
                    nearest_point, polar_dual, support_lines_through)
from ccproj.planar import interior_margin, intersect_polygons, tangent_quadrangle_corners
from conftest import mgon


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
    sl = support_lines_through(disk, DirPoint(0.0))
    # analytic tangents of the unit circle are v = +-1
    assert abs(sl.c_high - 1.0) <= 1e-2 and abs(sl.c_low + 1.0) <= 1e-2
    assert not sl.degenerate


def test_support_lines_square():
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    sl = support_lines_through(sq, DirPoint(0.0))
    assert sl.c_high == 1.0 and sl.c_low == -1.0
    sl45 = support_lines_through(sq, DirPoint(np.pi / 4))
    ref = brute_support(sq.vertices, sl45.normal)
    assert abs(sl45.c_high - ref) < 1e-12
    assert abs(sl45.c_high - np.sqrt(2)) < 1e-12
    # the high support line passes through (-1, 1), the low one through (1, -1)
    assert abs(np.dot(sl45.normal, [-1, 1]) - sl45.c_high) < 1e-12
    assert abs(np.dot(sl45.normal, [1, -1]) - sl45.c_low) < 1e-12


def test_support_lines_degenerate_segment():
    from ccproj import DegenerateSupport
    seg = ConvexPolygon([[0, 0], [2, 0]])
    sl = support_lines_through(seg, DirPoint(0.0))
    assert sl.degenerate
    assert abs(sl.c_high - sl.c_low) < 1e-12
    with pytest.raises(DegenerateSupport):
        support_lines_through(seg, DirPoint(0.0), strict=True)


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
    corners, degen = tangent_quadrangle_corners(disk, 0.0, np.pi / 2)
    got = sorted(map(tuple, np.round(corners, 9)))
    assert got == [(-1.0, -1.0), (1.0, 1.0)]
    assert not degen
    # complementary arc selects the other diagonal
    corners2, _ = tangent_quadrangle_corners(disk, np.pi / 2, 0.0)
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

    lower = chain(pts)
    upper = chain(pts[::-1])
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:
        out = np.array([lower[0], lower[-1]]) if len(lower) >= 2 else np.array(lower)
    else:
        out = ref_merge_collinear(np.array(cycle), eps)
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
    order = np.argsort(np.arctan2(edges[:, 1], edges[:, 0]) % (2.0 * np.pi), kind="stable")
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


@settings(max_examples=400, deadline=None)
@given(minkowski_operands(), weight, weight)
def test_merged_minkowski_sum_matches_unmerged_reference(operands, a, b):
    P, Q = operands
    out, ref = minkowski_scaled_sum(a, P, b, Q), ref_minkowski_scaled_sum(a, P, b, Q)
    scale = max(out.scale, ref.scale)
    assert hausdorff(out, ref) <= 1e-9 * scale
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    normals = [np.stack([np.cos(angles), np.sin(angles)], axis=1)]
    for poly in (P, Q, out):
        if poly.n > 1:
            e = poly.edges()  # zero-length when a weight is 0
            normals.append(np.stack([e[:, 1], -e[:, 0]], axis=1)
                           / np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)[:, None])
    dirs = np.vstack(normals)
    exact = a * P.support(dirs) + b * Q.support(dirs)
    # beyond what the chain's own eps merge moves (the reference's error,
    # e.g. a sum within eps of a point collapses to it), the merge of
    # parallel edges moves the support by rounding only
    assert (np.max(np.abs(out.support(dirs) - exact))
            <= np.max(np.abs(ref.support(dirs) - exact)) + 1e-12 * scale)


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


def einsum_distance_many(pts, poly):
    """The former distance_many, on (k, n, 2) arrays: feet by einsum, norms
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
        inside = np.all(cross >= -1e-15 * poly.scale ** 2, axis=1)
        d[inside] = 0.0
    return d


def test_distance_many_matches_einsum_oracle_on_roundtrip_sections():
    # the sections of each golden scene against those of its double dual,
    # both ways, as involution_residual compares them
    from ccproj import l_dual
    from test_golden import SCENES

    for make in SCENES.values():
        fan = make().fan
        dd = l_dual(l_dual(fan), dual_params=fan.thetas, check_input=False)
        for P, Q in zip(fan.sections, dd.sections):
            for a, b in ((P, Q), (Q, P)):
                assert np.array_equal(planar.distance_many(a.vertices, b),
                                      einsum_distance_many(a.vertices, b))


@settings(max_examples=300, deadline=None)
@given(clouds(), st.lists(point, min_size=1, max_size=30), st.floats(0.0, 3.0))
def test_distance_many_matches_einsum_oracle(pts, queries, spread):
    # polygons, segments and points of any cloud; queries inside, on and
    # outside them
    poly = convex_hull(pts)
    q = np.vstack([np.array(queries, dtype=float), poly.vertices,
                   poly.centroid() + spread * (poly.vertices - poly.centroid())])
    assert np.array_equal(planar.distance_many(q, poly), einsum_distance_many(q, poly))


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
        if np.all(cross >= -1e-15 * poly.scale ** 2):
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
        if np.all(cross >= -1e-15 * poly.scale ** 2):
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


def ref_chebyshev_center(poly):
    from scipy.optimize import linprog

    nrm, b = ref_chebyshev_rows(poly)
    a_ub = np.hstack([nrm, np.ones((len(b), 1))])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    if not res.success:
        return poly.centroid()
    return np.array(res.x[:2])


@settings(max_examples=100, deadline=None)
@given(kernel_polygons())
def test_chebyshev_center_matches_reference(poly):
    if poly.n < 3:
        assert np.array_equal(chebyshev_center(poly), poly.centroid())
    elif np.all(np.any(poly.edges() != 0.0, axis=1)):
        assert np.array_equal(chebyshev_center(poly), ref_chebyshev_center(poly))
    else:  # a zero-length edge gives a NaN row, which linprog rejects (CHANGES.md)
        with pytest.raises(ValueError):
            ref_chebyshev_center(poly)
        with pytest.raises(ValueError):
            chebyshev_center(poly)
