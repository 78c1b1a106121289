from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccproj import cli, planar, surgery
from ccproj import (DEFAULT_TOL, ArcSegment, DegenerateQuadrangle,
                    DuplicateDirections, PencilFrame, SectionFan, contains_polygon, convex_hull,
                    gen_quadric, gen_random_fan, hausdorff, is_pointed, l_dual, octagonalize,
                    octagonalize_section, octagonalize_via_pointing, pointify,
                    section_at, serialize, sp_duality_check, surgery_p, surgery_s,
                    validate)
from ccproj.fan import THETA_EPS
from ccproj.planar import ConvexPolygon, tangent_quadrangle_corners
from ccproj.projcore import PI, DegenerateInput, dual_arc, wrap_angle
from conftest import (default_dual_params, dir_normal, interior_points, mark_validated,
                      merged_angles, mgon)
from test_planar import clouds, coord


@pytest.fixture(scope="module")
def quad_sym(frame):
    # quadric fan with samples exactly at pi/4 and 3pi/4
    thetas = (np.pi / 4 + np.arange(8) * np.pi / 8) % PI
    fan = SectionFan.create(frame, [(float(t), mgon(1.0, 64)) for t in thetas])
    return mark_validated(fan)


def test_surgery_s_midpoint_growth(quad_sym):
    arc = ArcSegment(np.pi / 4, 3 * np.pi / 4)
    out = surgery_s(quad_sym, arc)
    mid = section_at(out, np.pi / 2)
    # hull of two unit disks a quarter-turn apart bulges to sqrt(2) at the middle
    rad = np.linalg.norm(mid.vertices, axis=1)
    assert np.max(np.abs(rad - np.sqrt(2.0))) < 1e-2
    assert validate(out).ok
    # outside the arc nothing changed
    before = section_at(quad_sym, 3.0)
    after = section_at(out, 3.0)
    assert hausdorff(before, after) == 0.0


def test_surgery_s_idempotent(quad_sym):
    arc = ArcSegment(np.pi / 4, 3 * np.pi / 4)
    once = surgery_s(quad_sym, arc)
    twice = surgery_s(once, arc)
    assert once.k == twice.k
    for t in once.thetas:
        assert hausdorff(section_at(once, float(t)), section_at(twice, float(t))) == 0.0


def test_surgery_s_no_interior_samples(quad_sym):
    # arc between two adjacent samples: fan unchanged up to endpoint insertion
    t0, t1 = float(quad_sym.thetas[2]), float(quad_sym.thetas[3])
    arc = ArcSegment(t0 + 0.02, t1 - 0.02)
    out = surgery_s(quad_sym, arc)
    assert out.k == quad_sym.k + 2
    grid = np.linspace(0, PI, 40, endpoint=False)
    for t in grid:
        assert hausdorff(section_at(out, float(t)),
                         section_at(quad_sym, float(t))) < 1e-12


def surgery_s_oracle(fan, arc, tol=DEFAULT_TOL):
    """surgery_s with its former endpoint test: an endpoint is inserted
    unless it lies within THETA_EPS * 10 (mod pi) of a kept sample, every
    kept sample compared in turn."""
    if arc.length >= PI - THETA_EPS:
        raise DegenerateInput("surgery arc must be proper")
    keep = [(float(t), s) for t, s in zip(fan.thetas, fan.sections)
            if not arc.contains(float(t), closed=False, slack=THETA_EPS * 10)]
    new = list(keep)
    for endpoint in (arc.start, arc.end):
        if all(abs(endpoint - t) > THETA_EPS * 10
               and PI - abs(endpoint - t) > THETA_EPS * 10 for t, _ in keep):
            new.append((endpoint, section_at(fan, endpoint, tol)))
    if len(new) < 3:
        raise DegenerateInput("surgery would leave fewer than 3 samples")
    return SectionFan.create(fan.frame, new, validated=fan.validated)


@st.composite
def fans_and_endpoint_arcs(draw):
    """A fan of 3 to 7 scaled octagons and an arc whose endpoints are
    either anywhere or 0 to 20 THETA_EPS from a sample, on either side
    (across 0 and pi too)."""
    thetas = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, PI, exclude_max=True)),
                           min_size=3, max_size=7, unique=True).map(sorted))
    assume(np.all(np.diff(thetas) > THETA_EPS))
    sizes = draw(st.lists(st.floats(0.5, 2.0), min_size=len(thetas), max_size=len(thetas)))
    fan = SectionFan.create(PencilFrame.standard(),
                            [(t, mgon(r, 8)) for t, r in zip(thetas, sizes)])

    def endpoint():
        if draw(st.booleans()):
            return draw(st.floats(0.0, PI, exclude_max=True))
        off = draw(st.floats(0.0, 20.0 * THETA_EPS)) * draw(st.sampled_from([-1.0, 1.0]))
        return draw(st.sampled_from(thetas)) + off

    a, b = endpoint(), endpoint()
    assume(abs(wrap_angle(a) - wrap_angle(b)) >= 1e-15)
    return fan, ArcSegment(a, b)


@settings(max_examples=300, deadline=None)
@given(fans_and_endpoint_arcs())
# by the arc's measure sample 0 lies 1.00000008e-11 before the end 1e-11,
# past THETA_EPS * 10, so it is removed; sample_index_at measures 1e-11 and
# names it, yet the end must still be inserted
@example((SectionFan.create(PencilFrame.standard(), [(t, mgon(1.0, 8)) for t in (0.0, 1.0, 2.0)]),
          ArcSegment(3.141592653569793, 1e-11)))
def test_surgery_s_matches_endpoint_loop_oracle(case):
    # an endpoint is inserted unless sample_index_at names a kept sample
    fan, arc = case
    outcome = []
    for run in (surgery_s, surgery_s_oracle):
        try:
            outcome.append(run(fan, arc))
        except DegenerateInput as exc:
            outcome.append(str(exc))
    got, want = outcome
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.thetas, want.thetas)
    assert all(np.array_equal(p.vertices, q.vertices)
               for p, q in zip(got.sections, want.sections))


def test_pointify_disk():
    disk = mgon(1.0, 64)
    arc = ArcSegment(0.0, np.pi / 2)
    out = pointify(disk, arc)
    expected = convex_hull(np.vstack([disk.vertices, [[1, 1], [-1, -1]]]))
    assert hausdorff(out, expected) < 1e-9
    got = is_pointed(out, arc)
    assert got is not None and sorted(map(tuple, np.round(np.vstack(got), 9))) \
        == [(-1.0, -1.0), (1.0, 1.0)]


def test_pointify_fixed_point():
    disk = mgon(1.0, 64)
    arc = ArcSegment(0.0, np.pi / 2)
    once = pointify(disk, arc)
    twice = pointify(once, arc)
    assert hausdorff(once, twice) < 1e-12


def test_pointify_minimality_vertex_deletion():
    disk = mgon(1.0, 32)
    arc = ArcSegment(0.0, np.pi / 2)
    out = pointify(disk, arc)
    added = tangent_quadrangle_corners(disk, arc.start, arc.end)
    for v in added:
        rest = [u for u in out.vertices if np.linalg.norm(u - v) > 1e-9]
        assert is_pointed(convex_hull(rest), arc) is None
    assert contains_polygon(out, disk, 1e-12)


def test_pointify_degenerate_segment():
    # segment aligned with one tangent direction: degenerate quadrangle is
    # flagged but the two forced endpoints are still added
    seg = ConvexPolygon([[-1.0, 0.0], [1.0, 0.0]])
    arc = ArcSegment(0.0, np.pi / 2)
    out = pointify(seg, arc)
    corners = tangent_quadrangle_corners(seg, arc.start, arc.end)
    assert sorted(map(tuple, np.round(corners, 12))) == [(-1.0, 0.0), (1.0, 0.0)]
    assert hausdorff(out, seg) < 1e-12  # the segment is already pointed here
    got = is_pointed(seg, arc)
    assert got is not None


def test_pointify_degenerate_arc():
    disk = mgon(1.0, 16)
    arc = ArcSegment(0.3, 0.3 + 1e-12)
    with pytest.raises(DegenerateQuadrangle):
        pointify(disk, arc)
    with pytest.raises(DegenerateInput):
        ArcSegment(0.3, 0.3)


def test_surgery_p_quadric(quad_sym):
    arc = ArcSegment(0.0, np.pi / 2)
    out = surgery_p(quad_sym, arc)
    assert validate(out).ok
    for s_in, s_out in zip(quad_sym.sections, out.sections):
        expected = convex_hull(np.vstack([s_in.vertices, [[1, 1], [-1, -1]]]))
        assert hausdorff(s_out, expected) < 1e-9
        assert is_pointed(s_out, arc) is not None


def test_octagonalize_unit_disk(oct_dirs):
    disk = mgon(1.0, 64)
    octo = octagonalize_section(disk, oct_dirs)
    assert octo.n == 8
    # support slabs of the unit circle: |u| <= 1, |v| <= 1, |u +- v| <= sqrt(2)
    assert abs(octo.support([[1.0, 0.0]])[0] - 1.0) < 1e-12
    assert abs(octo.support([[0.0, 1.0]])[0] - 1.0) < 1e-12
    diag = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    assert abs(octo.support([diag])[0] - 1.0) < 1e-12
    again = octagonalize_section(octo, oct_dirs)
    assert hausdorff(again, octo) < 1e-12


def test_octagonalize_fan(quad12, oct_dirs):
    out = octagonalize(quad12, oct_dirs)
    assert validate(out).ok
    for s_in, s_out in zip(quad12.sections, out.sections):
        assert s_out.n <= 8
        assert contains_polygon(s_out, s_in, 1e-12)
        angles = np.arctan2(s_out.edges()[:, 1], s_out.edges()[:, 0]) % PI
        for a in angles:
            assert min(np.min(np.abs(oct_dirs - a)),
                       np.min(PI - np.abs(oct_dirs - a))) < 1e-9


def test_octagonalize_equals_pointing_composition(oct_dirs):
    from ccproj import gen_random_fan
    for seed in range(5):
        fan = gen_random_fan(seed, k=8, complexity=1, m=32).fan
        a = octagonalize(fan, oct_dirs)
        b = octagonalize_via_pointing(fan, oct_dirs)
        worst = max(hausdorff(x, y) for x, y in zip(a.sections, b.sections))
        assert worst <= 1e-9


def test_octagonalize_duplicate_directions(quad12):
    with pytest.raises(DuplicateDirections):
        octagonalize(quad12, [0.0, 0.0, 1.0, 2.0])
    with pytest.raises(DuplicateDirections):
        octagonalize(quad12, [0.0, 1.0, 2.0])


def test_p_surgeries_commute(quad_sym):
    # arcs with disjoint complements commute
    a1 = ArcSegment(0.5, 0.2)   # complement (0.2, 0.5)
    a2 = ArcSegment(1.5, 1.0)   # complement (1.0, 1.5)
    ab = surgery_p(surgery_p(quad_sym, a1), a2)
    ba = surgery_p(surgery_p(quad_sym, a2), a1)
    worst = max(hausdorff(x, y) for x, y in zip(ab.sections, ba.sections))
    assert worst <= 1e-9


def test_s_surgeries_commute(quad_sym):
    a1 = ArcSegment(0.3, 0.9)
    a2 = ArcSegment(1.4, 2.2)
    ab = surgery_s(surgery_s(quad_sym, a1), a2)
    ba = surgery_s(surgery_s(quad_sym, a2), a1)
    grid = np.linspace(0, PI, 37, endpoint=False)
    worst = max(hausdorff(section_at(ab, float(t)), section_at(ba, float(t)))
                for t in grid)
    assert worst <= 1e-9


def test_p_and_s_commute(quad_sym):
    ap = ArcSegment(0.7, 0.1)    # arc on L
    as_ = ArcSegment(1.2, 2.0)   # arc on the pencil
    ps = surgery_p(surgery_s(quad_sym, as_), ap)
    sp = surgery_s(surgery_p(quad_sym, ap), as_)
    grid = np.linspace(0, PI, 37, endpoint=False)
    worst = max(hausdorff(section_at(ps, float(t)), section_at(sp, float(t)))
                for t in grid)
    assert worst <= 1e-9


def test_sp_duality_octagon_exact(oct_fan, oct_dirs):
    fan = mark_validated(oct_fan)
    arc = ArcSegment(float(oct_dirs[1]), float(oct_dirs[0]))
    ok, worst = sp_duality_check(fan, arc)
    assert ok and worst <= 1e-6


def test_sp_duality_quadric(quad12):
    arc = ArcSegment(0.0, np.pi / 2)
    ok, worst = sp_duality_check(mark_validated(quad12), arc, eps=5e-2 * 2.0)
    assert ok, worst


def probe_sp_duality_check(fan, arc, tol=DEFAULT_TOL, eps=None, n_extra=0):
    """Reference oracle: the former probe version of sp_duality_check, which
    samples both duals at one set: default_dual_params of the fan and of the
    pointed fan, the pointed fan's edge-direction classes, the dual arc's
    ends and n_extra parameters inside the dual arc and inside its
    complement."""
    darc = dual_arc(arc)
    extra = [darc.start, darc.end]
    if n_extra:
        extra = np.concatenate([extra, interior_points(darc, n_extra),
                                interior_points(darc.complement(), n_extra)])
    pfan = surgery_p(fan, arc, tol)
    params = default_dual_params(pfan, extra=np.concatenate(
        [default_dual_params(fan, extra=extra), merged_angles(pfan.edge_angles(), 1e-9)]))
    lhs = l_dual(mark_validated(pfan), dual_params=params, tol=tol)
    rhs = surgery_s(l_dual(mark_validated(fan), dual_params=params, tol=tol), darc, tol)
    worst = max(hausdorff(section_at(lhs, float(t), tol), section_at(rhs, float(t), tol))
                for t in params)
    if eps is None:
        eps = tol.eps_dual * max(lhs.scale(), 1.0)
    return worst <= eps, worst


def test_sp_duality_matches_probe_oracle():
    # Comparing the exact duals at both fans' samples gives the probe
    # oracle's verdict on the criterion-4 fans and on seeded arcs.
    quad = mark_validated(gen_quadric(12, 64).fan)
    dirs = np.array([0.0, PI / 4, PI / 2, 3 * PI / 4])
    octf = mark_validated(octagonalize(quad, dirs))
    cases = [(octf, ArcSegment(float(dirs[(i + 1) % 4]), float(dirs[i])), 1e-6 * octf.scale())
             for i in range(4)]
    cases += [(quad, arc, 5e-2 * quad.diameter())
              for arc in (ArcSegment(0.0, PI / 2), ArcSegment(1.0, 2.2))]
    rng = np.random.default_rng(7)
    for fan in (octf, quad, gen_random_fan(0).fan, gen_random_fan(1).fan):
        for _ in range(3):
            a = rng.uniform(0.0, PI)
            cases.append((fan, ArcSegment(a, (a + rng.uniform(0.2, 0.9 * PI)) % PI), None))
    for fan, arc, eps in cases:
        ok, worst = sp_duality_check(fan, arc, eps=eps)
        assert ok == probe_sp_duality_check(fan, arc, eps=eps, n_extra=3)[0]
        assert ok and worst <= 1e-12 * fan.scale()


def test_octagon_sections_pointed_for_all_four_arcs(oct_fan, oct_dirs):
    # each octagon is pointed with respect to every complementary arc
    for i in range(4):
        arc = ArcSegment(float(oct_dirs[(i + 1) % 4]), float(oct_dirs[i]))
        for s in oct_fan.sections:
            assert is_pointed(s, arc) is not None


def test_support_slab_property(quad12):
    # polygon inside the closed slab, both lines touching
    rng = np.random.default_rng(9)
    for s in quad12.sections[:3]:
        for _ in range(5):
            n = dir_normal(rng.uniform(0, PI))
            lo, hi = s.support_interval(n)
            vals = s.vertices @ n
            assert np.all(vals <= hi + 1e-12)
            assert np.all(vals >= lo - 1e-12)
            assert np.min(np.abs(vals - hi)) < 1e-9
            assert np.min(np.abs(vals - lo)) < 1e-9


def test_surgery_closure_seeds():
    from ccproj import gen_random_fan
    rng = np.random.default_rng(42)
    for seed in range(6):
        fan = gen_random_fan(seed + 100, k=8, complexity=1, m=32).fan
        a = float(rng.uniform(0, PI))
        arc_s = ArcSegment(a, (a + rng.uniform(0.3, 1.2)) % PI)
        b = float(rng.uniform(0, PI))
        arc_p = ArcSegment(b, (b + rng.uniform(0.3, 1.2)) % PI)
        assert validate(surgery_s(fan, arc_s)).ok
        assert validate(surgery_p(fan, arc_p)).ok


# ---------------------------------------------------------------------------
# Reference surgeries: pointify as the hull of the section and its two
# tangent-quadrangle corners, and octagonalize_section as a seed box clipped
# by the eight slab half-planes.  The closed forms must match them.
# ---------------------------------------------------------------------------

def ref_support_lines(poly, a):
    """Unit normal of direction a and the (low, high) offsets of the two
    support lines with that direction."""
    n = dir_normal(a)
    return n, *poly.support_interval(n)


def ref_tangent_quadrangle_corners(poly, arc_start, arc_end, tol=DEFAULT_TOL):
    a, b = wrap_angle(arc_start), wrap_angle(arc_end)
    s = np.sin(b - a)
    if abs(s) <= tol.eps_convex:
        raise DegenerateInput("arc endpoints give parallel tangent directions")
    na, lo_a, hi_a = ref_support_lines(poly, a)
    nb, lo_b, hi_b = ref_support_lines(poly, b)
    want = -1.0 if s > 0 else 1.0
    mat = np.vstack([na, nb])
    corners = []
    for s_a, s_b in [(1.0, want), (-1.0, -want)]:
        ca = hi_a if s_a > 0 else lo_a
        cb = hi_b if s_b > 0 else lo_b
        corners.append(np.linalg.solve(mat, np.array([ca, cb])))
    return np.array(corners)


def ref_pointify(section, arc, tol=DEFAULT_TOL):
    corners = ref_tangent_quadrangle_corners(section, arc.start, arc.end, tol)
    return convex_hull(np.vstack([section.vertices, corners]), tol)


def ref_octagonalize_section(section, angles, tol=DEFAULT_TOL):
    halfplanes = []
    for a in np.asarray(angles, dtype=float):
        n, lo, hi = ref_support_lines(section, float(a))
        halfplanes.append((n, hi))
        halfplanes.append((-n, -lo))
    c = section.centroid()
    r = 4.0 * max(section.diameter(), section.scale)
    seed = np.array([[c[0] - r, c[1] - r], [c[0] + r, c[1] - r],
                     [c[0] + r, c[1] + r], [c[0] - r, c[1] + r]])
    return planar.intersect_halfplanes(halfplanes, seed, tol)


def assert_close_superset(out, ref, section, tol=DEFAULT_TOL):
    """Same vertex count as the oracle, within eps = eps_convex * scale of it
    in Hausdorff distance, and containing the input section within the bound
    planar._hull_cycle states, sqrt(2) eps + pops * eps, as the oracles'
    hulls do: the dedup keeps the first of two points within eps in
    max-norm, up to sqrt(2) eps away, and each vertex the collinear merge
    pops moves the hull by up to eps.  A popped vertex lies outside the
    result, so the section's vertices outside it bound the pops."""
    eps = tol.eps_convex * max(out.scale, ref.scale)
    assert out.n == ref.n
    assert hausdorff(out, ref) <= eps
    pops = int(np.sum(planar._distances(section.vertices, out.section_stack) > 0.0))
    assert contains_polygon(out, section, (np.sqrt(2.0) + pops) * eps)


@pytest.fixture(scope="module")
def bench():
    """The benchmark's scenes: quadrics and random fans 0-19 (k=10,
    complexity 2), plus the exact duals of the first quadrics."""
    fans = [gen_quadric(k, m).fan for k, m in ((12, 64), (12, 256), (48, 64), (48, 256))]
    fans += [gen_random_fan(s, k=10, complexity=2).fan for s in range(20)]
    return fans + [l_dual(f) for f in fans[:2]]


def test_surgery_p_matches_oracle_bit_for_bit(bench):
    # seeded arcs on the bench fans, then the same arc again on the pointed
    # fan, where each corner lies on a vertex
    rng = np.random.default_rng(13)
    for fan in bench:
        for _ in range(2):
            a = rng.uniform(0.0, PI)
            arc = ArcSegment(a, (a + rng.uniform(0.05, 0.95) * PI) % PI)
            once = surgery_p(fan, arc)
            twice = surgery_p(once, arc)
            for src, out in ((fan, once), (once, twice)):
                for s, o in zip(src.sections, out.sections):
                    assert np.array_equal(o.vertices, ref_pointify(s, arc).vertices)


def test_octagonalize_matches_oracle_on_bench_fans(bench):
    rng = np.random.default_rng(17)
    for fan in bench:
        dirs = (rng.uniform(0.0, PI / 4) + np.arange(4) * PI / 4
                + rng.uniform(-0.05, 0.05, size=4)) % PI
        out = octagonalize(fan, dirs)
        for s, o in zip(fan.sections, out.sections):
            assert_close_superset(o, ref_octagonalize_section(s, np.sort(dirs)), s)


def test_tangent_corners_match_oracle(bench):
    rng = np.random.default_rng(19)
    for fan in bench[:6]:
        for s in fan.sections:
            a, b = rng.uniform(0.0, PI, size=2)
            got = tangent_quadrangle_corners(s, a, b)
            assert np.array_equal(got, ref_tangent_quadrangle_corners(s, a, b))


hull_sections = clouds().map(convex_hull)  # polygons, segments and points
near_parallel = st.floats(1.01e-9, 1e-8)


@st.composite
def oct_angle_sets(draw, near=True):
    """Four sorted direction classes: some gaps just above 1e-9 when near,
    else every gap at least 0.4."""
    gap = st.one_of(near_parallel, st.floats(0.05, 1.0)) if near else st.floats(0.4, 0.9)
    gaps = [draw(gap) for _ in range(3)]
    if sum(gaps) >= PI - 2e-9:  # leave the fourth gap above 1e-9
        gaps = [g * (PI - 1e-3) / sum(gaps) for g in gaps]
    start = draw(st.floats(0.0, PI))
    return np.sort((start + np.concatenate([[0.0], np.cumsum(gaps)])) % PI)


@st.composite
def pointing_arcs(draw):
    """Arcs on L, including endpoint directions just above parallel."""
    a = draw(st.floats(0.0, PI))
    length = draw(st.one_of(st.floats(0.05, PI - 0.05), near_parallel,
                            near_parallel.map(lambda g: PI - g)))
    return ArcSegment(a, (a + length) % PI)


def exact_octagon(section, angles):
    """The slab intersection in rational arithmetic: the float normals and
    vertices taken exactly, each vertex one exact 2x2 solve of two
    consecutive slab sides, rounded once, then hulled."""
    nrm = [dir_normal(a) for a in angles]
    sides = ([(Fraction(x), Fraction(y)) for x, y in nrm]
             + [(-Fraction(x), -Fraction(y)) for x, y in nrm])
    verts = [(Fraction(x), Fraction(y)) for x, y in section.vertices]
    h = [max(a * x + b * y for x, y in verts) for a, b in sides]
    out = []
    for j in range(8):
        (a, b), (c, d) = sides[j], sides[(j + 1) % 8]
        h0, h1 = h[j], h[(j + 1) % 8]
        det = a * d - b * c
        out.append([float((h0 * d - h1 * b) / det), float((a * h1 - c * h0) / det)])
    return convex_hull(np.array(out))


@settings(max_examples=300, deadline=None)
@given(hull_sections, oct_angle_sets())
# both ends of a short edge round to one support value on the near-parallel
# sides; the support point must be the far end, the exact maximum
@example(convex_hull([[0.0, 1.0], [1.01e-9, 1.0]]),
         np.array([0.0, 1.01e-9, 2.02e-9, 3.03e-9]))
def test_octagonalize_section_matches_exact_oracle(section, angles):
    surgery._oct_angles(angles)  # the drawn gaps are distinct classes
    assert_close_superset(octagonalize_section(section, angles),
                          exact_octagon(section, angles), section)


@st.composite
def plain_sections(draw):
    """Points, segments and ellipse-inscribed m-gons, without features
    near eps."""
    center = np.array(draw(st.tuples(coord, coord)))
    phase, size = draw(st.floats(0.0, PI)), draw(st.floats(0.1, 10.0))
    kind = draw(st.sampled_from(["point", "segment", "polygon"]))
    if kind == "point":
        return ConvexPolygon(center)
    if kind == "segment":
        d = size * np.array([np.cos(phase), np.sin(phase)])
        return convex_hull([center - d, center + d])
    m = draw(st.integers(3, 24))
    a = 2.0 * PI * np.arange(m) / m
    ell = np.stack([np.cos(a), draw(st.floats(0.2, 1.0)) * np.sin(a)], axis=1)
    rot = np.array([[np.cos(phase), -np.sin(phase)], [np.sin(phase), np.cos(phase)]])
    return convex_hull(center + size * ell @ rot.T)


@settings(max_examples=300, deadline=None)
@given(plain_sections(), oct_angle_sets(near=False))
def test_octagonalize_section_matches_clipping_oracle(section, angles):
    # The clipping oracle is accurate when its seed box holds the octagon
    # (no two directions close: see test_octagon_reaches_beyond_the_seed_box)
    # and the section has no feature near its clip tolerance, eps_convex
    # times the box's scale (about 5 times the hull's eps): a segment within
    # 1e-6 rad of a direction gives a slab of width near eps.
    if section.n == 2:
        e = section.edges()[0]
        gap = np.abs((np.arctan2(e[1], e[0]) - angles + PI / 2) % PI - PI / 2)
        assume(np.min(gap) > 1e-6)
    assert_close_superset(octagonalize_section(section, angles),
                          ref_octagonalize_section(section, angles), section)


def test_octagon_reaches_beyond_the_seed_box():
    # four directions within 0.02 rad: the slab intersection reaches 370
    # from the section, the clipping oracle's seed box only 4 diameters
    section = convex_hull([[-3.649034949775888, 2.214883401940817],
                           [0.25354322475725866, -1.8975812444104436],
                           [1.8844673057094015, -1.1107857602089624],
                           [4.97209935789211, 4.808353387762302]])
    angles = [1.2303073750654487, 1.2392133046255038, 1.2428554770729237,
              1.2488390473719007]
    out, exact = octagonalize_section(section, angles), exact_octagon(section, angles)
    assert_close_superset(out, exact, section)
    assert np.max(np.abs(out.vertices)) > 370.0
    assert hausdorff(ref_octagonalize_section(section, angles), exact) > 100.0


@settings(max_examples=300, deadline=None)
@given(hull_sections, pointing_arcs())
# the dedup drops (49, -24), 15 in max-norm from (35, -9), then the merge
# pops (35, -9), 16.85 from the corner chord: (49, -24) ends 37.21 = 2.13 eps
# outside the result, within sqrt(2) eps + 1 pop
@example(convex_hull([[23, 49], [35, -9], [49, -24]]), ArcSegment(0.625, 0.6250000034621788))
def test_pointify_matches_oracle(section, arc):
    out = pointify(section, arc)
    assert_close_superset(out, ref_pointify(section, arc), section)
    assert_close_superset(pointify(out, arc), ref_pointify(out, arc), out)


def count_chain_calls(monkeypatch):
    calls = []
    chain = planar._chain
    monkeypatch.setattr(planar, "_chain", lambda pts: calls.append(1) or chain(pts))
    return calls


@pytest.mark.parametrize("km", [(12, 64), (48, 256)])
def test_surgeries_skip_the_hull_chain_on_quadrics(km, monkeypatch):
    fan = gen_quadric(*km).fan
    calls = count_chain_calls(monkeypatch)
    for dirs in ([0.0, PI / 4, PI / 2, 3 * PI / 4], [0.1, 0.9, 1.6, 2.5]):
        octagonalize(fan, dirs)
    for a, b in ((0.0, 1.5708), (0.3, 1.2), (2.0, 0.5)):
        surgery_p(fan, ArcSegment(a, b))
    assert calls == []


def forbid_section_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("per-section work before the argument check")
    for mod, name in ((surgery, "support_intervals"), (surgery, "_octagons"),
                      (planar, "hulls_with_corners"), (ConvexPolygon, "support_interval")):
        monkeypatch.setattr(mod, name, boom)


PARALLEL_ARCS = [(0.3, 0.3 + 1e-12), (1.0, 1.0 - 1e-12)]
BAD_DIRS = [[0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 5e-10, 1.0, 2.0]]


def test_argument_errors_fire_before_section_work(quad12, monkeypatch):
    forbid_section_work(monkeypatch)
    for a, b in PARALLEL_ARCS:
        with pytest.raises(DegenerateQuadrangle):
            surgery_p(quad12, ArcSegment(a, b))
        with pytest.raises(DegenerateQuadrangle):
            pointify(quad12.sections[0], ArcSegment(a, b))
    for dirs in BAD_DIRS:
        with pytest.raises(DuplicateDirections):
            octagonalize(quad12, dirs)
        with pytest.raises(DuplicateDirections):
            octagonalize_section(quad12.sections[0], dirs)


@pytest.mark.parametrize("argv", [["surgery-p", "--arc", "%r,%r" % arc] for arc in PARALLEL_ARCS]
                         + [["octagonalize", "--dirs", " ".join(map(repr, d))] for d in BAD_DIRS])
def test_cli_argument_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    path = tmp_path / "quad.json"
    path.write_text(serialize(gen_quadric(6, 16)), encoding="utf-8")
    forbid_section_work(monkeypatch)
    assert cli.main([argv[0], "--in", str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error=")
