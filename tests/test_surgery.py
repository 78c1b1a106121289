import numpy as np
import pytest

from ccproj import (DEFAULT_TOL, ArcSegment, DegenerateQuadrangle, DuplicateDirections,
                    SectionFan, contains_polygon, convex_hull,
                    gen_quadric, gen_random_fan, hausdorff, is_pointed, l_dual, octagonalize,
                    octagonalize_via_pointing, pointify,
                    section_at, sp_duality_check, surgery_p, surgery_s,
                    validate)
from ccproj.planar import ConvexPolygon, tangent_quadrangle_corners
from ccproj.projcore import PI, DegenerateInput, dual_arc
from conftest import default_dual_params, interior_points, mark_validated, merged_angles, mgon


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
    added, _ = tangent_quadrangle_corners(disk, arc.start, arc.end)
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
    corners, _ = tangent_quadrangle_corners(seg, arc.start, arc.end)
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
    from ccproj import octagonalize_section
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
    lhs = l_dual(pfan, dual_params=params, tol=tol, check_input=False)
    rhs = surgery_s(l_dual(fan, dual_params=params, tol=tol, check_input=False), darc, tol)
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
    from ccproj import support_lines_through
    rng = np.random.default_rng(9)
    for s in quad12.sections[:3]:
        for _ in range(5):
            sl = support_lines_through(s, float(rng.uniform(0, PI)))
            vals = s.vertices @ sl.normal
            assert np.all(vals <= sl.c_high + 1e-12)
            assert np.all(vals >= sl.c_low - 1e-12)
            assert np.min(np.abs(vals - sl.c_high)) < 1e-9
            assert np.min(np.abs(vals - sl.c_low)) < 1e-9


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
