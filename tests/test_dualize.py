import numpy as np
import pytest

from ccproj import (ArcSegment, InvalidInput, IntersectsDualL, ProjLine,
                    SectionFan, affine_dependence_check, convex_hull, distance,
                    dual_of_found_line, fan_contains_sectionwise, hausdorff,
                    involution_residual, l_dual, plane_meets_all_sections,
                    point_in_fan, pointedness_duality_check, polar_dual, section_at)
from ccproj import (DEFAULT_TOL, contains_polygon, gen_quadric, gen_random_fan, is_pointed,
                    octagonalize, surgery_p, surgery_s)
from ccproj.dualize import _ensure_valid
from ccproj.fan import THETA_EPS, event_angles, hull_slice, in_unwrapped_chart
from ccproj.projcore import PI, dual_arc
from conftest import (default_dual_params, interior_points, mark_validated, mgon,
                      quadric_fan)
from test_fan import reference_star


def dual_quadric_member(xi):
    """Independent oracle: the plane alpha*u + beta*v + gamma*w = delta (in the
    w-chart) meets every disk u^2+v^2 <= 1+c^2 iff gamma^2 + delta^2 <=
    alpha^2 + beta^2.  For the covector (xi0, xi1, xi2, xi3) this reads
    xi2^2 + xi3^2 <= xi0^2 + xi1^2."""
    a, b, g, d = xi[0], xi[1], xi[3], -xi[2]
    return g * g + d * d <= a * a + b * b


def test_quadric_dual_sections_are_unit_disks(quad12):
    dual = l_dual(quad12)
    assert dual.frame.space == "dual"
    disk = mgon(1.0, 256)
    for s in dual.sections:
        assert hausdorff(s, disk) < 5e-2


def test_membership_crosscheck_random_planes(quad12):
    dual = l_dual(quad12)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        xi = rng.normal(size=4)
        inside, margin, _ = point_in_fan(dual, xi)
        if abs(margin) <= 5e-2 * dual.diameter():
            continue
        meets, _ = plane_meets_all_sections(quad12, xi)
        assert meets == inside
        assert dual_quadric_member(xi) == inside
        checked += 1
    assert checked > 200


def test_dual_of_coupled_quadric_matches_inverse_form(frame):
    # body {x^T Q x <= 0} with coupling: its dual is {xi^T Q^{-1} xi >= 0}
    rng = np.random.default_rng(3)
    P = np.eye(2) + 0.2 * np.diag(rng.uniform(size=2))
    N = np.diag([1.0, 2.5])
    C = np.array([[0.25, 0.1], [-0.05, 0.2]])
    Q = np.block([[P, C], [C.T, -N]])
    Qi = np.linalg.inv(Q)

    def section(theta, m=96):
        o = np.array([-np.sin(theta), np.cos(theta)])
        w0 = -np.linalg.solve(P, C @ o)
        rho = float(o @ N @ o + (C @ o) @ np.linalg.solve(P, C @ o))
        ang = 2 * np.pi * np.arange(m) / m
        circ = np.stack([np.cos(ang), np.sin(ang)], axis=1) * np.sqrt(rho)
        L = np.linalg.cholesky(np.linalg.inv(P))
        return convex_hull(w0[None, :] + circ @ L.T)

    thetas = (np.arange(18) + 0.5) * PI / 18
    fan = SectionFan.create(frame, [(float(t), section(float(t))) for t in thetas])
    dual = l_dual(fan)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(300):
        xi = rng.normal(size=4)
        inside, margin, _ = point_in_fan(dual, xi)
        if abs(margin) <= 3e-2 * dual.diameter():
            continue
        assert (float(xi @ Qi @ xi) >= 0) == inside
        checked += 1
    assert checked > 200


def test_fixed_line_inside_gives_dual_point(quad12):
    # the axis span(e2, e3) lies inside the body, so its annihilator point
    # lies in every dual section: the dual sections all contain the origin
    dual = l_dual(quad12)
    for s in dual.sections:
        assert distance([0.0, 0.0], s) == 0.0


def test_involution_residual_quadric():
    fan = quadric_fan(24, 128)
    dists, mx = involution_residual(fan)
    assert mx <= 5e-2 * fan.diameter()


def test_involution_residual_octagon_exact(oct_fan):
    fan = mark_validated(oct_fan)
    dists, mx = involution_residual(fan)
    assert mx <= 1e-6 * fan.diameter()
    # and dualizing the dual fan again is also exact
    d1 = l_dual(fan)
    dists2, mx2 = involution_residual(d1)
    assert mx2 <= 1e-6 * d1.diameter()


def test_involution_residual_halves_under_refinement():
    _, r1 = involution_residual(quadric_fan(12, 64))
    _, r2 = involution_residual(quadric_fan(24, 128))
    assert r2 <= 0.5 * r1 + 1e-12


def test_monotonicity(quad12):
    inner = quad12
    outer = quadric_fan(12, 64, mode="circumscribed")
    eps = 1e-9
    assert fan_contains_sectionwise(outer, inner, 1e-12)
    di = l_dual(inner)
    do = l_dual(outer)
    # A inside B implies dual(A) inside dual(B)
    assert fan_contains_sectionwise(do, di, 1e-9)


def test_projection_of_dual_is_polar_of_section(quad12):
    # complement of the dual fan's projection from the center dual to
    # plane(theta0) equals the polar dual of the source section there, up to
    # the antipodal chart identification
    dual = l_dual(quad12)
    for theta0 in (float(quad12.thetas[2]), 1.234):
        hull = convex_hull(reference_star(dual, theta0))
        sec = section_at(quad12, theta0)
        expected = polar_dual(sec, [0.0, 0.0]).negated()
        assert hausdorff(hull, expected) <= 5e-2


def test_affine_dependence_single_gap(quad12):
    i = 4
    arc = ArcSegment(float(quad12.thetas[i]), float(quad12.thetas[i + 1]))
    assert affine_dependence_check(quad12, arc)


def test_affine_dependence_fails_across_gaps(quad12):
    arc = ArcSegment(float(quad12.thetas[2]), float(quad12.thetas[6]))
    assert not affine_dependence_check(quad12, arc)


def probe_affine_dependence_check(fan, arc, t_dir=None, tol=DEFAULT_TOL, eps=None,
                                  n_check=8):
    """Reference oracle: the former probe version of affine_dependence_check,
    which also compares at n_check evenly spaced interior parameters."""
    eps = tol.eps_affine * fan.scale() if eps is None else eps
    ta, tb = arc.start, arc.start + arc.length
    Sa, Sb = (in_unwrapped_chart(section_at(fan, t, tol), t) for t in (ta, tb))
    probes = list(interior_points(arc, n_check))
    probes += [float(t) for t in fan.thetas if arc.contains(float(t), closed=False)]
    func = None if t_dir is None else np.array([-np.sin(t_dir), np.cos(t_dir)])
    for t in probes:
        tu = t if t >= ta - THETA_EPS else t + PI
        expected = hull_slice(ta, Sa, tb, Sb, tu, tol)
        actual = in_unwrapped_chart(section_at(fan, tu, tol), tu)
        if func is None:
            if hausdorff(expected, actual) > eps:
                return False
        elif np.max(np.abs(np.subtract(expected.support_interval(func),
                                       actual.support_interval(func)))) > eps:
            return False
    return True


def probe_fan_contains_sectionwise(outer, inner, eps, n_grid=32):
    """Reference oracle: the former probe version of fan_contains_sectionwise,
    which also compares at n_grid uniform parameters."""
    thetas = np.concatenate([inner.thetas, outer.thetas, np.arange(n_grid) * PI / n_grid])
    return all(contains_polygon(section_at(outer, float(t)), section_at(inner, float(t)), eps)
               for t in np.unique(thetas % PI))


def test_affine_dependence_matches_probe_oracle(quad12, oct_fan, oct_dirs):
    # Deciding at the samples inside the arc gives the probe oracle's verdict
    # on the test fans, on hull-surgered fans and on seeded random arcs.
    rng = np.random.default_rng(5)
    fans = [quad12, gen_random_fan(0).fan,
            surgery_s(quad12, ArcSegment(0.3, 1.4)), surgery_s(quad12, ArcSegment(2.9, 0.8))]
    arcs = [ArcSegment(oct_dirs[i], oct_dirs[(i + 1) % 4]) for i in range(4)]
    dual = l_dual(mark_validated(oct_fan), dual_params=default_dual_params(
        oct_fan, extra=np.concatenate([interior_points(a, 5) for a in arcs])))
    cases = [(dual, ArcSegment(float(oct_dirs[i]), float(oct_dirs[(i + 1) % 4])),
              1e-6 * dual.scale()) for i in range(4)]
    cases += [(quad12, ArcSegment(float(quad12.thetas[i]), float(quad12.thetas[i + 1])), None)
              for i in range(4)]
    cases += [(f, ArcSegment(0.3 + d, 1.4 - d), None) for f in fans[2:] for d in (0.0, 0.2)]
    for f in fans:
        for _ in range(10):
            a = rng.uniform(0.0, PI)
            cases.append((f, ArcSegment(a, (a + rng.uniform(0.05, 0.9 * PI)) % PI), None))
    verdicts = []
    for f, arc, eps in cases:
        for t_dir in (None, float(rng.uniform(0.0, PI))):
            got = affine_dependence_check(f, arc, t_dir=t_dir, eps=eps)
            assert got == probe_affine_dependence_check(f, arc, t_dir=t_dir, eps=eps)
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_fan_contains_sectionwise_matches_probe_oracle(quad12):
    # Deciding at the union of both fans' samples gives the probe oracle's
    # verdict on nested, crossing and bumped pairs.
    outer = quadric_fan(12, 64, mode="circumscribed")
    rng = np.random.default_rng(6)
    pairs = [(outer, quad12), (quad12, outer), (quad12, quad12),
             (l_dual(outer), l_dual(quad12)), (l_dual(quad12), l_dual(outer)),
             (surgery_s(quad12, ArcSegment(0.3, 1.4)), quad12),
             (quad12, surgery_s(quad12, ArcSegment(0.3, 1.4)))]
    for seed in range(3):
        fan = gen_random_fan(seed).fan
        for factor in (0.98, 1.02):
            secs = list(fan.sections)
            i = int(rng.integers(fan.k))
            secs[i] = secs[i].scaled(factor)
            pairs += [(fan, fan.with_sections(secs)), (fan.with_sections(secs), fan)]
    verdicts = []
    for o, i in pairs:
        for eps in (1e-12, 1e-9):
            got = fan_contains_sectionwise(o, i, eps)
            assert got == probe_fan_contains_sectionwise(o, i, eps)
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_dual_of_octagon_fan_affine_on_dual_arcs(oct_fan, oct_dirs):
    fan = mark_validated(oct_fan)
    probes = np.concatenate([
        interior_points(ArcSegment(oct_dirs[i], oct_dirs[(i + 1) % 4]), 5) for i in range(4)])
    dual = l_dual(fan, dual_params=default_dual_params(fan, extra=probes))
    for i in range(4):
        darc = ArcSegment(float(oct_dirs[i]), float(oct_dirs[(i + 1) % 4]))
        assert affine_dependence_check(dual, darc, eps=1e-6 * dual.scale())


def test_pointedness_duality_quadric_both_false(quad8):
    arc = ArcSegment(0.0, np.pi / 2)
    agree, rows = pointedness_duality_check(quad8, arc)
    assert agree
    assert all(p is False and a is False for p, a in rows)


def test_pointedness_duality_pointified_both_true(quad8):
    arc = ArcSegment(0.0, np.pi / 2)
    pfan = surgery_p(mark_validated(quad8), arc)
    agree, rows = pointedness_duality_check(pfan, arc)
    assert agree
    assert all(p is True and a is True for p, a in rows)


def test_pointedness_duality_octagon(oct_fan, oct_dirs):
    fan = mark_validated(oct_fan)
    arc = ArcSegment(float(oct_dirs[1]), float(oct_dirs[0]))  # the arc I_1
    agree, rows = pointedness_duality_check(fan, arc)
    assert agree
    assert all(p is True and a is True for p, a in rows)


def probe_pointedness_duality_check(fan, arc, tol=DEFAULT_TOL, eps=None, n_check=8):
    """Reference oracle: the former probe version of pointedness_duality_check,
    which samples the dual at default_dual_params plus n_check parameters
    inside the dual arc and its ends."""
    _ensure_valid(fan, tol)
    darc = dual_arc(arc)
    params = default_dual_params(fan, extra=np.concatenate(
        [interior_points(darc, n_check), [darc.start, darc.end]]))
    dfan = l_dual(mark_validated(fan), dual_params=params, tol=tol)
    rows = [(is_pointed(s, arc, tol) is not None,
             affine_dependence_check(dfan, darc, t_dir=float(t), tol=tol, eps=eps))
            for t, s in zip(fan.thetas, fan.sections)]
    return all(p == a for p, a in rows), rows


def test_pointedness_duality_matches_probe_oracle(quad8, oct_dirs):
    # Sampling the exact dual gives the probe oracle's rows on the
    # criterion-5 fans and on seeded arcs, with pointed sections among them.
    quad = mark_validated(quad8)
    octf = mark_validated(octagonalize(quad, oct_dirs))
    arc = ArcSegment(0.0, PI / 2)
    cases = [(octf, ArcSegment(float(oct_dirs[1]), float(oct_dirs[0]))),
             (surgery_p(quad, arc), arc), (quad, arc)]
    rng = np.random.default_rng(8)
    for fan in (octf, quad, gen_random_fan(0).fan):
        for _ in range(3):
            a = rng.uniform(0.0, PI)
            cases.append((fan, ArcSegment(a, (a + rng.uniform(0.2, 0.9 * PI)) % PI)))
    for _ in range(2):
        a = rng.uniform(0.0, PI)
        arc = ArcSegment(a, (a + rng.uniform(0.2, 0.9 * PI)) % PI)
        cases.append((surgery_p(quad, arc), arc))
    pointed = []
    for fan, arc in cases:
        got = pointedness_duality_check(fan, arc)
        assert got == probe_pointedness_duality_check(fan, arc)
        assert got[0]
        pointed += [p for p, _ in got[1]]
    assert any(pointed) and not all(pointed)


def test_dual_of_found_line(quad12):
    dual = l_dual(quad12)
    # the dual body contains the annihilator of the source axis
    axis_dual = ProjLine(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]))
    back = dual_of_found_line(axis_dual, dual.frame)
    assert back.same_as(ProjLine(np.array([[0.0, 0, 1, 0], [0, 0, 0, 1]])))
    assert dual_of_found_line(back).same_as(axis_dual)
    lstar_line = ProjLine(np.array([[0.0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(IntersectsDualL):
        dual_of_found_line(lstar_line, dual.frame)


def test_duality_transport_of_found_lines(quad12):
    # a line certified inside the dual fan maps to a line certified inside
    # the source fan
    from ccproj import certify_line, chebyshev_line
    dual = l_dual(quad12)
    r = chebyshev_line(dual, target=1e-9)
    assert r.value <= 1e-6
    cert_dual = certify_line(dual, r.line)
    assert cert_dual.contained
    back = dual_of_found_line(r.line, dual.frame)
    cert_src = certify_line(quad12, back, eps=1e-5 * quad12.diameter())
    assert cert_src.contained


def test_l_dual_requires_valid_fan(quad12):
    secs = list(quad12.sections)
    secs[5] = secs[5].scaled(3.0)
    bad = quad12.with_sections(secs)
    with pytest.raises(InvalidInput):
        l_dual(bad)


def reference_dual_section(fan, psi, tol=DEFAULT_TOL):
    """The former per-center dual section: the projection profile from psi,
    the straddle test, the hull of the profile endpoints, its polar dual
    around the marked point, negated into the dual chart."""
    star = reference_star(fan, psi, tol)
    if star is None:
        raise InvalidInput("projection from psi=%.6f does not surround the marked point" % psi)
    hull = convex_hull(star, tol)
    return polar_dual(hull, np.zeros(2), tol).negated()


def _assert_sections_match_reference(fan, dual):
    for psi, s in zip(dual.thetas, dual.sections):
        ref = reference_dual_section(fan, float(psi))
        assert np.array_equal(s.vertices, ref.vertices) and s.degenerate == ref.degenerate


@pytest.mark.parametrize("k,m", [(12, 64), (12, 256), (48, 64), (48, 256)])
def test_l_dual_matches_reference_on_quadrics(k, m):
    fan = quadric_fan(k, m)
    dual = l_dual(fan)
    _assert_sections_match_reference(fan, dual)
    _assert_sections_match_reference(
        dual, l_dual(dual, dual_params=fan.thetas))


def test_l_dual_matches_reference_on_random_fans_and_double_duals():
    # the double duals' stars hull to fewer points than they have (random
    # fan 1: 46 points to 28), so their sections take the unstacked path
    for seed in range(20):
        fan = gen_random_fan(seed, k=10, complexity=2).fan
        dual = l_dual(fan)
        _assert_sections_match_reference(fan, dual)
        _assert_sections_match_reference(
            dual, l_dual(dual, dual_params=fan.thetas))


def test_l_dual_matches_reference_on_surgery_p_output(quad8):
    pfan = surgery_p(mark_validated(quad8), ArcSegment(0.0, PI / 2))
    _assert_sections_match_reference(pfan, l_dual(pfan))


def test_l_dual_names_the_first_center_that_fails_to_straddle(quad12):
    # a section shifted off the axis: some centers see its whole profile
    # segment on one side of the marked point
    secs = list(quad12.sections)
    secs[3] = secs[3].translated([2.5, 0.0])
    bad = quad12.with_sections(secs)
    params = event_angles(bad)
    first = None
    for p in params:
        try:
            reference_dual_section(bad, float(p))
        except InvalidInput:
            first = float(p)
            break
    assert first is not None and first > params[0]
    with pytest.raises(InvalidInput, match="psi=%.6f " % first):
        l_dual(mark_validated(bad))


def support_gap(a, b, m=256):
    """Largest support-function difference of two polygons over m directions."""
    ang = 2 * np.pi * np.arange(m) / m
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return float(np.max(np.abs(a.support(dirs) - b.support(dirs))))


EXACT_FANS = [("quadric-%d-%d" % km, lambda km=km: quadric_fan(*km))
              for km in ((12, 64), (24, 128), (48, 256))]
EXACT_FANS += [("random-%d" % s, lambda s=s: gen_random_fan(s, k=10, complexity=2).fan)
               for s in range(20)]


@pytest.mark.parametrize("name,make", EXACT_FANS, ids=[n for n, _ in EXACT_FANS])
def test_l_dual_is_exact_between_samples(name, make):
    # Sampled at the event angles, the dual fan's interpolated sections are
    # the dual sections at every psi, and the double dual is the source.
    fan = make()
    dual = l_dual(fan)
    psi = np.random.default_rng(12).uniform(0.0, PI, size=40)
    worst = max(support_gap(section_at(dual, float(p)), reference_dual_section(fan, float(p)))
                for p in psi)
    assert worst <= 1e-12 * dual.scale()
    _, residual = involution_residual(fan)
    assert residual <= 1e-12 * fan.diameter()


def test_l_dual_at_event_angles_of_golden_quadrics():
    # event_angles keeps one of each run of edge directions a few ulps apart,
    # so it is a valid sample set; it is l_dual's default.
    for k, m in ((12, 64), (48, 256)):
        fan = gen_quadric(k, m).fan
        dual = l_dual(fan, dual_params=event_angles(fan))
        assert np.array_equal(dual.thetas, l_dual(fan).thetas)
