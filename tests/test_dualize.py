import numpy as np
import pytest

from ccproj import (ArcSegment, InvalidInput, IntersectsDualL, ProjLine,
                    SectionFan, affine_dependence_check, convex_hull, distance,
                    dual_of_found_line, fan_contains_sectionwise, hausdorff,
                    involution_residual, l_dual, plane_meets_all_sections,
                    point_in_fan, pointedness_duality_check, polar_dual,
                    project_from, section_at)
from ccproj.dualize import default_dual_params
from ccproj.projcore import PI
from conftest import mark_validated, mgon, quadric_fan


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
        prof = project_from(dual, theta0)
        hull = convex_hull(prof.endpoints())
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


def test_dual_of_octagon_fan_affine_on_dual_arcs(oct_fan, oct_dirs):
    fan = mark_validated(oct_fan)
    probes = np.concatenate([ArcSegment(oct_dirs[i], oct_dirs[(i + 1) % 4])
                             .interior_points(5) for i in range(4)])
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
    from ccproj import surgery_p
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
