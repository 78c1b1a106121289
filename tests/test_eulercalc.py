import numpy as np
import pytest

from ccproj import (NonIntervalEmptySet, SectionFan, chi_dual_crosscheck,
                    chi_section, gen_random_fan, l_dual,
                    plane_meets_all_sections, section_at)
from ccproj.projcore import PI
from conftest import mark_validated, mgon, quadric_fan


def dual_quadric_sign(xi):
    return xi[0] ** 2 + xi[1] ** 2 - xi[2] ** 2 - xi[3] ** 2


def test_chi_member_plane(quad12):
    # the plane u = 0 contains the v-axis of every disk section
    rep = chi_section(quad12, [1.0, 0.0, 0.0, 0.0])
    assert rep.chi == 0 and rep.membership and rep.empty_arc is None


def test_chi_nonmember_plane(quad12):
    # the plane u = 10 (x0 = 10 x2) misses the section exactly when
    # 10 > sqrt(1 + w^2), i.e. |sin theta| < 0.1
    rep = chi_section(quad12, [1.0, 0.0, -10.0, 0.0])
    assert rep.chi == 1 and not rep.membership
    arc = rep.empty_arc
    assert arc is not None
    lo = float(np.arcsin(0.1))
    assert abs(arc.start - lo) < 2e-3
    assert abs(arc.end - (PI - lo)) < 2e-3


def test_chi_pencil_plane(quad12):
    rep = chi_section(quad12, [0.0, 0.0, 0.7, 0.3])
    assert rep.chi == 1 and rep.pencil_plane and not rep.membership


def test_chi_always_zero_or_one(quad12):
    rng = np.random.default_rng(0)
    for _ in range(100):
        rep = chi_section(quad12, rng.normal(size=4))
        assert rep.chi in (0, 1)
        assert rep.membership == (rep.chi == 0)


def test_chi_agrees_with_analytic_dual(quad12):
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        xi = rng.normal(size=4)
        sign = dual_quadric_sign(xi)
        if abs(sign) <= 5e-2 * float(np.sum(xi ** 2)):
            continue
        rep = chi_section(quad12, xi)
        assert rep.membership == (sign > 0)
        checked += 1
    assert checked > 150


def test_chi_dual_crosscheck(quad12):
    rng = np.random.default_rng(2)
    planes = [rng.normal(size=4) for _ in range(200)]
    dual = l_dual(mark_validated(quad12))
    rep = chi_dual_crosscheck(quad12, planes, dual_fan=dual)
    assert rep.total == 200
    assert len(rep.mismatches) == 0
    assert rep.agreement_rate == 1.0


def test_chi_dual_crosscheck_exact_dual():
    # The dual sampled at the event angles is exact, so chi-membership and
    # membership in it agree on every plane outside a 1e-9 band.
    rng = np.random.default_rng(13)
    fans = [quadric_fan(12, 64)] + [gen_random_fan(s, k=10, complexity=2).fan for s in range(6)]
    for fan in fans:
        rep = chi_dual_crosscheck(fan, [rng.normal(size=4) for _ in range(300)], band=1e-9)
        assert rep.total == 300 and rep.agreement_rate == 1.0


def test_chi_crosscheck_octagon_exact(oct_fan):
    fan = mark_validated(oct_fan)
    rng = np.random.default_rng(3)
    planes = [rng.normal(size=4) for _ in range(100)]
    rep = chi_dual_crosscheck(fan, planes, band=1e-6)
    assert len(rep.mismatches) == 0


def test_chi_boundary_band_policy(quad12):
    # planes tangent to every section sit on the dual boundary and are
    # counted in the band, not as mismatches
    tangent = np.array([1.0, 0.0, -1.0, 0.0])  # u = 1
    rep = chi_dual_crosscheck(quad12, [tangent], band=5e-2)
    assert rep.in_band == 1 and len(rep.mismatches) == 0


def test_non_interval_empty_set_on_invalid_fan(frame):
    # radii oscillate: the section family is pinched twice and a plane can
    # miss it on two separate arcs
    radii = [1.0, 0.05, 1.0, 0.05, 1.0, 0.05]
    thetas = (np.arange(6) + 0.5) * PI / 6
    fan = SectionFan.create(frame, [(float(t), mgon(r, 24))
                                    for t, r in zip(thetas, radii)])
    with pytest.raises(NonIntervalEmptySet):
        chi_section(fan, [1.0, 0.0, -0.5, 0.0])


def test_never_non_interval_on_valid_fans():
    rng = np.random.default_rng(4)
    for seed in range(3):
        fan = gen_random_fan(seed + 500, k=8, complexity=1, m=32).fan
        for _ in range(60):
            rep = chi_section(fan, rng.normal(size=4))
            assert rep.chi in (0, 1)


def test_chi_membership_matches_plane_meets_all_sections():
    # both read the emptiness margins of fan.plane_margin: chi_section its
    # zeros, plane_meets_all_sections its maximum
    rng = np.random.default_rng(11)
    planes = rng.normal(size=(100, 4))
    members = 0
    for seed in range(5):
        fan = gen_random_fan(seed).fan
        for xi in planes:
            meets = plane_meets_all_sections(fan, xi)[0]
            assert chi_section(fan, xi).membership == meets
            members += meets
    assert 0 < members < 500


def section_values(fan, xi, theta):
    """The plane xi at the vertices of section_at(theta), as points of RP^3.
    Independent of the closed-form margins: section_at builds the section
    as a Minkowski sum."""
    t = theta % PI
    pts = [fan.frame.section_point(t, u, v) for u, v in section_at(fan, t).vertices]
    return np.array(pts) @ xi


def plane_misses_section(fan, xi, theta):
    vals = section_values(fan, xi, theta)
    return bool(np.min(vals) > 0.0 or np.max(vals) < 0.0)


def test_empty_arcs_match_sections():
    rng = np.random.default_rng(12)
    delta = 1e-6
    arcs = 0
    for fan in [quadric_fan(12, 64)] + [gen_random_fan(s).fan for s in range(5)]:
        for xi in rng.normal(size=(100, 4)):
            arc = chi_section(fan, xi).empty_arc
            if arc is None:
                continue
            arcs += 1
            assert arc.length > 2.0 * delta
            for theta, misses in ((arc.start + delta, True), (arc.end - delta, True),
                                  (arc.start - delta, False), (arc.end + delta, False)):
                assert plane_misses_section(fan, xi, theta) == misses
    assert arcs > 100


def test_worst_margin_is_the_exact_maximum():
    # the emptiness margin max(min vals, -max vals) sampled on a fine grid
    # plus the samples never exceeds the exact maximum, and comes within the
    # grid's resolution of it
    fan = gen_random_fan(1).fan
    grid = np.sort(np.concatenate([np.arange(720) * PI / 720, fan.thetas]))
    rng = np.random.default_rng(13)
    for xi in rng.normal(size=(6, 4)):
        sampled = max(max(np.min(v), -np.max(v))
                      for v in (section_values(fan, xi, t) for t in grid))
        worst = plane_meets_all_sections(fan, xi)[1]
        assert sampled - 1e-12 <= -worst <= sampled + 1e-4
