import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccproj import (DEFAULT_TOL, ArcSegment, CenterNotOnL, PencilFrame, SectionFan, Tolerances,
                    convex_hull, gen_quadric, gen_random_fan, hausdorff, interior_margin,
                    is_pointed, l_dual, planar, pointify, project_from, section_at,
                    validate)
from ccproj.fan import (THETA_EPS, CenterCheck, event_angles, gap_coefficients,
                        in_unwrapped_chart, plane_margin, support_intervals)
from ccproj.planar import ConvexPolygon, contains_polygon, tangent_quadrangle_corners
from ccproj.projcore import PI, DegenerateInput
from conftest import mgon, minkowski_oracle, quadric_fan
from test_surgery import hull_sections, pointing_arcs


def theta_of_w(w):
    return float(np.arctan2(1.0, -w) % PI)


def w_chart_polygon(frame, theta, poly_w):
    """Express a polygon given in the chart with origin (0,0,1,w) in the
    canonical unit chart (scale by -sin(theta))."""
    return convex_hull(poly_w.vertices * (-np.sin(theta)))


def test_section_at_sample_is_exact(quad12):
    for i in range(quad12.k):
        assert section_at(quad12, float(quad12.thetas[i])) is quad12.sections[i]


def test_section_at_midpoint_cylinder(frame):
    # samples at w = -1 and +1 carry disks of w-chart radius sqrt(2); the
    # hull slice at w = 0 is the Minkowski average: again a sqrt(2) disk
    th1, th2 = theta_of_w(-1.0), theta_of_w(1.0)
    disk_w = mgon(np.sqrt(2.0), 64)
    samples = [(th1, w_chart_polygon(frame, th1, disk_w)),
               (th2, w_chart_polygon(frame, th2, disk_w)),
               (theta_of_w(-8.0), w_chart_polygon(frame, theta_of_w(-8.0), mgon(np.sqrt(65.0), 64))),
               (theta_of_w(8.0), w_chart_polygon(frame, theta_of_w(8.0), mgon(np.sqrt(65.0), 64)))]
    fan = SectionFan.create(frame, samples)
    mid = section_at(fan, np.pi / 2)  # w = 0, unit chart = mirrored w-chart
    rad = np.linalg.norm(mid.vertices, axis=1)
    assert np.max(np.abs(rad - np.sqrt(2.0))) < 1e-2


def test_section_at_prism_identical_squares(frame):
    # identical squares in a fixed affine chart interpolate to themselves
    sq_w = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    thetas = [theta_of_w(w) for w in (-2.0, -0.5, 0.5, 2.0)]
    fan = SectionFan.create(frame, [(t, w_chart_polygon(frame, t, sq_w))
                                    for t in thetas])
    for tq in np.linspace(thetas[1] + 0.01, thetas[2] - 0.01, 7):
        got = section_at(fan, float(tq))
        back = convex_hull(got.vertices / (-np.sin(tq)))
        assert hausdorff(back, sq_w) < 1e-9


def test_section_at_continuity(quad12):
    # Hausdorff distance to a sample section vanishes as theta approaches it
    t0 = float(quad12.thetas[3])
    prev = None
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        d = hausdorff(section_at(quad12, t0 + eps), quad12.sections[3])
        if prev is not None:
            assert d < prev
        prev = d
    assert prev < 1e-4


def test_gap_coefficients_endpoints():
    a, b = gap_coefficients(0.3, 1.1, 0.3)
    assert abs(a - 1.0) < 1e-12 and abs(b) < 1e-15
    a, b = gap_coefficients(0.3, 1.1, 1.1)
    assert abs(b - 1.0) < 1e-12 and abs(a) < 1e-15


def test_gap_coefficients_match_high_precision_reference():
    # parameters on a 2^-44 grid, so the spans the weights are built from
    # are exact floats and the reference sees the same triple; spans reach
    # pi - 1e-6, where the former sqrt(A^2 + B^2 + 2AB cos) cancelled
    import mpmath

    rng = np.random.default_rng(23)
    grid = 2.0 ** -44
    for _ in range(1000):
        span = (rng.uniform(1e-6, PI - 1e-6) if rng.uniform() < 0.5
                else PI - 10.0 ** rng.uniform(-6.0, -1.0))
        ti, span = (np.floor(x / grid) * grid for x in (rng.uniform(0.0, PI), span))
        theta = ti + np.floor(rng.uniform(0.0, span) / grid) * grid
        a, b = (float(w) for w in gap_coefficients(ti, ti + span, theta))
        with mpmath.workdps(50):
            big_a = mpmath.sin(mpmath.mpf(ti + span) - mpmath.mpf(theta))
            big_b = mpmath.sin(mpmath.mpf(theta) - mpmath.mpf(ti))
            kappa = mpmath.sqrt(big_a ** 2 + big_b ** 2
                                + 2 * big_a * big_b * mpmath.cos(mpmath.mpf(span)))
            err = max(abs(a - big_a / kappa), abs(b - big_b / kappa))
        assert err <= 1e-13 * max(1.0, a, b)


# ---------------------------------------------------------------------------
# Gap plans: section_at applies a plan built once per gap and has the bits of
# the old body (conftest.minkowski_oracle) run on the gap's sections
# ---------------------------------------------------------------------------

def oracle_section_at(fan, theta):
    """section_at as it was before the gap plans."""
    hit = fan.sample_index_at(theta)
    if hit is not None:
        return fan.sections[hit]
    i, j, ti, tj, tu = fan.gap_of(theta)
    a, b = gap_coefficients(ti, tj, tu)
    far = in_unwrapped_chart(fan.sections[j], tj)
    out = minkowski_oracle(float(a), fan.sections[i], float(b), far)
    return in_unwrapped_chart(out, tu)


def wrap_run_fan():
    """A fan whose wrap gap, from P to the negated first section Q, has a
    merge run across angle 0: P's bottom edge enters its min-(y, x) vertex
    at angle 2 pi - 1e-13, and Q's leaves its own at 0."""
    P = convex_hull([[0.0, 0.0], [1.0, -1e-13], [1.5, 1.0], [0.0, 1.0]])
    Q = convex_hull([[0.0, 0.0], [2.0, 0.0], [2.0, 3.0], [0.0, 3.0]])
    return SectionFan(PencilFrame.standard(), np.array([0.3, 1.2, 2.5]),
                      (Q.negated(), mgon(1.0, 8), P))


@functools.lru_cache(maxsize=None)
def oracle_fans():
    fans = [gen_quadric(12, 64).fan] + [gen_random_fan(s).fan for s in range(3)]
    return tuple(fans + [l_dual(fans[1]), wrap_run_fan()])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5), st.sampled_from(["any", "before", "after"]),
       st.floats(0.0, 1.0, exclude_max=True))
def test_section_at_matches_the_old_body(i, where, x):
    # "before" theta_0 the wrap gap is read in the chart of theta_0 + pi, so
    # its slice is negated back; "after" theta_k-1 it is not
    fan = oracle_fans()[i]
    lo, hi = {"any": (0.0, PI), "before": (0.0, fan.thetas[0]),
              "after": (fan.thetas[-1], PI)}[where]
    theta = lo + x * (hi - lo)
    assert np.array_equal(section_at(fan, theta).vertices, oracle_section_at(fan, theta).vertices)


def test_wrap_gap_with_a_wrap_run_matches_the_old_body():
    fan = wrap_run_fan()
    thetas = np.r_[np.linspace(0.0, 0.3, 7)[1:-1], np.linspace(2.5, PI, 7)[1:-1]]
    for theta in thetas:
        assert np.array_equal(section_at(fan, theta).vertices,
                              oracle_section_at(fan, theta).vertices)
    plan = fan.gap_plans[fan.k - 1]
    assert plan.wrap == 1 and list(fan.gap_plans) == [fan.k - 1]


def test_gap_plans_are_built_once_per_gap_and_at_most_k(monkeypatch):
    fan = gen_random_fan(5, k=10).fan
    built = []
    plan = planar.minkowski_plan
    monkeypatch.setattr(planar, "minkowski_plan", lambda P, Q: built.append(1) or plan(P, Q))
    t0, t1 = fan.thetas[4], fan.thetas[5]
    first = section_at(fan, t0 + 0.3 * (t1 - t0))
    second = section_at(fan, t0 + 0.7 * (t1 - t0))
    assert len(built) == 1 and list(fan.gap_plans) == [4]
    assert not np.array_equal(first.vertices, second.vertices)
    for theta in np.random.default_rng(7).uniform(0.0, PI, 400):
        section_at(fan, float(theta))
        assert len(fan.gap_plans) <= fan.k
    assert len(built) == len(fan.gap_plans) == fan.k


def oracle_plane_margin(fan, xi):
    """plane_margin as it was before the gap terms were cached on the fan."""
    frame = fan.frame
    nu = np.array([float(xi @ frame.g0), float(xi @ frame.g1)])
    c2, c3 = float(xi @ frame.h2), float(xi @ frame.h3)
    near = support_intervals(fan, nu)
    far = np.roll(near, -1, axis=0)
    far[-1] = -near[0, ::-1]
    t0 = fan.thetas
    span = np.diff(t0, append=t0[0] + PI)
    slope = (far - near * np.cos(span)[:, None]) / np.sin(span)[:, None]
    offs = -np.sin(t0) * c2 + np.cos(t0) * c3
    doffs = -np.cos(t0) * c2 - np.sin(t0) * c3
    alpha = np.stack([near[:, 0] + offs, -(near[:, 1] + offs)], axis=1)
    beta = np.stack([slope[:, 0] + doffs, -(slope[:, 1] + doffs)], axis=1)
    return t0, span, alpha, beta


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_plane_margin_matches_the_old_formula(i, xi):
    fan = oracle_fans()[i]
    m = plane_margin(fan, np.array(xi))
    for got, want in zip((m.t0, m.span, m.alpha, m.beta), oracle_plane_margin(fan, np.array(xi))):
        assert np.array_equal(got, want)


def test_section_at_skips_the_hull_chain_on_query_fans(monkeypatch):
    # adjacent sections (and adjacent dual sections) share edge normals:
    # the merged Minkowski sum is a strictly convex cycle that
    # planar._convex_cycle certifies, so the monotone chain never runs
    fans = [gen_quadric(12, 64).fan] + [gen_random_fan(s, k=10, complexity=2).fan
                                        for s in (1, 2, 3)]
    fans += [l_dual(f) for f in fans]
    calls = []
    chain = planar._chain
    monkeypatch.setattr(planar, "_chain", lambda pts: calls.append(1) or chain(pts))
    rng = np.random.default_rng(41)
    for f in fans:
        for theta in rng.uniform(0.0, PI, 40):
            section_at(f, float(theta))
    assert len(calls) == 0


def test_fan_constructor_invariants(frame):
    tri = mgon(1.0, 3)
    with pytest.raises(DegenerateInput):
        SectionFan.create(frame, [(0.1, tri), (0.2, tri)])
    with pytest.raises(DegenerateInput):
        SectionFan.create(frame, [(0.1, tri), (0.1, tri), (0.2, tri)])


def test_project_from_quadric(quad12):
    W = project_from(quad12, 0.0)
    # shadows of unit disks: every interval is ~[-1, 1] and straddles the center
    assert np.max(np.abs(W[:, 1] - 1.0)) < 1e-2
    assert np.max(np.abs(W[:, 0] + 1.0)) < 1e-2
    assert np.all(W[:, 0] < -1e-9) and np.all(W[:, 1] > 1e-9)
    pts = reference_star(quad12, 0.0)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 2e-2
    # accepts a point of L as well
    W2 = project_from(quad12, np.array([np.cos(0.7), np.sin(0.7), 0, 0]))
    assert np.max(np.abs(W2 - project_from(quad12, 0.7))) < 1e-12
    with pytest.raises(CenterNotOnL):
        project_from(quad12, np.array([1.0, 0.0, 0.1, 0.0]))


def test_project_from_common_line_marker(quad12):
    # every section contains the chart origin (the axis line), so every
    # profile segment covers the axis shadow w = 0
    for psi in (0.0, 0.9, 2.2):
        W = project_from(quad12, psi)
        assert np.all(W[:, 0] < 0.0)
        assert np.all(W[:, 1] > 0.0)


def test_project_from_degenerate_points(frame):
    # one-point sections tracing the axis: every profile segment is a point
    from ccproj.planar import ConvexPolygon
    pt = ConvexPolygon([[0.0, 0.0]])
    fan = SectionFan.create(frame, [(t, pt) for t in (0.3, 1.2, 2.1)])
    assert np.max(np.abs(project_from(fan, 0.5))) == 0.0


def margin_branches(m, thetas):
    """(lo + offs, -(hi + offs)) of a PlaneMargin at parameters mod pi, in
    the canonical chart of each parameter.  A parameter before the first
    sample lies in the wrap gap, pi later, where the chart is negated and
    the two branches trade places."""
    th = np.asarray(thetas, dtype=float) % PI
    wrap = th < m.t0[0]
    tu = th + np.where(wrap, PI, 0.0)
    g = np.searchsorted(m.t0, tu, side="right") - 1
    tau = tu - m.t0[g]
    v = m.alpha[g] * np.cos(tau)[:, None] + m.beta[g] * np.sin(tau)[:, None]
    return np.where(wrap[:, None], v[:, ::-1], v)


def support_margin(fan, func):
    """PlaneMargin of the covector (func, 0, 0): its branches are lo and -hi
    of func's interpolated support interval."""
    return plane_margin(fan, func[0] * fan.frame.g0 + func[1] * fan.frame.g1)


def test_interval_interpolation_matches_sections(quad12):
    func = np.array([-np.sin(1.1), np.cos(1.1)])
    thetas = np.array([0.05, 0.4, 1.0, 2.0, 3.05])
    assert thetas[0] < quad12.thetas[0] and thetas[-1] > quad12.thetas[-1]
    v = margin_branches(support_margin(quad12, func), thetas)
    for t, (lo, neg_hi) in zip(thetas, v):
        vals = section_at(quad12, float(t)).vertices @ func
        assert abs(lo - np.min(vals)) < 1e-9
        assert abs(-neg_hi - np.max(vals)) < 1e-9


def test_validate_quadric(quad12):
    rep = validate(quad12)
    assert rep.ok and rep.sections_ok and rep.disjoint_ok and rep.concave_ok


def test_validate_concavity_failure(quad12):
    secs = list(quad12.sections)
    secs[5] = secs[5].scaled(3.0)
    rep = validate(quad12.with_sections(secs))
    assert not rep.ok and not rep.concave_ok
    assert any("chord" in m or "marked" in m for m in rep.messages)


def test_validate_waist_failure(quad12):
    secs = list(quad12.sections)
    secs[5] = secs[5].scaled(0.3)
    rep = validate(quad12.with_sections(secs))
    assert not rep.concave_ok


def test_validate_disjointness_failure(quad12):
    secs = list(quad12.sections)
    secs[2] = secs[2].scaled(1e13)  # touches L at chart scale
    rep = validate(quad12.with_sections(secs))
    assert not rep.disjoint_ok


def test_validate_envelope_failure(frame):
    # all sections shifted far to one side: the projection complement from
    # some centers is unbounded and concavity must be reported as failed
    fan = SectionFan.create(frame, [(t, mgon(1.0, 32, center=(6.0, 0.0)))
                                    for t in (0.4, 1.2, 2.0, 2.8)])
    rep = validate(fan)
    assert not rep.concave_ok


def probe_center_ok(fan, psi, tol=DEFAULT_TOL, n_probe=64):
    """Reference oracle for one validation center: the pairwise chord probe.

    Every chord between two profile endpoints, sampled at n_probe interior
    points, must stay outside the covered segments of the interpolated
    profile, after the straddle and marked-point checks."""
    pts = reference_star(fan, psi, tol)
    if pts is None:
        return False
    hull = convex_hull(pts, tol)
    if not interior_margin(hull, np.zeros(2)) > tol.eps_convex * hull.scale:
        return False
    ii, jj = np.triu_indices(len(pts), k=1)
    fr = (np.arange(n_probe) + 1.0) / (n_probe + 1.0)
    z = (pts[ii][:, None, :] * (1.0 - fr)[None, :, None]
         + pts[jj][:, None, :] * fr[None, :, None]).reshape(-1, 2)
    r = np.linalg.norm(z, axis=1)
    z, r = z[r > 1e-14], r[r > 1e-14]
    phi = np.arctan2(-z[:, 0], z[:, 1])  # z = |z| * (-sin(phi), cos(phi))
    v = margin_branches(support_margin(fan, np.array([-np.sin(psi), np.cos(psi)])), phi)
    upper = np.where(phi >= 0, -v[:, 1], -v[:, 0])  # the covered ray starts at 1/upper
    return float(np.max(r * upper - 1.0)) <= 1e-9 + tol.eps_convex * 10.0


def test_validate_matches_probe_oracle():
    fans = [gen_random_fan(s).fan for s in range(20)]
    fans += [quadric_fan(12, 64), quadric_fan(5, 16)]
    rng = np.random.default_rng(4)
    scaled = []
    for fan in fans:
        secs = list(fan.sections)
        i = int(rng.integers(fan.k))
        secs[i] = secs[i].scaled(float(rng.uniform(0.3, 3.0)))
        scaled.append(fan.with_sections(secs))
    verdicts = []
    for fan in fans + scaled:
        rep = validate(fan)
        assert [c.ok for c in rep.centers] == [probe_center_ok(fan, c.psi)
                                              for c in rep.centers]
        verdicts.append(rep.ok)
    assert all(verdicts[:len(fans)]) and not all(verdicts[len(fans):])


def test_validate_reflex_vertex_violation(frame):
    # Centrally symmetric squares scaled by a_i give the star polygon with
    # vertices +-d(theta_i)/a_i, up to a common factor, from every center.
    # Doubling the section at pi/4 pulls its vertex d/2 in to radius 1/2;
    # the chord between its neighbours d(0) = (0, 1) and d(pi/2) = (-1, 0)
    # crosses that ray at radius 1/sqrt(2), so the violation is sqrt(2) - 1.
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    fan = SectionFan.create(frame, [(t, sq.scaled(2.0 if t == PI / 4 else 1.0))
                                    for t in (0.0, PI / 4, PI / 2, 3 * PI / 4)])
    rep = validate(fan)
    assert not rep.concave_ok
    for c in rep.centers:
        assert c.straddle_ok and c.marked_point_ok and not c.segments_ok
        assert c.worst_violation == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
    assert "violation 0.414" in rep.messages[0]


def reference_star(fan, psi, tol=DEFAULT_TOL):
    """Profile star polygon from the center at psi, or None when some shadow
    fails to straddle the marked point: d(theta_i) / max_i, then
    d(theta_i) / min_i, over the support intervals W of project_from."""
    W = project_from(fan, psi, tol)
    eps = tol.eps_convex * max(float(np.max(np.abs(W))), 1e-30)
    if not (np.all(W[:, 0] < -eps) and np.all(W[:, 1] > eps)):
        return None
    d = np.stack([-np.sin(fan.thetas), np.cos(fan.thetas)], axis=1)
    return np.concatenate([d / W[:, 1:], d / W[:, :1]])


def reference_violation(pts):
    """Largest neighbour-chord violation s - 1 over the vertices of a star
    polygon (2k, 2), or of each star in a stack of them."""
    prev = np.roll(pts, 1, axis=-2)
    e = np.roll(pts, -1, axis=-2) - prev
    s = ((prev[..., 0] * e[..., 1] - prev[..., 1] * e[..., 0])
         / (pts[..., 0] * e[..., 1] - pts[..., 1] * e[..., 0]))
    return np.max(s, axis=-1) - 1.0


def reference_center_check(fan, psi, tol=DEFAULT_TOL):
    """Reference oracle for one center: the former per-center check of
    validate, one project_from, convex_hull and interior_margin call each."""
    pts = reference_star(fan, psi, tol)
    if pts is None:
        return CenterCheck(psi, False, False, False, np.inf)
    hull = convex_hull(pts, tol)
    marked_ok = interior_margin(hull, np.zeros(2)) > tol.eps_convex * hull.scale
    worst = float(reference_violation(pts))
    return CenterCheck(psi, True, marked_ok, worst <= 1e-9 + tol.eps_convex * 10.0, worst)


def bump_vertex(fan, rng):
    """The fan with one vertex of one sample scaled by a factor in [0.9, 1.1]."""
    secs = list(fan.sections)
    i = int(rng.integers(fan.k))
    v = secs[i].vertices.copy()
    v[int(rng.integers(len(v)))] *= rng.uniform(0.9, 1.1)
    secs[i] = convex_hull(v)
    return fan.with_sections(secs)


def test_event_angles_are_distinct_and_cover_every_edge_direction(frame, quad12):
    # Edge directions a few ulps apart are kept once, also across pi (the
    # quadrangle's bottom edge points at -1e-14 and its top edge at 0 mod
    # pi); every gap is below pi/2, and there are at least 3 angles, also
    # for fans of points or of one edge direction.
    quad = ConvexPolygon([[0.0, 0.0], [2.0, -2e-14], [2.0, 1.0], [0.0, 1.0]])
    thetas = (0.1, 0.9, 1.7, 2.5)
    fans = [quad12, quadric_fan(48, 256), gen_random_fan(0).fan,
            SectionFan.create(frame, [(t, quad) for t in thetas]),
            SectionFan.create(frame, [(t, ConvexPolygon([[-1.0, 0.2], [1.0, -0.3]]))
                                      for t in thetas]),
            SectionFan.create(frame, [(t, ConvexPolygon([[0.5, 0.1]])) for t in thetas])]
    counts = []
    for fan in fans:
        psi = event_angles(fan)
        gaps = np.diff(psi, append=psi[0] + PI)
        assert len(psi) >= 3 and psi[0] >= 0.0 and psi[-1] < PI
        assert np.all(gaps > THETA_EPS) and np.max(gaps) < PI / 2
        d = np.abs(fan.edge_angles()[:, None] - psi)
        assert np.all(np.min(np.minimum(d, PI - d), axis=1, initial=PI) <= THETA_EPS)
        counts.append(len(psi))
    assert counts[3:] == [4, 3, 3]


def bumped_between_fixed_centers():
    """Random fan 3 with vertex 1 of sample 5 scaled by 1.05: its star turns
    reflex near psi = 3.058216, between the centers (i + 0.37) pi / 16 of a
    fixed 16-point grid, which all pass."""
    fan = gen_random_fan(3, k=10, complexity=2).fan
    secs = list(fan.sections)
    v = secs[5].vertices.copy()
    v[1] *= 1.05
    secs[5] = convex_hull(v)
    return fan.with_sections(secs)


def test_validate_rejects_violation_between_fixed_centers():
    bumped = bumped_between_fixed_centers()
    assert all(reference_center_check(bumped, (i + 0.37) * PI / 16).ok for i in range(16))
    assert reference_center_check(bumped, 3.058216).worst_violation > 2e-2
    rep = validate(bumped)
    assert not rep.ok and not rep.concave_ok
    assert max(c.worst_violation for c in rep.centers) > 1e-2
    assert any("chord" in m for m in rep.messages)


def test_validate_groups_failing_centers_into_runs(quad12):
    # one note per run of consecutive failing event angles of one kind, with
    # its psi range, its count and its worst violation; the reproducer's run
    # wraps past psi = pi (centers are cyclic mod pi)
    secs = list(quad12.sections)
    secs[5] = secs[5].scaled(3.0)
    for fan, first, last in [(quad12.with_sections(secs), "0.0491", "3.0925"),
                             (bumped_between_fixed_centers(), "3.0582", "0.0541")]:
        rep = validate(fan)
        failing = [c for c in rep.centers if not c.ok]
        assert all(c.straddle_ok and c.marked_point_ok for c in failing)
        assert rep.messages == (
            "centers psi=%s..%s (%d event angles): endpoint chord enters a covered "
            "segment (worst violation %.3g)"
            % (first, last, len(failing), max(c.worst_violation for c in failing)),)


def test_validate_event_angles_match_dense_grid():
    # At the event angles the vectorized checks equal the reference check;
    # on a dense psi grid the reference never finds a larger violation, and
    # finds a shadow failing to straddle only if some event angle does.
    rng = np.random.default_rng(11)
    fans = [gen_random_fan(s, k=10, complexity=2).fan for s in range(4)]
    fans += [bump_vertex(f, rng) for f in fans] + [bumped_between_fixed_centers()]
    grid = np.arange(4001) * PI / 4001
    for fan in fans:
        rep = validate(fan)
        for c in rep.centers:
            ref = reference_center_check(fan, c.psi)
            assert ((c.straddle_ok, c.marked_point_ok, c.segments_ok)
                    == (ref.straddle_ok, ref.marked_point_ok, ref.segments_ok))
            if ref.straddle_ok:
                assert abs(c.worst_violation - ref.worst_violation) <= 1e-12
        stars = [reference_star(fan, float(p)) for p in grid]
        if any(p is None for p in stars):
            assert not all(c.straddle_ok for c in rep.centers)
        else:
            dense = float(np.max(reference_violation(np.array(stars))))
            assert dense <= max(c.worst_violation for c in rep.centers) + 1e-12


def test_validate_marked_point_margin_between_event_angles():
    # The marked point's margin in this fan's star, relative to the star's
    # scale, is 0.3792 at its least event angle but dips to 0.3742 between
    # two of them.  With eps_convex = 0.377 in between, validate must see the
    # dip that no event angle shows.
    fan = gen_random_fan(3, k=5, complexity=1).fan

    def relative_margin(psi):
        hull = convex_hull(reference_star(fan, psi))
        return interior_margin(hull, np.zeros(2)) / hull.scale

    psi = event_angles(fan)
    assert min(relative_margin(p) for p in psi) > 0.379
    assert min(relative_margin(p) for p in np.arange(4001) * PI / 4001) < 0.375
    rep = validate(fan, Tolerances(eps_convex=0.377))
    assert not rep.ok
    assert all(c.straddle_ok and c.segments_ok for c in rep.centers)
    assert not all(c.marked_point_ok for c in rep.centers)
    assert validate(fan, Tolerances(eps_convex=0.25)).ok


def test_validate_degenerate_sections(frame):
    # Point and segment sections among polygons: validate returns a report,
    # and its vectorized divisions raise no floating-point warning.
    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    seg = ConvexPolygon([[-1.0, 0.2], [1.0, -0.3]])
    origin, off = ConvexPolygon([[0.0, 0.0]]), ConvexPolygon([[0.5, 0.1]])
    thetas = (0.1, 0.9, 1.7, 2.5)
    cases = [(sq, seg, sq, seg), (seg, seg, seg, seg), (origin, off, origin, origin),
             (sq, origin, seg, sq), (sq, sq, off, sq), (sq, seg, sq, origin)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [validate(SectionFan.create(frame, list(zip(thetas, c)))) for c in cases]
    for r in reports[2:]:
        assert not r.concave_ok
        assert all(not c.straddle_ok or not c.ok for c in r.centers)


def test_quadric_ground_truth_band(quad12):
    # interpolated sections stay between the inscribed-polygon inner disk
    # and the gap-bulge outer disk
    m = quad12.sections[0].n
    halfgap = float(np.max(np.diff(quad12.thetas))) / 2.0
    r_in = np.cos(np.pi / m)
    r_out = 1.0 / np.cos(halfgap)
    dirs = np.stack([np.cos(np.linspace(0, 2 * np.pi, 90)),
                     np.sin(np.linspace(0, 2 * np.pi, 90))], axis=1)
    for t in np.linspace(0, PI, 29, endpoint=False):
        s = section_at(quad12, float(t))
        sup = s.support(dirs)
        assert np.all(sup >= r_in - 1e-12)
        assert np.all(sup <= r_out + 1e-12)


def test_is_pointed_disk_and_pointified():
    disk = mgon(1.0, 64)
    arc = ArcSegment(0.0, np.pi / 2)
    assert is_pointed(disk, arc) is None
    corners = tangent_quadrangle_corners(disk, arc.start, arc.end)
    grown = convex_hull(np.vstack([disk.vertices, corners]))
    got = is_pointed(grown, arc)
    assert got is not None
    v = sorted(map(tuple, np.round(np.vstack(got), 9)))
    assert v == [(-1.0, -1.0), (1.0, 1.0)]
    assert contains_polygon(grown, disk, 1e-12)


def hausdorff_is_pointed(section, arc, tol=DEFAULT_TOL):
    """Reference oracle: the former is_pointed, which hulls the section with
    the two admissible tangent-quadrangle corners and compares the result
    with the section by Hausdorff distance."""
    corners = tangent_quadrangle_corners(section, arc.start, arc.end, tol)
    grown = planar.hulls_with_corners(section.vertices, [0], corners[None], tol)[0]
    if hausdorff(grown, section) <= 1e-7 * max(section.scale, 1.0):
        return corners[0], corners[1]
    return None


@st.composite
def pointing_cases(draw):
    """(section, arc): a random hull, its pointed superset for the arc, or
    that superset with a corner cut off 1e-10 to 1e-5 times its scale
    along both edges, around the pointedness threshold."""
    section, arc = draw(hull_sections), draw(pointing_arcs())
    kind = draw(st.sampled_from(["raw", "pointed", "cut"]))
    if kind == "raw":
        return section, arc
    pointed = pointify(section, arc)
    if kind == "pointed" or pointed.n < 3:
        return pointed, arc
    corners = tangent_quadrangle_corners(pointed, arc.start, arc.end)
    v = pointed.vertices
    i = int(np.argmin(np.linalg.norm(v - corners[draw(st.integers(0, 1))], axis=1)))
    d = 10.0 ** draw(st.floats(-10.0, -5.0)) * pointed.scale
    cut = [v[i] + d * (v[j] - v[i]) / np.linalg.norm(v[j] - v[i])
           for j in (i - 1, (i + 1) % len(v))]
    return convex_hull(np.vstack([np.delete(v, i, axis=0)] + cut)), arc


@settings(max_examples=400, deadline=None)
@given(pointing_cases())
def test_is_pointed_matches_hausdorff_oracle(case):
    # the corner distances decide pointedness as the hull's Hausdorff
    # distance did, away from the hull's own eps around the threshold
    section, arc = case
    corners = tangent_quadrangle_corners(section, arc.start, arc.end)
    far = max(planar.distance(c, section) for c in corners)
    assume(abs(far - 1e-7 * section.scale) > 1e-8 * section.scale)
    got, ref = is_pointed(section, arc), hausdorff_is_pointed(section, arc)
    assert (got is None) == (ref is None) == (far > 1e-7 * section.scale)
    if got is not None:
        assert np.array_equal(np.vstack(got), np.vstack(ref))


def test_support_intervals_stack_rows_equal_single_calls(frame):
    # one matrix-vector product per functional over all vertices: a row of
    # a stack equals the single call and the per-section product, bit for
    # bit, on golden fans and on fans with segment and point sections
    from ccproj.fan import support_intervals
    from test_golden import SCENES

    sq = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    seg = ConvexPolygon([[-1.0, 0.2], [1.0, -0.3]])
    pt, pt2 = ConvexPolygon([[0.5, 0.1]]), ConvexPolygon([[-0.3, 0.7]])
    mixed = [SectionFan.create(frame, list(zip((0.1, 0.9, 1.7, 2.5), c)))
             for c in ((sq, seg, pt, sq), (pt, pt2, pt, seg), (seg, seg, seg, seg))]
    fans = [make().fan for make in SCENES.values()] + mixed
    psi = np.concatenate([np.linspace(0.0, PI, 37), np.random.default_rng(4).uniform(0, PI, 40)])
    funcs = np.stack([-np.sin(psi), np.cos(psi)], axis=1)
    for fan in fans:
        W = support_intervals(fan, funcs)
        assert W.shape == (len(psi), fan.k, 2)
        for f, row in zip(funcs, W):
            assert np.array_equal(row, support_intervals(fan, f))
            per_section = [s.vertices @ f for s in fan.sections]
            assert np.array_equal(row, [(v.min(), v.max()) for v in per_section])
