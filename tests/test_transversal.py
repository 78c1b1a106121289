import functools
import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccproj import (ConvexPolygon, EmptySelection, NotSupporting, PencilFrame, ProjLine,
                    SectionFan, TooManyDirections, browder_four_sections, build_solver_chart,
                    certify_line, chebyshev_line, convex_hull, helly_verify,
                    section_at, support_halfplane_transversal, validate)
from ccproj.projcore import DEFAULT_TOL, PI, cached_method
from ccproj.planar import distance, interior_margin
from ccproj.transversal import (N_SEED_POINTS, HellyReport, SolverChart, _depth_rows,
                                _five_subsets, _unrank_combination)
from conftest import mgon
from test_planar import kernel_polygons, point, ref_distance

K_FORM = np.diag([1.0, 1.0, -1.0, -1.0])
# test_kelley_path_matches_reference_kernels's line, as the written-out
# point kernels of its reference found it
KELLEY_DIGEST = "22c84dbe3f0ee2ddd98e5eada8c3ac9304ae0911836bd195aa21190b0d875c7b"


def restricted_form_eigs(line):
    S = line.span
    return np.linalg.eigvalsh(S @ K_FORM @ S.T)


def w_disk(frame, w, center, radius, m=64):
    th = float(np.arctan2(1.0, -w) % PI)
    s = np.sin(th)
    return th, mgon(radius * s, m, (-s * center[0], -s * center[1]))


def test_chebyshev_quadric(quad12):
    r = chebyshev_line(quad12, target=1e-9)
    assert r.value <= 1e-6
    assert np.all(restricted_form_eigs(r.line) <= 1e-6)
    cert = certify_line(quad12, r.line)
    assert cert.contained
    assert r.depth > 0


def test_chebyshev_common_axis(frame):
    # disks around the origin in parallel planes share the axis
    samples = [w_disk(frame, w, (0.0, 0.0), 1.0) for w in (-1.0, 0.0, 1.0)]
    fan = SectionFan.create(frame, samples)
    r = chebyshev_line(fan, target=1e-12)
    assert r.value <= 1e-9
    axis = ProjLine(np.array([[0.0, 0, 1, 0], [0, 0, 0, 1]]))
    cert = certify_line(fan, axis)
    assert cert.contained and cert.max_residual <= 1e-9


def grid_minimax(fan):
    """Independent oracle: coarse-to-fine grid search over the solver's line
    parameterization, with its own point-to-polygon distance.  The window
    shrinks slowly enough to follow the flat valley a segment section
    leaves (a factor of 0.6 stopped 7e-3 above the optimum there)."""
    chart = build_solver_chart(fan)
    polys = [p.vertices for p in chart.polys]
    betas = chart.betas()

    def obj_many(Q):
        out = np.zeros(len(Q))
        for V, b in zip(polys, betas):
            X = (1 - b) * Q[:, 0:2] + b * Q[:, 2:4]
            E = np.roll(V, -1, axis=0) - V
            rel = X[:, None, :] - V[None, :, :]
            ee = np.sum(E * E, axis=1)
            ee[ee == 0] = 1
            t = np.clip(np.einsum("kij,ij->ki", rel, E) / ee[None, :], 0, 1)
            foot = V[None, :, :] + t[:, :, None] * E[None, :, :]
            d = np.min(np.linalg.norm(X[:, None, :] - foot, axis=2), axis=1)
            if len(V) >= 3:
                cross = E[None, :, 0] * rel[:, :, 1] - E[None, :, 1] * rel[:, :, 0]
                d[np.all(cross >= -1e-12, axis=1)] = 0
            out = np.maximum(out, d)
        return out

    ctr = np.zeros(4)
    span = 30.0
    best = np.inf
    for _ in range(50):
        g = [np.linspace(ctr[i] - span / 2, ctr[i] + span / 2, 9) for i in range(4)]
        G = np.stack(np.meshgrid(*g, indexing="ij"), axis=-1).reshape(-1, 4)
        v = obj_many(G)
        i = int(np.argmin(v))
        best = min(best, float(v[i]))
        ctr = G[i]
        span *= 0.75
    return best


def three_disks(frame):
    """Three unit disks with no common transversal; the minimax optimum is 4."""
    samples = [w_disk(frame, -1.0, (-10, 0), 1.0),
               w_disk(frame, 0.0, (0, 10), 1.0),
               w_disk(frame, 1.0, (10, 0), 1.0)]
    return SectionFan.create(frame, samples)


def test_chebyshev_three_disks_vs_grid_oracle(frame):
    fan = three_disks(frame)
    r = chebyshev_line(fan)
    assert abs(r.value - grid_minimax(fan)) <= 1e-3
    # the analytic optimum of this symmetric configuration is exactly 4
    assert abs(r.value - 4.0) <= 1e-3


def test_degenerate_sections_without_transversal_use_fallback(frame):
    # a point, a segment and a disk with no common transversal: the depth
    # LP finds t > 0 and the Kelley cuts find the optimum
    th0, _ = w_disk(frame, -1.0, (0, 0), 1.0)
    th1, _ = w_disk(frame, 0.0, (0, 0), 1.0)
    s0, s1 = np.sin(th0), np.sin(th1)
    samples = [(th0, ConvexPolygon([[10.0 * s0, 0.0]])),
               (th1, convex_hull([[s1, -10.0 * s1], [-s1, -10.0 * s1]])),
               w_disk(frame, 1.0, (10, 0), 1.0)]
    fan = SectionFan.create(frame, samples)
    r = chebyshev_line(fan)
    assert r.iterations > 1
    assert r.depth < 0
    assert abs(r.value - grid_minimax(fan)) <= 1e-3
    # analytic optimum: the hit points sit at distance r from the point and
    # r + 1 from the disk center, so their midpoint reaches height at most
    # r + 1/2, which must come within r of the segment at height 10
    assert abs(r.value - 4.75) <= 1e-3


def test_kelley_path_matches_reference_kernels(quad12, monkeypatch):
    # one section shifted by 2.5 leaves no common transversal, so the depth
    # LP finds t > 0 and the cutting-plane loop evaluates objective_grad at
    # every solve's point and at the seed points: each evaluation must equal
    # the written-out distance and nearest-point references, and the line
    # found is pinned bit for bit
    from test_planar import ref_distance, ref_nearest_point

    sections = list(quad12.sections)
    sections[3] = sections[3].translated((2.5, 0.0))
    fan = SectionFan(quad12.frame, quad12.thetas, tuple(sections))
    grad = SolverChart.objective_grad
    calls = []

    def checked(self, q):
        f, g = grad(self, q)
        xs = self.hit_points(np.asarray(q, dtype=float))
        vals = [ref_distance(x, p) for x, p in zip(xs, self.polys)]
        i = int(np.argmax(vals))
        d2 = (xs[i] - ref_nearest_point(xs[i], self.polys[i])) / vals[i]
        b = float(self.betas()[i])
        assert f == vals[i] == self.objective(q) > 0.0
        assert np.array_equal(g, np.concatenate([(1.0 - b) * d2, b * d2]))
        assert np.array_equal(self.residuals(q),
                              np.array(vals)[np.argsort(self.indices)])
        calls.append(q)
        return f, g

    monkeypatch.setattr(SolverChart, "objective_grad", checked)
    r = chebyshev_line(fan)
    assert r.iterations > 1 and r.depth < 0.0
    assert len(calls) == N_SEED_POINTS + r.iterations
    pinned = repr((r.q.tolist(), r.value, r.gap, r.iterations, r.residuals.tolist(),
                   r.depth, r.line.span.tolist()))
    assert hashlib.sha256(pinned.encode()).hexdigest() == KELLEY_DIGEST


@settings(max_examples=300, deadline=None)
@given(kernel_polygons(), st.lists(point, min_size=1, max_size=10), st.floats(0.0, 3.0))
def test_depth_rows_bound_the_distance(poly, queries, spread):
    # every row of the solver's LP is a lower bound on the minimax
    # objective: n·x - c <= distance(x, poly) for unit n.  distance reads
    # x as inside when every edge's cross product is >= -1e-15 max|v|^2,
    # where an edge's row is -cross / |e|; the rest is rounding
    nrm, c = _depth_rows(poly)
    ln = np.linalg.norm(poly.edges(), axis=1)
    big = np.abs(poly.vertices).max()
    screen = 1e-15 * big ** 2 / np.min(ln[ln > 0.0]) if poly.n >= 3 else 0.0
    ctr = poly.centroid()
    for x in np.vstack([np.array(queries, dtype=float), poly.vertices,
                        ctr + spread * (poly.vertices - ctr)]):
        slack = screen + 1e-13 * max(poly.scale, float(np.max(np.abs(x))))
        assert np.max(nrm @ x - c) <= distance(x, poly) + slack


def test_lp_failure_returns_the_best_seed(frame, monkeypatch):
    # every linprog call fails: the box centre and the seed points are
    # evaluated, and the best of them comes back after one iteration
    import scipy.optimize
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: scipy.optimize.OptimizeResult(success=False))
    fan = three_disks(frame)
    chart = build_solver_chart(fan)
    r = chebyshev_line(fan)
    assert r.iterations == 1 and np.isfinite(r.value)
    assert r.value == chart.objective(r.q) <= chart.objective(np.mean(chart.box, axis=1))


def sections_around_line(frame, kinds):
    """Fan of sections around the line (u, v) = a + b w, one per (w, kind):
    a disk with the line off center, the line's hit point, or a segment
    through it."""
    a, b = np.array([0.5, -0.3]), np.array([0.2, 0.4])
    samples = []
    for w, kind in kinds:
        th, disk = w_disk(frame, w, a + b * w + (0.3, 0.0), 1.0)
        hit = -np.sin(th) * (a + b * w)
        if kind == "point":
            samples.append((th, ConvexPolygon([hit])))
        elif kind == "segment":
            samples.append((th, convex_hull([hit - (0.8, 0.4), hit + (0.4, 0.2)])))
        else:
            samples.append((th, disk))
    return SectionFan.create(frame, samples)


def test_point_and_segment_sections_with_transversal(frame):
    # a disk, a point, a segment and a disk; the depth LP alone must find a
    # line through all four
    fan = sections_around_line(frame, ((-1.5, "disk"), (-0.5, "point"),
                                       (0.5, "segment"), (1.5, "disk")))
    r = chebyshev_line(fan, target=1e-12)
    assert r.value <= 1e-12 and r.iterations == 1
    assert certify_line(fan, r.line).contained


def count_linprog(monkeypatch):
    """List that grows by one on every scipy linprog call."""
    import scipy.optimize
    calls = []
    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    return calls


def test_depth_lp_one_call_per_solve(monkeypatch):
    from ccproj import gen_random_fan
    calls = count_linprog(monkeypatch)
    for s in range(20):
        fan = gen_random_fan(s, k=10, complexity=2).fan
        calls.clear()
        r = chebyshev_line(fan)
        assert len(calls) == 1 and r.value == 0.0 and r.depth > 0


def test_subset_indices_checked(quad12):
    for bad in ([0, 1, 12], [-1, 0, 1], [0, 0, 1]):
        with pytest.raises(ValueError):
            chebyshev_line(quad12, subset=bad)


def test_residual_spread_at_positive_optimum(frame):
    r = chebyshev_line(three_disks(frame))
    at_max = np.sum(r.residuals >= r.value - 1e-6)
    assert at_max >= 2
    assert r.depth < 0


def test_residuals_follow_subset_order(frame):
    # tiny disks at w = 0.3, 0.6, 1.0 admit no common line, large disks
    # at w = -2, -1.5, 1.5 contain the optimal one; the largest sample gap
    # is interior, so the solver chart orders the sections 2, 3, 4, 5, 0, 1
    samples = [w_disk(frame, -2.0, (0, 0), 10.0), w_disk(frame, -1.5, (0, 0), 10.0),
               w_disk(frame, 0.3, (0, 0), 0.1), w_disk(frame, 0.6, (1, 0), 0.1),
               w_disk(frame, 1.0, (0, 0), 0.1), w_disk(frame, 1.5, (0, 0), 10.0)]
    fan = SectionFan.create(frame, samples)
    for subset in (None, [5, 4, 0, 3, 2]):
        r = chebyshev_line(fan, subset=subset)
        assert r.subset == tuple(sorted(subset or range(fan.k)))
        cert = certify_line(fan, r.line)
        passes = cert.residuals[list(r.subset)] <= cert.eps
        assert not passes.all() and passes.any()
        assert np.array_equal(r.residuals == 0.0, passes)


def test_solver_chart_lift_matches_unit_charts(quad12):
    # a point of section j's plane in the solver chart is its unit-chart
    # point scaled by scales[j], negated past pi (in_unwrapped_chart); the
    # subset's largest gap is interior, so its first three wrap past pi
    rng = np.random.default_rng(2)
    for subset in (None, [0, 1, 2, 9, 10, 11]):
        sc = build_solver_chart(quad12, subset)
        assert np.sum(sc.thetas_u >= PI) == (0 if subset is None else 3)
        for j, i in enumerate(sc.indices):
            y = rng.normal(size=2)
            x = sc.lift(y[0], y[1], float(sc.heights[j]))
            u, v, _ = quad12.frame.chart_coords(float(quad12.thetas[i]), x)
            sign = -1.0 if sc.thetas_u[j] >= PI else 1.0
            assert np.allclose([u, v], sign * y / sc.scales[j], rtol=1e-12, atol=1e-12)


def test_box_faces_score_above_the_centre_line(frame):
    # the search box holds every minimizer (SolverChart.box): a q with a
    # coordinate on the box scores above the line through the box centre
    from ccproj import gen_random_fan
    rng = np.random.default_rng(5)
    cases = [(three_disks(frame), None)]
    for s in range(20):
        fan = gen_random_fan(s, k=10, complexity=2).fan
        cases += [(fan, None)] + [(fan, rng.choice(fan.k, size=n, replace=False))
                                  for n in (3, 5)]
    for fan, subset in cases:
        chart = build_solver_chart(fan, subset)
        lo, hi = chart.box[:, 0], chart.box[:, 1]
        centre = chart.objective((lo + hi) / 2.0)
        for face in range(8):
            for _ in range(4):
                q = lo + rng.random(4) * (hi - lo)
                q[face % 4] = chart.box[face % 4, face // 4]
                assert chart.objective(q) > centre


def test_one_solve_per_chebyshev_line(frame, quad12, monkeypatch):
    from ccproj import transversal
    calls = []
    solve = transversal.solve_minimax
    monkeypatch.setattr(transversal, "solve_minimax",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    shifted = list(quad12.sections)
    shifted[3] = shifted[3].translated((2.5, 0.0))
    for fan, subset in ((three_disks(frame), None), (quad12, None), (quad12, [0, 3, 6]),
                        (quad12.with_sections(shifted), None)):
        calls.clear()
        chebyshev_line(fan, subset=subset)
        assert calls == [1]


def test_objective_convexity_probe(quad8):
    chart = build_solver_chart(quad8)
    rng = np.random.default_rng(0)
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    for _ in range(300):
        x = lo + rng.random(4) * (hi - lo)
        y = lo + rng.random(4) * (hi - lo)
        t = float(rng.uniform(0, 1))
        assert chart.objective(t * x + (1 - t) * y) \
            <= t * chart.objective(x) + (1 - t) * chart.objective(y) + 1e-10


def test_multi_start_agreement(frame):
    samples = [w_disk(frame, -1.0, (-10, 0), 1.0, m=32),
               w_disk(frame, 0.0, (0, 10), 1.0, m=32),
               w_disk(frame, 1.0, (10, 0), 1.0, m=32)]
    fan = SectionFan.create(frame, samples)
    values = [chebyshev_line(fan, seed=s).value for s in range(8)]
    assert max(values) - min(values) <= 1e-6


def test_browder_identical_squares_prism(frame):
    sq_w = convex_hull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    thetas = [float(np.arctan2(1.0, -w) % PI) for w in (-2.0, -0.5, 0.5, 2.0)]
    fan = SectionFan.create(frame, [(t, convex_hull(sq_w.vertices * (-np.sin(t))))
                                    for t in thetas])
    res = browder_four_sections(fan)
    assert res.converged and res.iterations <= 2
    assert res.line.value <= 1e-9
    # the fixed line is the common perpendicular axis
    eigs = restricted_form_eigs(res.line.line)
    assert np.all(eigs <= 0.0 + 1e-9)


def test_browder_quadric_sections(quad12):
    res = browder_four_sections(quad12, indices=(0, 3, 6, 9))
    assert res.converged
    assert res.line.value <= 1e-7
    assert np.all(restricted_form_eigs(res.line.line) <= 1e-6)


def test_browder_agrees_with_chebyshev():
    from ccproj import gen_random_fan
    fallbacks = 0
    for seed in range(6):
        fan = gen_random_fan(seed + 300, k=6, complexity=1, m=32).fan
        idx = tuple(int(i) for i in np.round(np.linspace(0, fan.k - 1, 4)))
        if len(set(idx)) < 4:
            continue
        res = browder_four_sections(fan, indices=idx)
        che = chebyshev_line(fan, subset=list(idx), target=1e-8)
        assert che.value <= 1e-6
        if res.converged:
            assert res.line.value <= 1e-6
        else:
            fallbacks += 1
    assert fallbacks <= 2


def test_browder_empty_selection(frame):
    # tiny far-apart sections: no line through the first meets 2 and 3
    def tiny(theta, c):
        return theta, mgon(0.01, 12, c)
    fan = SectionFan.create(frame, [tiny(0.4, (5.0, 0)), tiny(1.0, (-5.0, 0)),
                                    tiny(1.6, (5.0, 0)), tiny(2.2, (-5.0, 0))])
    with pytest.raises(EmptySelection):
        browder_four_sections(fan)


def helly_reference(fan, tol_resid=1e-6, subset_cap=200, seed=0):
    """Per-subset oracle for helly_verify: materializes every 5-subset,
    samples subset_cap of them by position, and solves each one."""
    subsets = list(combinations(range(fan.k), 5))
    if len(subsets) > subset_cap:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(subsets), size=subset_cap, replace=False)
        subsets = [subsets[i] for i in pick]
    scale = max(1.0, fan.diameter())
    results = {}
    for sub in subsets:
        r = chebyshev_line(fan, subset=list(sub),
                           target=0.25 * tol_resid * scale, seed=seed)
        results[sub] = r.value
    max_sub = max(results.values())
    full = chebyshev_line(fan, target=0.25 * tol_resid * scale, seed=seed)
    thr = tol_resid * scale
    consistent = not (max_sub <= thr and full.value > thr)
    return HellyReport(results, float(max_sub), float(full.value), thr, consistent)


@pytest.mark.parametrize("case", ["random-%d" % s for s in range(3000, 3005)]
                         + ["octagonalized-quad8", "quad12-cap20", "point-segment"])
def test_helly_matches_per_subset_oracle(case, quad8, quad12, oct_dirs, frame,
                                         monkeypatch):
    from ccproj import gen_random_fan, octagonalize
    kw = {}
    if case.startswith("random-"):
        fan = gen_random_fan(int(case[7:]), k=8, complexity=0, m=32).fan
    elif case == "octagonalized-quad8":
        fan = octagonalize(quad8, oct_dirs)
    elif case == "quad12-cap20":
        fan, kw = quad12, {"subset_cap": 20, "seed": 3}
    else:
        # the line meets every section, but no line passes through the
        # interior of the point and the segment
        fan = sections_around_line(frame, ((-2.0, "disk"), (-1.5, "disk"),
                                           (-0.5, "point"), (0.5, "segment"),
                                           (1.5, "disk"), (2.5, "disk")))
    full = chebyshev_line(fan, target=0.25 * 1e-6 * max(1.0, fan.diameter()))
    calls = count_linprog(monkeypatch)
    rep = helly_verify(fan, **kw)
    if case == "point-segment":
        # the point section leaves the full line's depth at most 0, so
        # every subset is solved
        assert full.depth <= 0.0
        assert len(calls) >= len(rep.subset_residuals) + 1
    else:
        assert full.depth > 0.0
        assert len(calls) == 1  # the full fan's depth LP certifies every subset
    assert rep == helly_reference(fan, **kw)


def test_helly_quadric(quad8, monkeypatch):
    calls = count_linprog(monkeypatch)
    rep = helly_verify(quad8)
    assert len(calls) == 1  # the full fan's depth LP certifies all 56 subsets
    assert len(rep.subset_residuals) == 56
    assert rep.max_subset_residual <= 1e-6
    assert rep.full_residual <= 1e-6
    assert rep.consistent


@pytest.mark.parametrize("k", [8, 12, 20])
def test_sampled_subsets_match_materialized(k):
    every = list(combinations(range(k), 5))
    assert [_unrank_combination(i, k, 5) for i in range(len(every))] == every
    for cap, seed in ((20, 3), (200, 0)):
        want = every
        if len(every) > cap:
            pick = np.random.default_rng(seed).choice(len(every), size=cap,
                                                      replace=False)
            want = [every[i] for i in pick]
        assert _five_subsets(k, cap, seed) == want


def test_helly_octagonalized(quad8, oct_dirs):
    from ccproj import octagonalize
    fan = octagonalize(quad8, oct_dirs)
    rep = helly_verify(fan)
    assert rep.max_subset_residual <= 1e-6 and rep.full_residual <= 1e-6
    assert rep.consistent


def test_helly_subset_cap(quad12):
    rep = helly_verify(quad12, subset_cap=20, seed=3)
    assert len(rep.subset_residuals) == 20
    assert rep.max_subset_residual <= 1e-6 and rep.consistent


def test_helly_invalid_fan_flagged(frame):
    # five far-apart sections: no common transversal and fan is not valid;
    # helly_verify reports on it without a validity check, validate flags it
    fan = SectionFan.create(frame, [
        (0.3, mgon(0.2, 12, (4.0, 0))), (0.9, mgon(0.2, 12, (-4.0, 0))),
        (1.5, mgon(0.2, 12, (0.0, 4.0))), (2.1, mgon(0.2, 12, (0.0, -4.0))),
        (2.7, mgon(0.2, 12, (3.0, 3.0)))])
    rep = helly_verify(fan)
    assert rep.full_residual > rep.tol_resid and rep.consistent
    assert not validate(fan).ok


def test_certify_shifted_line_fails(quad12):
    shifted = ProjLine(np.array([[2.0, 0, 1, 0], [2.0, 0, 0, 1]]))
    cert = certify_line(quad12, shifted)
    assert not cert.contained
    assert len(cert.failing) > 0
    # near w = 0 the unit disk is far from the hit point at u = 2
    assert cert.max_residual > 0.5


def test_certify_partial_miss(quad12):
    # line from the center of the first section to a far point: misses some
    # middle sections, and the failing indices are reported
    chart = build_solver_chart(quad12)
    q = np.array([0.0, 0.0, 30.0, 0.0])
    line = chart.line_of(q)
    cert = certify_line(quad12, line)
    assert not cert.contained
    assert 0 < len(cert.failing) < quad12.k


def ref_plane_hit(frame, line, theta):
    cov = frame.plane_covector(theta)
    a, b = line.span
    x = float(cov @ b) * a - float(cov @ a) * b
    return (x, np.array([float(x @ frame.g0), float(x @ frame.g1)]),
            float(x @ frame.origin(theta)))


def ref_certify_line(fan, line, tol=DEFAULT_TOL):
    """(residuals, eps, failing) of certify_line as it was written before
    the stacked pass: one plane hit and one distance per sample plane."""
    diam = max(float(np.sqrt(np.max(np.sum((s.vertices[:, None] - s.vertices) ** 2, axis=2))))
               for s in fan.sections)
    eps = tol.eps_certify * max(1.0, diam)
    res = []
    for t, section in zip(fan.thetas, fan.sections):
        x, xy, lam = ref_plane_hit(fan.frame, line, float(t))
        res.append(np.inf if abs(lam) <= 1e-14 * max(1.0, float(np.linalg.norm(x)))
                   else ref_distance(xy / lam, section))
    res = np.array(res)
    return res, eps, tuple(int(i) for i in np.nonzero(res > eps)[0])


@functools.cache
def point_segment_fan():
    return sections_around_line(PencilFrame.standard(), ((-1.5, "disk"), (-0.5, "point"),
                                                         (0.5, "segment"), (1.5, "disk")))


@functools.cache
def oracle_fans():
    from ccproj import gen_quadric, gen_random_fan
    return ([gen_random_fan(s).fan for s in range(20)]
            + [gen_quadric(12, 64).fan, gen_quadric(48, 256).fan])


@st.composite
def section_point(draw, fan):
    """A sample index and a unit-chart point inside, on or outside its
    section: on the ray from the centroid through a vertex."""
    i = draw(st.integers(0, fan.k - 1))
    poly = fan.sections[i]
    c, v = poly.centroid(), poly.vertices[draw(st.integers(0, poly.n - 1))]
    return i, c + draw(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.1, 3.0])) * (v - c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certify_line_matches_per_plane_oracle(data):
    fan = data.draw(st.sampled_from(oracle_fans()))
    (i, p), (j, q) = data.draw(section_point(fan)), data.draw(section_point(fan))
    if i == j:
        j = (i + 1) % fan.k
    line = ProjLine(np.vstack([fan.frame.section_point(float(fan.thetas[i]), *p),
                               fan.frame.section_point(float(fan.thetas[j]), *q)]))
    cert = certify_line(fan, line)
    res, eps, failing = ref_certify_line(fan, line)
    assert np.array_equal(cert.residuals, res)
    assert cert.eps == eps and cert.failing == failing


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chart_distances_match_per_section_oracle(data):
    fan = data.draw(st.sampled_from(oracle_fans()))
    subset = data.draw(st.lists(st.integers(0, fan.k - 1), min_size=2, max_size=8,
                                unique=True))
    chart = build_solver_chart(fan, subset)
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    q = lo + np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))) * (hi - lo)
    ref = [ref_distance(x, p) for x, p in zip(chart.hit_points(q), chart.polys)]
    assert np.array_equal(chart._distances(q), ref)


def per_section_depth(chart, q):
    """SolverChart.depth as it was: one interior_margin call per section."""
    return min(interior_margin(p, x) for p, x in zip(chart.polys, chart.hit_points(q)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_depth_matches_per_section_loop(data):
    # random subsets of the golden and random fans 0-19, and point and
    # segment sections; lines anywhere in the box and near its centre line
    fan = data.draw(st.sampled_from(oracle_fans() + [point_segment_fan()]))
    subset = data.draw(st.lists(st.integers(0, fan.k - 1), min_size=2, max_size=fan.k,
                                unique=True))
    chart = build_solver_chart(fan, subset)
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    shrink = data.draw(st.sampled_from([1.0, 0.1, 1e-3]))
    q = (lo + hi) / 2.0 + shrink * (t - 0.5) * (hi - lo)
    assert np.array_equal(chart.depth(q), per_section_depth(chart, q))


def test_stacked_depth_of_solver_lines():
    # the depth find-line prints: every fan's deepest line, on the full fan
    # and on every third section
    for fan in oracle_fans() + [point_segment_fan()]:
        for subset in (None, list(range(0, fan.k, 3))):
            r = chebyshev_line(fan, subset=subset)
            chart = build_solver_chart(fan, subset)
            assert np.array_equal(r.depth, per_section_depth(chart, r.q))


# ---------------------------------------------------------------------------
# The depth LP: its stacked rows and HiGHS without presolve
# ---------------------------------------------------------------------------

def per_section_rows(chart):
    """The depth rows as solve_minimax once built them: one `_depth_rows`
    call per section, then hstack and vstack."""
    a_ub, b_ub = [], []
    for b, poly in zip(chart.betas(), chart.polys):
        nrm, c = _depth_rows(poly)
        a_ub.append(np.hstack([(1.0 - b) * nrm, b * nrm, -np.ones((len(c), 1))]))
        b_ub.append(c)
    return np.vstack(a_ub), np.concatenate(b_ub)


@functools.cache
def shifted_quad12():
    """test_one_solve_per_chebyshev_line's fan with no common transversal:
    quadric (12, 64) with section 3 moved by (2.5, 0)."""
    from ccproj import gen_quadric
    fan = gen_quadric(12, 64).fan
    shifted = list(fan.sections)
    shifted[3] = shifted[3].translated((2.5, 0.0))
    return fan.with_sections(shifted)


def depth_lp_fans():
    """The golden fans, random fans 0-19 and quadric (48, 256) (whose
    256-vertex sections take one block of offsets each), quadric (6, 16), a
    fan with a point and a segment section, and the shifted quad12."""
    from ccproj import gen_quadric
    return oracle_fans() + [gen_quadric(6, 16).fan, point_segment_fan(), shifted_quad12()]


def test_depth_lp_matches_per_section_rows():
    # on the full fan and on every third section: same rows, same order,
    # same bits
    from ccproj.fan import SUPPORT_BLOCK
    assert SUPPORT_BLOCK // 256 ** 2 == 1
    for fan in depth_lp_fans():
        for subset in (None, list(range(0, fan.k, 3))):
            chart = build_solver_chart(fan, subset)
            a_ub, b_ub = chart.depth_lp
            ref_a, ref_b = per_section_rows(chart)
            assert a_ub.shape == ref_a.shape
            assert np.array_equal(a_ub, ref_a) and np.array_equal(b_ub, ref_b)


def test_one_section_stack_per_chart(monkeypatch):
    # one chebyshev_line on random fan 0: the depth LP, `depth` and the
    # residuals all read the chart's one stack and one set of edge normals
    from ccproj import gen_random_fan, planar
    fan, calls = gen_random_fan(0).fan, []
    for name in ("stack_sections", "_edge_halfplanes"):
        inner = getattr(planar, name)
        monkeypatch.setattr(planar, name, lambda *a, name=name, inner=inner:
                            calls.append(name) or inner(*a))
    chebyshev_line(fan)
    assert sorted(calls) == ["_edge_halfplanes", "stack_sections"]


def test_box_matches_vertex_bounds():
    # the box from the padded stack's bounds equals the one from every
    # polygon's vertices stacked, as it was built, on full and subset charts
    for fan in depth_lp_fans():
        for subset in (None, list(range(0, fan.k, 3))):
            chart = build_solver_chart(fan, subset)
            all_v = np.vstack([p.vertices for p in chart.polys])
            lo, hi = np.min(all_v, axis=0), np.max(all_v, axis=0)
            pad = float(np.max(hi - lo)) + 1.0
            want = np.array([[lo[0] - pad, hi[0] + pad], [lo[1] - pad, hi[1] + pad]] * 2)
            assert np.array_equal(chart.box, want)


def test_presolve_leaves_every_solve_unchanged(monkeypatch):
    # every LP solve_minimax makes on these fans (depth LPs and the shifted
    # quad12's Kelley solves), captured by a linprog wrapper, gives the same
    # x with HiGHS presolve on as without it.  On subsets the optimal face
    # of a Kelley model can be more than a point, and the two runs may pick
    # different points of it (3 of the 4 solves on the shifted quad12's
    # every third section): there only the optimal t must agree
    import scipy.optimize
    linprog, calls = scipy.optimize.linprog, []
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: calls.append((subset, kw)) or linprog(*a, **kw))
    for fan in depth_lp_fans():
        for subset in (None, list(range(0, fan.k, 3))):
            chebyshev_line(fan, subset=subset)
    assert len(calls) > 2 * len(depth_lp_fans())  # the shifted quad12 adds Kelley solves
    cost = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for subset, kw in calls:
        assert kw["options"] == {"presolve": False}
        off, on = linprog(cost, **kw), linprog(cost, **{**kw, "options": {}})
        assert off.status == on.status == 0
        if subset is None:
            assert np.array_equal(off.x, on.x)
        assert off.x[4] == pytest.approx(on.x[4], rel=0.0, abs=1e-12 * max(1.0, abs(on.x[4])))


def test_seed_points_drawn_only_past_the_first_point(monkeypatch):
    # the depth LP's point stops the search on random fan 0, so no
    # generator is made; the shifted quad12 draws its seed points once
    from ccproj import gen_random_fan
    fan, rngs = gen_random_fan(0).fan, []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: rngs.append(a) or default_rng(*a))
    assert chebyshev_line(fan).iterations == 1
    assert rngs == []
    assert chebyshev_line(shifted_quad12(), seed=7).iterations > 1
    assert rngs == [(7,)]


def test_certify_line_reads_cached_fan_invariants(monkeypatch):
    # two certify_line calls on quadric (48, 256): no per-section distance
    # call, and each section's diameter computed once in all
    from ccproj import gen_quadric, planar
    quad = gen_quadric(48, 256).fan
    fan = quad.with_sections([ConvexPolygon(s.vertices) for s in quad.sections])
    calls = []
    monkeypatch.setattr(planar, "distance", lambda *a: calls.append("distance"))
    inner = ConvexPolygon.diameter.__wrapped__

    def diameter(self):
        calls.append("diameter")
        return inner(self)

    monkeypatch.setattr(ConvexPolygon, "diameter", cached_method(diameter))
    for x in (0.0, 0.5):
        line = ProjLine(np.vstack([fan.frame.section_point(float(fan.thetas[0]), x, 0.0),
                                   fan.frame.section_point(float(fan.thetas[7]), 0.0, x)]))
        certify_line(fan, line)
    assert calls == ["diameter"] * fan.k


def test_support_halfplane_transversal_quadric(quad12):
    rng = np.random.default_rng(5)
    dirs = np.sort(rng.uniform(0, PI, size=4))
    thetas = rng.choice(quad12.thetas, size=5, replace=False)
    halfplanes = []
    for i, t in enumerate(thetas):
        a = float(dirs[i % 4])
        n = np.array([-np.sin(a), np.cos(a)])
        s = section_at(quad12, float(t))
        c = float(np.max(s.vertices @ n))
        halfplanes.append((float(t), n, c))
    out = support_halfplane_transversal(quad12, halfplanes)
    assert np.all(out.margins >= -1e-7)
    assert out.certificate.contained
    assert out.dual_residual <= 1e-6


@pytest.mark.parametrize("n_dirs", [2, 3])
def test_support_halfplane_pads_directions(quad12, n_dirs, monkeypatch):
    # fewer than four direction classes: the pipeline splits the largest
    # gaps until there are four, keeping every supplied class
    from ccproj import surgery
    from ccproj.transversal import EPS_TOUCH
    seen = []
    octagonalize = surgery.octagonalize
    monkeypatch.setattr(surgery, "octagonalize",
                        lambda fan, dirs, tol: seen.append(dirs) or octagonalize(fan, dirs, tol))
    rng = np.random.default_rng(n_dirs)
    dirs = np.sort(rng.uniform(0, PI, size=n_dirs))
    halfplanes = []
    for i, t in enumerate(rng.choice(quad12.thetas, size=5, replace=False)):
        a = float(dirs[i % n_dirs])
        n = np.array([-np.sin(a), np.cos(a)]) * (-1.0 if i % 2 else 1.0)
        s = section_at(quad12, float(t))
        halfplanes.append((float(t), n, float(np.max(s.vertices @ n))))
    out = support_halfplane_transversal(quad12, halfplanes)
    (padded,) = seen
    assert len(padded) == 4 and np.all(np.diff(padded) > 0.0)
    assert all(np.min(np.abs(padded - d)) <= 1e-12 for d in dirs)
    assert np.all(out.margins >= -EPS_TOUCH * max(1.0, quad12.scale()))
    assert out.certificate.contained


def test_support_halfplane_line_meeting_l_raises(quad12, monkeypatch):
    # a line through L has a hit at infinity (lam = 0) in some plane;
    # certify_line rejects it before the margins divide by lam
    from ccproj import DegenerateInput, transversal
    fr = quad12.frame
    monkeypatch.setattr(transversal, "dual_of_found_line",
                        lambda line, frame, tol: ProjLine(np.vstack([fr.g0, fr.h2])))
    halfplanes = []
    for i, t in enumerate(quad12.thetas[:4]):
        a = i * PI / 4
        n = np.array([-np.sin(a), np.cos(a)])
        halfplanes.append((float(t), n, float(np.max(quad12.sections[i].vertices @ n))))
    with pytest.raises(DegenerateInput, match="line meets L"):
        support_halfplane_transversal(quad12, halfplanes)


def test_support_halfplane_full_slabs(quad12, oct_dirs):
    # tangent slabs touching at octagon edges: the axis works, and the
    # pipeline returns a contained line
    halfplanes = []
    for i, t in enumerate(quad12.thetas[:5]):
        a = float(oct_dirs[i % 4])
        n = np.array([-np.sin(a), np.cos(a)])
        s = quad12.sections[i]
        halfplanes.append((float(t), n, float(np.max(s.vertices @ n))))
    out = support_halfplane_transversal(quad12, halfplanes)
    assert np.all(out.margins >= -1e-7)


def test_support_halfplane_too_many_directions(quad12):
    rng = np.random.default_rng(6)
    dirs = np.linspace(0.1, 2.9, 5)
    halfplanes = []
    for i, t in enumerate(quad12.thetas[:5]):
        a = float(dirs[i])
        n = np.array([-np.sin(a), np.cos(a)])
        s = quad12.sections[i]
        halfplanes.append((float(t), n, float(np.max(s.vertices @ n))))
    with pytest.raises(TooManyDirections):
        support_halfplane_transversal(quad12, halfplanes)


def test_support_halfplane_not_supporting(quad12):
    n = np.array([0.0, 1.0])
    t = float(quad12.thetas[0])
    with pytest.raises(NotSupporting):
        support_halfplane_transversal(quad12, [(t, n, 0.0)])  # cuts the disk
    with pytest.raises(NotSupporting):
        support_halfplane_transversal(quad12, [(t, n, 5.0)])  # does not touch
