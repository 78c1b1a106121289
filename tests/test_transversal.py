import hashlib
from itertools import combinations

import numpy as np
import pytest

from ccproj import (ConvexPolygon, EmptySelection, NotSupporting, ProjLine,
                    SectionFan, TooManyDirections, browder_four_sections, certify_line,
                    chebyshev_line, convex_hull, helly_verify, minimax_problem,
                    section_at, support_halfplane_transversal, validate)
from ccproj.projcore import PI
from ccproj.transversal import (N_SEED_POINTS, HellyReport, MinimaxProblem,
                                _five_subsets, _unrank_combination)
from conftest import mgon

K_FORM = np.diag([1.0, 1.0, -1.0, -1.0])
# test_kelley_path_matches_reference_kernels's line, as the written-out
# point kernels of its reference found it
KELLEY_DIGEST = "df4a8c64eb2d5a61ca2bfa62e9bad0e7704baec630397c7c82ede292efc04f5d"


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
    prob = minimax_problem(fan)
    polys = [p.vertices for p in prob.chart.polys]
    betas = prob.chart.betas()

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


def test_chebyshev_three_disks_vs_grid_oracle(frame):
    samples = [w_disk(frame, -1.0, (-10, 0), 1.0),
               w_disk(frame, 0.0, (0, 10), 1.0),
               w_disk(frame, 1.0, (10, 0), 1.0)]
    fan = SectionFan.create(frame, samples)
    r = chebyshev_line(fan)
    assert abs(r.value - grid_minimax(fan)) <= 1e-3
    # the analytic optimum of this symmetric configuration is exactly 4
    assert abs(r.value - 4.0) <= 1e-3


def test_degenerate_sections_without_transversal_use_fallback(frame):
    # a point, a segment and a disk with no common transversal: the depth
    # LP finds t > 0 and the cutting-plane fallback finds the optimum
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
    # every cut: each evaluation must equal the written-out distance and
    # nearest-point references, and the line found is pinned bit for bit
    from test_planar import ref_distance, ref_nearest_point

    sections = list(quad12.sections)
    sections[3] = sections[3].translated((2.5, 0.0))
    fan = SectionFan(quad12.frame, quad12.thetas, tuple(sections))
    grad = MinimaxProblem.objective_grad
    calls = []

    def checked(self, q):
        f, g = grad(self, q)
        xs = self.chart.hit_points(np.asarray(q, dtype=float))
        vals = [ref_distance(x, p) for x, p in zip(xs, self.chart.polys)]
        i = int(np.argmax(vals))
        d2 = (xs[i] - ref_nearest_point(xs[i], self.chart.polys[i])) / vals[i]
        b = float(self.chart.betas()[i])
        assert f == vals[i] == self.objective(q) > 0.0
        assert np.array_equal(g, np.concatenate([(1.0 - b) * d2, b * d2]))
        assert np.array_equal(self.residuals(q),
                              np.array(vals)[np.argsort(self.chart.indices)])
        calls.append(q)
        return f, g

    monkeypatch.setattr(MinimaxProblem, "objective_grad", checked)
    r = chebyshev_line(fan)
    assert r.iterations > 1 and r.depth < 0.0
    assert len(calls) == 1 + N_SEED_POINTS + r.iterations
    pinned = repr((r.q.tolist(), r.value, r.gap, r.iterations, r.residuals.tolist(),
                   r.depth, r.line.span.tolist()))
    assert hashlib.sha256(pinned.encode()).hexdigest() == KELLEY_DIGEST


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
    samples = [w_disk(frame, -1.0, (-10, 0), 1.0),
               w_disk(frame, 0.0, (0, 10), 1.0),
               w_disk(frame, 1.0, (10, 0), 1.0)]
    fan = SectionFan.create(frame, samples)
    r = chebyshev_line(fan)
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


def test_solver_chart_matches_chart_object(quad12):
    from ccproj import HPoint, build_solver_chart, chart_map
    sc = build_solver_chart(quad12)
    ch = sc.chart()
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.normal(size=3)
        x = sc.lift(*y)
        assert np.allclose(chart_map(ch, HPoint(x)), y, atol=1e-9)


def test_objective_convexity_probe(quad8):
    prob = minimax_problem(quad8)
    rng = np.random.default_rng(0)
    lo, hi = prob.box[:, 0], prob.box[:, 1]
    for _ in range(300):
        x = lo + rng.random(4) * (hi - lo)
        y = lo + rng.random(4) * (hi - lo)
        t = float(rng.uniform(0, 1))
        assert prob.objective(t * x + (1 - t) * y) \
            <= t * prob.objective(x) + (1 - t) * prob.objective(y) + 1e-10


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
    in_scope = fan.validated or validate(fan).ok
    return HellyReport(results, float(max_sub), float(full.value), thr,
                       consistent, in_scope)


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
    assert rep.in_scope  # generated fans carry the validated flag


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
    # five far-apart sections: no common transversal and fan is not valid
    fan = SectionFan.create(frame, [
        (0.3, mgon(0.2, 12, (4.0, 0))), (0.9, mgon(0.2, 12, (-4.0, 0))),
        (1.5, mgon(0.2, 12, (0.0, 4.0))), (2.1, mgon(0.2, 12, (0.0, -4.0))),
        (2.7, mgon(0.2, 12, (3.0, 3.0)))])
    rep = helly_verify(fan)
    assert not rep.in_scope


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
    prob = minimax_problem(quad12)
    chart = prob.chart
    q = np.array([0.0, 0.0, 30.0, 0.0])
    line = chart.line_of(q)
    cert = certify_line(quad12, line)
    assert not cert.contained
    assert 0 < len(cert.failing) < quad12.k


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
