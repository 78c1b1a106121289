"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts the stated tolerance.  Oracles: the analytic dual of the standard
quadric body (a plane meets every disk u^2+v^2 <= 1+w^2 exactly when
xi2^2 + xi3^2 <= xi0^2 + xi1^2), restricted-form negative semidefiniteness
for containment in the quadric, and cross-method agreement elsewhere.
"""

import time

import numpy as np

from ccproj import (ArcSegment, browder_four_sections, build_solver_chart, certify_line,
                    chebyshev_line, chi_dual_crosscheck, chi_section,
                    gen_quadric, gen_random_fan, hausdorff, helly_verify,
                    involution_residual, l_dual,
                    octagonalize, octagonalize_via_pointing,
                    pointedness_duality_check, section_at,
                    sp_duality_check, support_halfplane_transversal, surgery_p,
                    surgery_s, validate)
from ccproj.projcore import PI
from conftest import mark_validated, mgon


def report(name, ok, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def test_criterion_1_quadric_duality():
    t0 = time.time()
    fan = gen_quadric(24, 128).fan
    diam = fan.diameter()
    dual = l_dual(fan)
    disk = mgon(1.0, 1024)
    worst_section = max(hausdorff(s, disk) for s in dual.sections)
    _, res1 = involution_residual(fan)
    fan2 = gen_quadric(48, 256).fan
    _, res2 = involution_residual(fan2)
    elapsed = time.time() - t0
    ok = (worst_section <= 5e-2 * diam and res1 <= 5e-2 * diam
          and res2 <= 0.5 * res1 + 1e-12 and elapsed < 30.0)
    report("criterion-1 quadric-duality", ok,
           "dual-vs-analytic %.2e, involution %.2e -> %.2e after doubling, "
           "%.1fs" % (worst_section, res1, res2, elapsed))


def test_criterion_2_main_theorem_property():
    t0 = time.time()
    worst = 0.0
    certified = 0
    n = 100
    for seed in range(n):
        fan = gen_random_fan(seed, k=10, complexity=2).fan
        diam = fan.diameter()
        r = chebyshev_line(fan, target=1e-7 * diam)
        worst = max(worst, r.value / diam)
        cert = certify_line(fan, r.line)
        if cert.contained:
            certified += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and certified == n and elapsed < 300.0
    report("criterion-2 main-theorem", ok,
           "%d fans, worst residual/diam %.2e, %d certified, %.1fs"
           % (n, worst, certified, elapsed))


def test_criterion_3_surgery_closure():
    rng = np.random.default_rng(0)
    worst_oct = 0.0
    all_valid = True
    n = 50
    for seed in range(n):
        fan = gen_random_fan(seed + 1000, k=8, complexity=1, m=32).fan
        a = float(rng.uniform(0, PI))
        arc_s = ArcSegment(a, (a + rng.uniform(0.2, 1.3)) % PI)
        b = float(rng.uniform(0, PI))
        arc_p = ArcSegment(b, (b + rng.uniform(0.2, 1.3)) % PI)
        fs = surgery_s(fan, arc_s)
        fp = surgery_p(fan, arc_p)
        if not (validate(fs).ok and validate(fp).ok):
            all_valid = False
            break
        dirs = np.sort(rng.uniform(0, PI, size=4))
        while np.min(np.diff(np.concatenate([dirs, [dirs[0] + PI]]))) < 0.15:
            dirs = np.sort(rng.uniform(0, PI, size=4))
        oa = octagonalize(fan, dirs)
        ob = octagonalize_via_pointing(fan, dirs)
        worst_oct = max(worst_oct, max(hausdorff(x, y)
                                       for x, y in zip(oa.sections, ob.sections)))
    ok = all_valid and worst_oct <= 1e-9
    report("criterion-3 surgery-closure", ok,
           "%d fans, outputs valid %s, octagonalize vs P-composition %.2e"
           % (n, all_valid, worst_oct))


def test_criterion_4_sp_duality():
    quad = mark_validated(gen_quadric(12, 64).fan)
    dirs = np.array([0.0, PI / 4, PI / 2, 3 * PI / 4])
    octf = mark_validated(octagonalize(quad, dirs))
    worst_oct = 0.0
    for i in range(4):
        arc = ArcSegment(float(dirs[(i + 1) % 4]), float(dirs[i]))
        ok_i, w = sp_duality_check(octf, arc, eps=1e-6 * octf.scale())
        worst_oct = max(worst_oct, w)
        if not ok_i:
            report("criterion-4 sp-duality", False, "octagon arc %d worst %.2e" % (i, w))
    worst_quad = 0.0
    for arc in (ArcSegment(0.0, PI / 2), ArcSegment(1.0, 2.2)):
        ok_i, w = sp_duality_check(quad, arc, eps=5e-2 * quad.diameter())
        worst_quad = max(worst_quad, w)
        if not ok_i:
            report("criterion-4 sp-duality", False, "quadric worst %.2e" % w)
    report("criterion-4 sp-duality", True,
           "octagon fans %.2e (tol 1e-6), quadric fans %.2e (tol 5e-2)"
           % (worst_oct, worst_quad))


def test_criterion_5_pointedness_affine_duality():
    quad = mark_validated(gen_quadric(8, 48).fan)
    dirs = np.array([0.0, PI / 4, PI / 2, 3 * PI / 4])
    octf = mark_validated(octagonalize(quad, dirs))
    rows = {}

    arc_i1 = ArcSegment(float(dirs[1]), float(dirs[0]))
    agree, table = pointedness_duality_check(octf, arc_i1)
    rows["octagon"] = (agree, all(p and a for p, a in table))

    arc = ArcSegment(0.0, PI / 2)
    pfan = surgery_p(quad, arc)
    agree_p, table_p = pointedness_duality_check(pfan, arc)
    rows["pointified"] = (agree_p, all(p and a for p, a in table_p))

    agree_q, table_q = pointedness_duality_check(quad, arc)
    rows["quadric"] = (agree_q, all((not p) and (not a) for p, a in table_q))

    ok = all(a and b for a, b in rows.values())
    report("criterion-5 pointedness-affine", ok,
           "octagon both-true %s, pointified both-true %s, quadric both-false %s"
           % (rows["octagon"], rows["pointified"], rows["quadric"]))


def test_criterion_6_euler_dichotomy():
    rng = np.random.default_rng(6)
    fans = [mark_validated(gen_quadric(12, 64).fan),
            gen_random_fan(2024, k=8, complexity=1, m=32).fan,
            gen_random_fan(77, k=8, complexity=0, m=32).fan]
    total_outside = 0
    mismatches = 0
    for fan in fans:
        planes = [rng.normal(size=4) for _ in range(200)]
        for xi in planes:
            rep = chi_section(fan, xi)  # raises NonIntervalEmptySet if broken
            assert rep.chi in (0, 1)
        cross = chi_dual_crosscheck(fan, planes, band=5e-2)
        total_outside += cross.total - cross.in_band
        mismatches += len(cross.mismatches)
    ok = mismatches == 0 and total_outside > 300
    report("criterion-6 euler-dichotomy", ok,
           "600 planes on 3 fans, %d outside band, %d mismatches"
           % (total_outside, mismatches))


def test_criterion_7_octagonal_pipeline():
    fan = mark_validated(gen_quadric(12, 64).fan)
    rng = np.random.default_rng(7)
    dirs = np.sort(rng.uniform(0, PI, size=4))
    thetas = rng.choice(fan.thetas, size=5, replace=False)
    halfplanes = []
    for i, t in enumerate(thetas):
        a = float(dirs[i % 4])
        n = np.array([-np.sin(a), np.cos(a)])
        s = section_at(fan, float(t))
        halfplanes.append((float(t), n, float(np.max(s.vertices @ n))))
    out = support_halfplane_transversal(fan, halfplanes)
    ok = bool(np.all(out.margins >= -1e-7)) and out.certificate.contained
    report("criterion-7 octagonal-pipeline", ok,
           "5 half-planes, min margin %.2e, dual residual %.2e"
           % (float(np.min(out.margins)), out.dual_residual))


def test_criterion_8_solver_soundness():
    # convexity probe
    quad = gen_quadric(8, 48).fan
    prob = build_solver_chart(quad)
    rng = np.random.default_rng(8)
    lo, hi = prob.box[:, 0], prob.box[:, 1]
    convex_ok = True
    for _ in range(1000):
        x = lo + rng.random(4) * (hi - lo)
        y = lo + rng.random(4) * (hi - lo)
        t = float(rng.uniform(0, 1))
        if prob.objective(t * x + (1 - t) * y) > \
                t * prob.objective(x) + (1 - t) * prob.objective(y) + 1e-10:
            convex_ok = False
            break

    # 8-start agreement on a positive-residual instance
    from ccproj import SectionFan
    frame = quad.frame

    def w_disk(w, center, radius, m=32):
        th = float(np.arctan2(1.0, -w) % PI)
        s = np.sin(th)
        return th, mgon(radius * s, m, (-s * center[0], -s * center[1]))

    hard = SectionFan.create(frame, [w_disk(-1.0, (-10, 0), 1.0),
                                     w_disk(0.0, (0, 10), 1.0),
                                     w_disk(1.0, (10, 0), 1.0)])
    values = [chebyshev_line(hard, seed=s).value for s in range(8)]
    spread = max(values) - min(values)

    # cross-method agreement on 50 valid 4-section instances
    fallbacks = 0
    agree = True
    n = 50
    for seed in range(n):
        fan = gen_random_fan(seed + 2000, k=6, complexity=0, m=32).fan
        idx = (0, 2, 3, 5)
        che = chebyshev_line(fan, subset=list(idx), target=1e-8)
        if che.value > 1e-6:
            agree = False
            break
        res = browder_four_sections(fan, indices=idx)
        if not res.converged:
            fallbacks += 1
        elif res.line.value > 1e-6:
            agree = False
            break
    ok = convex_ok and spread <= 1e-6 and agree
    report("criterion-8 solver-soundness", ok,
           "convexity probe %s, 8-start spread %.2e, %d/%d browder agree "
           "(fallback rate %.0f%%)"
           % (convex_ok, spread, n - fallbacks, n, 100.0 * fallbacks / n))


def test_criterion_9_helly_consistency():
    n = 20
    consistent = 0
    for seed in range(n):
        fan = gen_random_fan(seed + 3000, k=8, complexity=0, m=32).fan
        rep = helly_verify(fan, tol_resid=1e-6)
        if rep.consistent and rep.max_subset_residual <= 1e-6 \
                and rep.full_residual <= 1e-6:
            consistent += 1
    ok = consistent == n
    report("criterion-9 helly-consistency", ok,
           "%d/%d fans: all 5-subset residuals <= 1e-6 and full residual <= 1e-6"
           % (consistent, n))
