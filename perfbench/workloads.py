"""The benchmark's workloads: generated inputs, one cycle of operations, oracles.

A workload is built from its seed.  The scene sets are fixed; the seed picks
the arcs, directions, planes, pencil parameters, lines and subsets the
operations use.  One *cycle* is the list of operations; the timed loop
repeats whole cycles, so every run with a seed issues the same mix.

Every operation has an oracle, ``check(output) -> (ok, err)``, where err is
the deviation from the workload's analytic reference relative to the fan's
diameter (0.0 where the operation has none).  Oracles run after the timed
loop and never raise on a wrong answer: a failed check is counted.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from ccproj import (ConvexPolygon, GeometryError, SectionFan, certify_line,
                    chi_section, contains_polygon, convex_hull, distance,
                    gap_coefficients, gen_quadric, gen_random_fan, hausdorff,
                    l_dual, meet_line_plane, octagonalize, parse, pencil_plane,
                    plane_meets_all_sections, point_in_fan, serialize)
from ccproj.projcore import PI, ArcSegment, ProjLine

QUADRICS = ((12, 64), (12, 256), (48, 64), (48, 256))
RANDOM_SEEDS = tuple(range(20))
RANDOM_K, RANDOM_COMPLEXITY = 10, 2
HELLY_SEEDS = (3000,)
QUERY_RANDOM_SEEDS = (1, 2, 3)
QUERY_REPEATS = 50
RANDOM_DRAWS = 3     # parameter draws per random fan for the other commands
COMMANDS = ("validate", "dualize", "roundtrip", "surgery-s", "surgery-p",
            "octagonalize", "section")
FIXED_COMMANDS = ("validate", "dualize", "roundtrip")   # take no parameters
OCT_DIRS = (0.0, PI / 4, PI / 2, 3 * PI / 4)

BAND = 5e-2          # acceptance criteria 1 and 6: relative boundary band
EXACT = 1e-9         # relative slack for results that are exact up to rounding
_DISK = convex_hull(np.stack([np.cos(2 * PI * np.arange(1024) / 1024),
                              np.sin(2 * PI * np.arange(1024) / 1024)], axis=1))


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]          # run(api) -> output
    check: Callable[[Any], tuple]      # check(output) -> (ok, err)


@dataclass
class Workload:
    ops: list
    kernel_fans: list                  # fans the layer kernels are timed on


def _interleaved(ops, rng) -> list:
    """The cycle in a seeded random order, so that a slow spell of the
    machine falls on every kind of operation alike."""
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# Shared oracles
# ---------------------------------------------------------------------------

def _random_fan(seed: int):
    return gen_random_fan(seed, k=RANDOM_K, complexity=RANDOM_COMPLEXITY).fan


def section_error(fan: SectionFan, theta: float, poly: ConvexPolygon) -> float:
    """Support-function distance between a computed section and the hull
    interpolation of its neighbouring samples, relative to the diameter."""
    dirs = np.stack([np.cos(2 * PI * np.arange(64) / 64),
                     np.sin(2 * PI * np.arange(64) / 64)], axis=1)
    hit = fan.sample_index_at(theta)
    if hit is not None:
        expected = fan.sections[hit].support(dirs)
    else:
        i, j, ti, tj, tu = fan.gap_of(theta)
        a, b = gap_coefficients(ti, tj, tu)
        sj = -1.0 if tj >= PI else 1.0    # the far neighbour seen across pi
        so = -1.0 if tu >= PI else 1.0    # the result seen across pi
        expected = (a * fan.sections[i].support(so * dirs)
                    + b * fan.sections[j].support(so * sj * dirs))
    return float(np.max(np.abs(poly.support(dirs) - expected))) / fan.diameter()


def _chi_agrees(member: bool, dual: SectionFan, xi) -> bool:
    """chi-membership against direct membership in the dual fan, outside
    the boundary band (the policy of acceptance criterion 6)."""
    try:
        inside, margin, _ = point_in_fan(dual, xi)
    except GeometryError:
        return True
    return abs(margin) <= BAND * dual.diameter() or member == inside


def _residuals_by_meet(fan: SectionFan, line: ProjLine) -> np.ndarray:
    """Line-to-section residuals through plane meets, independently of
    transversal.line_hits_in_charts."""
    out = []
    for t, s in zip(fan.thetas, fan.sections):
        x = meet_line_plane(line, pencil_plane(fan.frame, float(t))).coords
        u, v, _ = fan.frame.chart_coords(float(t), x)
        out.append(distance(np.array([u, v]), s))
    return np.array(out)


# ---------------------------------------------------------------------------
# construct: CLI commands that build fans from scene text
# ---------------------------------------------------------------------------

def run_cli(main, argv, stdin_text: str):
    """One in-process CLI command with in-memory stdin, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli_params(cmd: str, rng) -> tuple:
    if cmd in ("surgery-s", "surgery-p"):
        a = rng.uniform(0.0, PI)
        b = (a + rng.uniform(0.15, 0.45) * PI) % PI
        return ("--arc", "%r,%r" % (a, b))
    if cmd == "octagonalize":
        dirs = (rng.uniform(0.0, PI / 4) + np.arange(4) * PI / 4
                + rng.uniform(-0.05, 0.05, size=4)) % PI
        return ("--dirs", " ".join(repr(float(d)) for d in np.sort(dirs)))
    if cmd == "section":
        return ("--theta", repr(rng.uniform(0.0, PI)))
    return ()


def _fields(stdout: str) -> list:
    return [line.partition("=")[::2] for line in stdout.splitlines()]


def check_cli(cmd: str, fan: SectionFan, quadric: bool, argv, output):
    code, stdout, _ = output
    if code != 0:
        return False, 0.0
    diam = fan.diameter()
    if cmd == "validate":
        return ("valid", "true") in _fields(stdout), 0.0
    if cmd == "roundtrip":
        err = float(dict(_fields(stdout))["max_residual"]) / diam
        return err <= BAND, err
    if cmd == "section":
        verts = [[float(x) for x in v.split()] for k, v in _fields(stdout)
                 if k == "vertex"]
        theta = float(argv[argv.index("--theta") + 1])
        return section_error(fan, theta, ConvexPolygon(verts)) <= EXACT, 0.0
    out = parse(stdout).fan
    if cmd == "dualize":
        if not quadric:
            return out.frame.space == "dual" and out.validated, 0.0
        err = max(hausdorff(s, _DISK) for s in out.sections) / diam
        return err <= BAND, err
    eps = EXACT * fan.scale()
    if cmd == "surgery-s":
        a, b = (float(x) for x in argv[argv.index("--arc") + 1].split(","))
        arc = ArcSegment(a, b)
        kept = {float(t): s for t, s in zip(fan.thetas, fan.sections)
                if not arc.contains(float(t), closed=False, slack=1e-11)}
        added = [float(t) for t in out.thetas if float(t) not in kept]
        ok = (all(np.array_equal(s.vertices, kept[float(t)].vertices)
                  for t, s in zip(out.thetas, out.sections) if float(t) in kept)
              and len(kept) + len(added) == out.k
              and all(min(abs(t - a), abs(t - b)) <= 1e-8 for t in added))
        return ok, 0.0
    # surgery-p and octagonalize enlarge every sample section in place
    ok = (np.array_equal(out.thetas, fan.thetas)
          and all(contains_polygon(o, s, eps)
                  for o, s in zip(out.sections, fan.sections)))
    if cmd == "octagonalize":
        ok = ok and all(s.n <= 8 for s in out.sections)
    return ok, 0.0


def build_construct(seed: int, quadrics=QUADRICS,
                    random_seeds=RANDOM_SEEDS) -> Workload:
    scenes = ([(True, gen_quadric(k, m)) for k, m in quadrics]
              + [(False, gen_random_fan(s, k=RANDOM_K,
                                        complexity=RANDOM_COMPLEXITY))
                 for s in random_seeds])
    rng = np.random.default_rng(seed)
    ops = []
    for quadric, sc in scenes:
        text = serialize(sc)
        for cmd in COMMANDS:
            draws = 1 if quadric or cmd in FIXED_COMMANDS else RANDOM_DRAWS
            for _ in range(draws):
                argv = [cmd, "--in", "-", *_cli_params(cmd, rng)]
                ops.append(Op(cmd,
                              lambda api, argv=argv, text=text: run_cli(api.main, argv, text),
                              partial(check_cli, cmd, sc.fan, quadric, argv)))
    small = [sc.fan for quadric, sc in scenes if quadric and sc.fan.k <= 12]
    first_random = [sc.fan for quadric, sc in scenes if not quadric][:1]
    return Workload(_interleaved(ops, rng), small + first_random)


# ---------------------------------------------------------------------------
# transversal: the LP-bound line searches
# ---------------------------------------------------------------------------

def _run_chebyshev(fan, api):
    r = api.chebyshev_line(fan, target=1e-7 * fan.diameter())
    return r, api.certify_line(fan, r.line)


def _check_chebyshev(fan, output):
    r, cert = output
    return cert.contained, max(r.value, cert.max_residual) / fan.diameter()


def _check_browder(fan, idx, res):
    if not res.converged:       # a legal outcome; the caller falls back
        return True, 0.0
    sub = SectionFan(fan.frame, fan.thetas[list(idx)],
                     [fan.sections[i] for i in idx])
    cert = certify_line(sub, res.line.line)
    return cert.contained, cert.max_residual / fan.diameter()


def build_transversal(seed: int, random_seeds=RANDOM_SEEDS,
                      octagonal=True) -> Workload:
    fans = [_random_fan(s) for s in random_seeds]
    helly = [gen_random_fan(s, k=8, complexity=0, m=32).fan for s in HELLY_SEEDS]
    if octagonal:
        helly.append(octagonalize(gen_quadric(12, 64).fan, OCT_DIRS))
    rng = np.random.default_rng(seed)
    ops = []
    for n, f in enumerate(fans):
        ops.append(Op("chebyshev_line", partial(_run_chebyshev, f),
                      partial(_check_chebyshev, f)))
        if n % 2 == 0:
            idx = tuple(int(i) for i in np.sort(rng.choice(f.k, 4, replace=False)))
            ops.append(Op("browder_four_sections",
                          lambda api, f=f, idx=idx: api.browder_four_sections(f, idx),
                          partial(_check_browder, f, idx)))
    for f in helly:
        ops.append(Op("helly_verify", lambda api, f=f: api.helly_verify(f),
                      lambda rep: (rep.consistent, 0.0)))
    return Workload(_interleaved(ops, rng), fans[:1] + helly)


# ---------------------------------------------------------------------------
# query: read-only questions against fans built at set-up
# ---------------------------------------------------------------------------

def _random_line(fan: SectionFan, rng) -> ProjLine:
    """Line through interior points of two distinct sample sections."""
    pts = []
    for i in rng.choice(fan.k, 2, replace=False):
        s = fan.sections[i]
        u, v = rng.dirichlet(np.ones(s.n)) @ s.vertices
        pts.append(fan.frame.section_point(float(fan.thetas[i]), u, v))
    return ProjLine(np.vstack(pts))


def _check_section(fan, quadric, theta, poly):
    ok = section_error(fan, theta, poly) <= EXACT
    if not quadric:
        return ok, 0.0
    err = hausdorff(poly, _DISK) / fan.diameter()
    return ok and err <= BAND, err


def _check_meets(fan, dual, xi, output):
    meets, worst = output
    if abs(worst) <= BAND * fan.diameter():
        return True, 0.0
    return _chi_agrees(meets, dual, xi), 0.0


def _check_chi(dual, xi, rep):
    return rep.pencil_plane or _chi_agrees(rep.membership, dual, xi), 0.0


def _check_point(fan, xi, dual_diam, output):
    inside, margin, _ = output
    if abs(margin) <= BAND * dual_diam:
        return True, 0.0
    return chi_section(fan, xi).membership == inside, 0.0


def _check_certify(fan, line, cert):
    ref = _residuals_by_meet(fan, line)
    return bool(np.all(np.abs(ref - cert.residuals) <= EXACT * fan.scale())), 0.0


def _planes(fan: SectionFan, rng, n: int) -> list:
    """n random planes: half meet every sample section and half miss one.

    chi_section takes its fast path on the first kind and refines an empty
    arc on the second, about ten times slower.  A fixed split keeps the
    share of slow queries, and so the latency percentiles, the same for
    every seed.
    """
    meet, miss = [], []
    while len(meet) < n // 2 or len(miss) < n - n // 2:
        xi = rng.normal(size=4)
        (meet if plane_meets_all_sections(fan, xi)[0] else miss).append(xi)
    return meet[:n // 2] + miss[:n - n // 2]


def build_query(seed: int, random_seeds=QUERY_RANDOM_SEEDS,
                repeats=QUERY_REPEATS) -> Workload:
    fans = ([(True, gen_quadric(12, 64).fan)]
            + [(False, _random_fan(s)) for s in random_seeds])
    rng = np.random.default_rng(seed)
    ops = []
    for is_quadric, f in fans:
        dual = l_dual(f)
        dual_diam = dual.diameter()
        for xi in _planes(f, rng, repeats):
            theta = float(rng.uniform(0.0, PI))
            line = _random_line(f, rng)
            ops += [
                Op("chi_section",
                   lambda api, f=f, xi=xi: api.chi_section(f, xi),
                   partial(_check_chi, dual, xi)),
                Op("point_in_fan",
                   lambda api, dual=dual, xi=xi: api.point_in_fan(dual, xi),
                   partial(_check_point, f, xi, dual_diam)),
                Op("section_at",
                   lambda api, f=f, theta=theta: api.section_at(f, theta),
                   partial(_check_section, f, is_quadric, theta)),
                Op("plane_meets_all_sections",
                   lambda api, f=f, xi=xi: api.plane_meets_all_sections(f, xi),
                   partial(_check_meets, f, dual, xi)),
                Op("certify_line",
                   lambda api, f=f, line=line: api.certify_line(f, line),
                   partial(_check_certify, f, line)),
            ]
    return Workload(_interleaved(ops, rng), [f for _, f in fans[:2]])


BUILDERS = {"construct": build_construct, "transversal": build_transversal,
            "query": build_query}
