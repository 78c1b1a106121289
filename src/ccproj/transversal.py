"""Line transversals of section fans.

A candidate line is parameterized by its intersections with two reference
planes of the pencil, giving a 4-dimensional affine space of lines disjoint
from L.  Every hit point is linear in these parameters, so "the line meets
every selected section" is one polyhedral feasibility problem: the depth LP
minimizes t subject to n·x_i(q) - c <= t over the edge half-planes of every
section.  t <= 0 certifies a common transversal and -t is its interior
depth.  Each such row is also a lower bound on the minimax objective
(largest Euclidean distance from a hit point to its section), convex in
this parameterization, so when t > 0 the same LP model goes on as Kelley's
cutting-plane method: the depth rows stay as standing cuts, and
subgradients of point-to-polygon distances add one cut per evaluated
point.  A residual of zero certifies a common transversal.

Also here: the 5-subset consistency check, the four-section set-valued
fixed-point iteration, containment certificates, and the
supporting-half-plane pipeline that routes through octagonalization and
duality.  The 5-subset check solves the full fan first: a line through the
interior of every section meets every subset, so the subsets are solved
one by one only when the full fan has no such line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from . import planar
from .dualize import dual_of_found_line, l_dual
from .fan import SUPPORT_BLOCK, SectionFan, event_angles, in_unwrapped_chart, section_at
from .planar import ConvexPolygon, chebyshev_center, nearest_point, section_distances
from .projcore import (PI, DEFAULT_TOL, DegenerateInput, GeometryError, PencilFrame,
                       ProjLine, Tolerances, cached_method, wrap_angle)

MAX_ITER = 400          # LP solves per solve_minimax call
N_SEED_POINTS = 3       # random box points cut at after the first solve
BROWDER_MAX_ITER = 500  # fixed-point steps of browder_four_sections
EPS_TOUCH = 1e-6        # how far (times the fan's scale) a supporting half-plane may miss


class NoAdmissibleChart(GeometryError):
    """No pencil rotation makes all selected sections finite."""


class EmptySelection(GeometryError):
    """An intermediate admissible set of the fixed-point map is empty."""


class NotSupporting(GeometryError):
    """A supplied half-plane does not support its section."""


class TooManyDirections(GeometryError):
    """Half-plane boundaries meet L in more than four direction classes."""


# ---------------------------------------------------------------------------
# Solver chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverChart:
    """Affine chart adapted to a sample subset.

    The infinity plane is the pencil plane at the midpoint of the largest
    sample gap, so all selected sections are finite.  Sections sit in
    parallel horizontal planes at heights cot(theta - theta_inf), scaled by
    1/sin(theta - theta_inf) relative to their unit charts.  They are
    ordered by height, which starts just after theta_inf: polys[j] is the
    fan's section indices[j], not its j-th selected section.
    """

    frame: PencilFrame
    theta_inf: float
    thetas_u: np.ndarray
    heights: np.ndarray
    scales: np.ndarray
    polys: tuple
    indices: tuple

    @property
    def m(self) -> int:
        return len(self.heights)

    @cached_method
    def betas(self) -> np.ndarray:
        h = self.heights
        return (h - h[0]) / (h[-1] - h[0])

    def hit_points(self, q: np.ndarray) -> np.ndarray:
        """Chart xy of the line's intersections with every section plane."""
        b = self.betas()[:, None]
        return (1.0 - b) * q[None, 0:2] + b * q[None, 2:4]

    def depth(self, q: np.ndarray) -> float:
        """Least interior margin of the hit points over the sections.

        Positive when the line passes through the interior of every
        section; zero or negative otherwise.  One stacked pass over
        `margin_rows`: numpy hands each section's normals-times-point
        product, one item of the stacked matmul, to the matrix-vector
        kernel that `planar.interior_margin`'s product runs, so every
        margin has its bits (a fused multiply-add there rounds unlike
        elementwise products; `test_stacked_depth_matches_per_section_loop`
        compares the two).
        """
        xs = self.hit_points(q)
        nrm, b, flat = self.margin_rows
        margins = np.min(b - (nrm @ xs[:, :, None])[..., 0], axis=1)
        for i in flat:
            margins[i] = -planar.distance(xs[i], self.polys[i])
        return float(margins.min())

    def lift(self, y1: float, y2: float, y3: float) -> np.ndarray:
        """Homogeneous 4-vector of the chart point (y1, y2, y3)."""
        f = self.frame
        cov = f.plane_covector(self.theta_inf)
        return y1 * f.g0 + y2 * f.g1 + y3 * f.origin(self.theta_inf) - cov

    def line_of(self, q: np.ndarray) -> ProjLine:
        p1 = self.lift(q[0], q[1], float(self.heights[0]))
        p2 = self.lift(q[2], q[3], float(self.heights[-1]))
        return ProjLine(np.vstack([p1, p2]))

    @cached_method
    def scale(self) -> float:
        return max(max(p.scale for p in self.polys), 1.0)

    @cached_property
    def box(self) -> np.ndarray:
        """(4, 2) search box that holds every minimizer of the objective.

        Both reference-plane points range over the sections' chart bounding
        box (largest side D) padded by D + 1.  A q with either point on a box
        face puts that hit point at least D + 1 from the first or last section,
        while the line through the box centre (c, c) comes within (sqrt 2 / 2) D
        of every section, so no minimizer lies on the box.
        """
        v = self.section_stack.v  # the padding repeats vertex 0
        lo, hi = v.min(axis=(0, 1)), v.max(axis=(0, 1))
        box_pad = float(np.max(hi - lo)) + 1.0
        return np.array([[lo[0] - box_pad, hi[0] + box_pad],
                         [lo[1] - box_pad, hi[1] + box_pad]] * 2)

    @cached_property
    def section_stack(self) -> planar.SectionStack:
        """The chart's sections as one padded stack, in height order."""
        return planar.stack_sections(self.polys)

    @cached_property
    def margin_rows(self):
        """(nrm, b, flat): every section's edge half-planes
        (`planar._edge_halfplanes` of the section stack), unit normals
        (k, n, 2) and offsets (k, n), with 0 and +inf on the padding and on
        zero-length edges, and the indices of the point and segment
        sections, whose margin is minus the distance.  `depth` and
        `depth_lp` both read it."""
        nrm, b = planar._edge_halfplanes(self.section_stack.v)
        skip = np.isnan(b)
        nrm[skip], b[skip] = 0.0, np.inf
        nrm.flags.writeable = b.flags.writeable = False  # cached on immutable charts
        return nrm, b, [i for i, p in enumerate(self.polys) if p.n <= 2]

    @cached_property
    def depth_lp(self):
        """(a_ub, b_ub): `_depth_rows`' rows (1 - beta) n, beta n, -1 and offsets c, bit
        for bit, from `section_stack` and `margin_rows`: c is the largest n·v over the
        padded vertices, in blocks of at most SUPPORT_BLOCK products."""
        v = self.section_stack.v
        nrm, b, flat = self.margin_rows
        step = max(1, SUPPORT_BLOCK // v.shape[1] ** 2)
        c = np.concatenate([np.max(nrm[a:a + step] @ v[a:a + step].transpose(0, 2, 1), axis=2)
                            for a in range(0, self.m, step)])
        keep = np.isfinite(b)  # no zero-length edge, no padding
        keep[flat] = False
        nrm, c, sec = nrm[keep], c[keep], np.nonzero(keep)[0]
        for i in flat:  # points and segments: `_depth_rows`' caps, in their place
            fn, fc = _depth_rows(self.polys[i])
            nrm, c, sec = np.vstack([nrm, fn]), np.append(c, fc), np.append(sec, [i] * len(fc))
        order = np.argsort(sec, kind="stable")
        nrm, c, w = nrm[order], c[order], self.betas()[sec[order], None]
        a_ub = np.hstack([(1.0 - w) * nrm, w * nrm, -np.ones((len(c), 1))])
        a_ub.flags.writeable = c.flags.writeable = False  # cached on immutable charts
        return a_ub, c

    def _distances(self, q) -> np.ndarray:
        """Distance from each hit point to its section, in height order."""
        return section_distances(self.hit_points(np.asarray(q, dtype=float)),
                                 self.section_stack)

    def objective(self, q) -> float:
        """Convex minimax objective over the 4-dimensional line
        parameterization: the largest hit-point-to-section distance."""
        return float(np.max(self._distances(q)))

    def objective_grad(self, q):
        """(value, subgradient) of the max-of-distances objective."""
        q = np.asarray(q, dtype=float)
        vals = self._distances(q)
        i = int(np.argmax(vals))
        f = float(vals[i])
        g = np.zeros(4)
        if f > 0.0:
            x = self.hit_points(q)[i]
            d2 = (x - nearest_point(x, self.polys[i])) / f
            b = float(self.betas()[i])
            g[0:2] = (1.0 - b) * d2
            g[2:4] = b * d2
        return f, g

    def residuals(self, q) -> np.ndarray:
        """Distance from each hit point to its section, in ascending order
        of section index (not in the chart's height order)."""
        return self._distances(q)[np.argsort(self.indices)]


def build_solver_chart(fan: SectionFan, subset=None) -> SolverChart:
    """Solver chart for a fan restricted to a sample subset.

    Raises ValueError for an index outside [0, fan.k) or a repeated index.
    """
    if subset is None:
        subset = list(range(fan.k))
    subset = sorted(int(i) for i in subset)
    bad = [i for i in subset if not 0 <= i < fan.k]
    if bad:
        raise ValueError("section index %d outside [0, %d)" % (bad[0], fan.k))
    if len(set(subset)) != len(subset):
        raise ValueError("repeated section index in subset")
    if len(subset) < 2:
        raise DegenerateInput("need at least 2 sections")
    th = fan.thetas[subset]
    gaps = np.diff(np.concatenate([th, [th[0] + PI]]))
    gi = int(np.argmax(gaps))
    if gaps[gi] <= 1e-9:
        raise NoAdmissibleChart("sample parameters leave no free pencil plane")
    theta_inf = wrap_angle(th[gi] + gaps[gi] / 2.0)
    th_u = np.where(th > theta_inf, th, th + PI)
    order = np.argsort(th_u)
    th_u = th_u[order]
    idx = [subset[i] for i in order]
    delta = th_u - theta_inf
    sig = 1.0 / np.sin(delta)
    h = np.cos(delta) / np.sin(delta)
    polys = tuple(in_unwrapped_chart(fan.sections[i], t).scaled(float(s))
                  for i, t, s in zip(idx, th_u, sig))
    return SolverChart(fan.frame, float(theta_inf), th_u, h, sig, polys, tuple(idx))


# ---------------------------------------------------------------------------
# Cutting-plane solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransversalLine:
    """A candidate transversal with its per-section residual certificate.

    subset holds the selected section indices in ascending order, and
    residuals[j] is the distance in the solver chart between the line's hit
    point and section subset[j]; value is their maximum at the solution,
    gap the optimality gap of solve_minimax's LP model: value minus the
    model's lower bound.
    depth is the least interior margin of the hit points (SolverChart.depth):
    positive for a line through the interiors of all selected sections.
    """

    line: ProjLine
    residuals: np.ndarray
    subset: tuple
    value: float
    gap: float
    iterations: int
    q: np.ndarray
    depth: float


def _transversal_line(chart: SolverChart, q, residuals: np.ndarray, value: float,
                      gap: float, iterations: int) -> TransversalLine:
    return TransversalLine(chart.line_of(q), residuals, tuple(sorted(chart.indices)),
                           value, gap, iterations, np.asarray(q, dtype=float),
                           chart.depth(q))


def _depth_rows(poly: ConvexPolygon):
    """Unit normals n and offsets c whose half-planes {x : n·x <= c} intersect
    exactly in poly: its outward edge normals (zero-length edges skipped), and
    for a segment two end caps, for a point four axis caps."""
    e = poly.edges()
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    if poly.n <= 2:
        caps = e[:1] if poly.n == 2 and np.any(e[0]) else np.eye(2)
        nrm = np.vstack([nrm, caps, -caps])
    ln = np.linalg.norm(nrm, axis=1)
    nrm = nrm[ln > 0] / ln[ln > 0, None]
    return nrm, poly.support(nrm)


def solve_minimax(chart: SolverChart, target: float = None, seed: int = 0,
                  tol: Tolerances = DEFAULT_TOL):
    """Minimizer of the minimax objective: one LP model, Kelley's
    cutting-plane method.

    The model minimizes a free t over (q, t), q in the search box, and each row
    bounds the objective from below: the depth rows n·x_i(q) - c <= t of every
    section (unit n: at most the hit point's distance) from the start,
    `SolverChart.depth_lp`, bit-identical to `_depth_rows`, and a cut
    f(p) + g·(q - p) <= t at each evaluated point p.  HiGHS runs without
    presolve: 5 columns leave it nothing to remove.  The first solve, the depth
    rows alone, is the depth LP.  Its point is evaluated first, then (unless
    that stops the search) N_SEED_POINTS random box points, with the box centre
    in its place when the solve fails.  The search stops as soon as the best
    value reaches target or comes within tol.tol_solver times the chart's scale
    of the lower bound (the largest of 0 and every solve's t), when a solve
    fails, or after MAX_ITER solves.  Returns (q_best, value, gap, iterations).
    """
    from scipy.optimize import linprog

    a_ub, b_ub = chart.depth_lp
    bounds = [tuple(chart.box[i]) for i in range(4)] + [(None, None)]
    stop_gap = tol.tol_solver * chart.scale()
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    def seed_points():  # drawn only when needed, from a fresh generator: the same points
        rng = np.random.default_rng(seed)
        yield from (lo + rng.random(4) * (hi - lo) for _ in range(N_SEED_POINTS))
    best_q, best_f, lb, it = None, np.inf, 0.0, 0
    while it < MAX_ITER:
        it += 1
        res = linprog(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), A_ub=a_ub, b_ub=b_ub,
                      bounds=bounds, method="highs", options={"presolve": False})
        if res.success:
            lb = max(lb, float(res.x[4]))
            points = [np.array(res.x[:4])]
        else:
            points = [(lo + hi) / 2.0] if it == 1 else []
        for p in chain(points, seed_points() if it == 1 else ()):
            f, g = chart.objective_grad(p)
            if f < best_f:
                best_f, best_q = f, p
            if best_f - lb <= stop_gap or (target is not None and best_f <= target):
                return best_q, float(best_f), float(max(best_f - lb, 0.0)), it
            a_ub = np.vstack([a_ub, np.append(g, -1.0)])
            b_ub = np.append(b_ub, g @ p - f)
        if not res.success:
            break
    return best_q, float(best_f), float(max(best_f - lb, 0.0)), it


def chebyshev_line(fan: SectionFan, subset=None, tol: Tolerances = DEFAULT_TOL,
                   target: float = None, seed: int = 0) -> TransversalLine:
    """Global minimizer of the maximum line-to-section distance.

    The first LP solve is the depth LP: when the selected sections have a
    common transversal it returns the deepest one (largest least interior
    margin) with residual zero.  Only when it finds none do Kelley's cuts
    go into the same model and minimize the Euclidean objective.  At a positive
    optimum the maximum is attained by at least two sections (the discrete
    form of the equal-distance property).  The minimizer lies strictly
    inside the search box (SolverChart.box).
    """
    chart = build_solver_chart(fan, subset)
    q, f, gap, it = solve_minimax(chart, target=target, seed=seed, tol=tol)
    return _transversal_line(chart, q, chart.residuals(q), f, gap, it)


# ---------------------------------------------------------------------------
# Helly consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HellyReport:
    subset_residuals: dict
    max_subset_residual: float
    full_residual: float
    tol_resid: float
    consistent: bool


def _unrank_combination(rank: int, n: int, r: int) -> tuple:
    """The r-subset of range(n) at position rank in lexicographic order,
    the order of itertools.combinations."""
    out = []
    x = 0
    for left in range(r, 0, -1):
        # the subsets whose next element is x number comb(n - x - 1, left - 1)
        while rank >= (c := math.comb(n - x - 1, left - 1)):
            rank -= c
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _five_subsets(k: int, cap: int, seed: int) -> list:
    """Every 5-subset of range(k) in lexicographic order or, when there are
    more than cap, cap of them drawn by seeded rank without replacement.

    Sampled subsets are unranked one by one, so the C(k, 5) subsets are
    never built.
    """
    total = math.comb(k, 5)
    if total <= cap:
        return list(combinations(range(k), 5))
    pick = np.random.default_rng(seed).choice(total, size=cap, replace=False)
    return [_unrank_combination(int(i), k, 5) for i in pick]


def helly_verify(fan: SectionFan, tol: Tolerances = DEFAULT_TOL,
                 tol_resid: float = 1e-6, subset_cap: int = 200,
                 seed: int = 0) -> HellyReport:
    """Checks that feasibility of the 5-subsets of samples is consistent
    with feasibility of the full fan.

    The subsets are every 5-subset, or a seeded sample of subset_cap of them
    above the cap.  The minimax solver runs on the full fan first.  When its
    deepest line has positive depth, it passes through the interior of every
    section, so it meets every subset, and each subset's minimax value is
    exactly 0: it is recorded without a solve.  Otherwise (no common
    transversal, or only one through point or segment sections) the solver
    runs on every subset.
    """
    if fan.k < 5:
        raise DegenerateInput("helly check needs at least 5 samples")
    subsets = _five_subsets(fan.k, subset_cap, seed)
    scale = max(1.0, fan.diameter())
    target = 0.25 * tol_resid * scale
    full = chebyshev_line(fan, tol=tol, target=target, seed=seed)
    if full.depth > 0.0:
        results = dict.fromkeys(subsets, 0.0)
    else:
        results = {sub: chebyshev_line(fan, subset=list(sub), tol=tol,
                                       target=target, seed=seed).value
                   for sub in subsets}
    max_sub = max(results.values())
    thr = tol_resid * scale
    consistent = not (max_sub <= thr and full.value > thr)
    return HellyReport(results, float(max_sub), float(full.value), thr, consistent)


# ---------------------------------------------------------------------------
# Four-section fixed-point iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrowderResult:
    converged: bool
    iterations: int
    line: TransversalLine | None


def browder_four_sections(fan: SectionFan, indices=(0, 1, 2, 3),
                          tol: Tolerances = DEFAULT_TOL) -> BrowderResult:
    """Fixed-point search for a line meeting four sections.

    From a point a1 of the first section, choose the line through a1
    meeting sections 2 and 3 (selection: Chebyshev center of the admissible
    hit-point set, `planar.chebyshev_center`'s exact simplex; where the
    largest inscribed disks tie along a segment, its lexicographically
    smallest centre), then the line through its third-section hit meeting
    sections 4 and 1 (selection: return point nearest to a1).  The start
    a1 is the Chebyshev center of the first section, by the same rule.  The
    admissible sets are clipped out edge by edge on Python floats
    (`planar.halfplane_clip`); no step calls scipy.  Stops when
    the return point moves at most tol.tol_fp times the chart's scale or
    after BROWDER_MAX_ITER steps;
    non-convergence is a legal outcome and the caller falls back to
    chebyshev_line.
    """
    if len(indices) != 4:
        raise ValueError("need four section indices")
    chart = build_solver_chart(fan, list(indices))
    h = chart.heights
    A1, A2, A3, A4 = chart.polys
    stop = tol.tol_fp * chart.scale()
    a1 = chebyshev_center(A1)
    step = np.inf
    x2s = None
    for it in range(1, BROWDER_MAX_ITER + 1):
        r13 = (h[2] - h[0]) / (h[1] - h[0])
        pre3 = ConvexPolygon(a1[None, :] + (A3.vertices - a1[None, :]) / r13)
        X2 = planar.intersect_polygons(A2, pre3, tol)
        if X2 is None:
            raise EmptySelection("no line through a1 meets sections 2 and 3")
        x2s = chebyshev_center(X2)
        b3 = a1 + (x2s - a1) * r13
        r34 = (h[3] - h[2]) / (h[0] - h[2])
        pre4 = ConvexPolygon(b3[None, :] + (A4.vertices - b3[None, :]) / r34)
        X1 = planar.intersect_polygons(A1, pre4, tol)
        if X1 is None:
            raise EmptySelection("no line through the third hit meets sections 4 and 1")
        a1p = nearest_point(a1, X1)
        step = float(np.linalg.norm(a1p - a1))
        a1 = a1p
        if step <= stop:
            break
    converged = step <= stop
    if not converged:
        return BrowderResult(False, it, None)
    beta1 = float(chart.betas()[1])
    q = np.zeros(4)
    # reconstruct reference-plane hits from a1 (height h1) and x2s (height h2)
    d = (x2s - a1) / beta1 if beta1 != 0 else np.zeros(2)
    q[0:2] = a1
    q[2:4] = a1 + d
    res = chart.residuals(q)
    return BrowderResult(True, it, _transversal_line(chart, q, res, float(np.max(res)), 0.0, it))


# ---------------------------------------------------------------------------
# Containment certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineCertificate:
    residuals: np.ndarray
    eps: float
    contained: bool
    failing: tuple

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _chart_hits(frame: PencilFrame, rows, line: ProjLine):
    """(pts, far): the line's meets with the pencil planes whose rows
    (covectors, origins) are frame.plane_rows(thetas), as unit-chart points
    (k, 2), and where a meet is at infinity (its row of pts is NaN).  Each
    dot product is one 1-D `dot`, a BLAS ddot: numpy's stacked products
    (gemv, einsum, sums) round differently."""
    cov, org = rows
    a, b = line.span
    ab = np.array([(c.dot(a), c.dot(b)) for c in cov])
    x = ab[:, 1:] * a - ab[:, :1] * b  # (cov·b) a - (cov·a) b lies in each plane
    g0, g1 = frame.g0, frame.g1
    u, v, lam, xx = np.array([(r.dot(g0), r.dot(g1), r.dot(o), r.dot(r))
                              for r, o in zip(x, org)]).T
    far = np.abs(lam) <= 1e-14 * np.maximum(1.0, np.sqrt(xx))  # xx: np.linalg.norm's dot
    pts = np.full((len(x), 2), np.nan)
    pts[~far] = np.stack([u, v], axis=1)[~far] / lam[~far, None]
    return pts, far


def line_hits_in_charts(fan: SectionFan, line: ProjLine):
    """Unit-chart coordinates of the line's hit point in every sample plane."""
    pts, far = _chart_hits(fan.frame, fan.plane_rows, line)
    return [None if f else h for h, f in zip(pts, far)]


def certify_line(fan: SectionFan, line: ProjLine, eps: float = None,
                 tol: Tolerances = DEFAULT_TOL) -> LineCertificate:
    """Residuals of a line against every sample section, plus a verdict.

    A line meeting all sample sections lies in the denoted body: inside a
    gap the body is the hull of the neighbor sections, which contains the
    segment of the line between its two hit points.  Residuals are measured
    in the unit charts.  The line must not meet L.
    """
    sv = np.linalg.svd(np.vstack([line.span, fan.frame.g0, fan.frame.g1]),
                       compute_uv=False)
    if sv[-1] <= tol.eps_rank * 1e2:
        raise DegenerateInput("line meets L")
    if eps is None:
        eps = tol.eps_certify * max(1.0, fan.diameter())
    pts, far = _chart_hits(fan.frame, fan.plane_rows, line)
    res = np.where(far, np.inf, section_distances(pts, fan.section_stack))
    failing = tuple(int(i) for i in np.nonzero(res > eps)[0])
    return LineCertificate(res, float(eps), len(failing) == 0, failing)


# ---------------------------------------------------------------------------
# Supporting half-plane transversal (degenerate-direction pipeline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfplaneTransversal:
    line: ProjLine
    margins: np.ndarray
    dual_residual: float
    certificate: LineCertificate


def support_halfplane_transversal(fan: SectionFan, halfplanes,
                                  tol: Tolerances = DEFAULT_TOL) -> HalfplaneTransversal:
    """Find a line meeting every supplied supporting half-plane.

    halfplanes: iterable of (theta, normal, offset) with the section at
    theta contained in {x : <normal, x> <= offset} and touching it (within
    EPS_TOUCH of the section's scale).  The
    boundary directions must span at most four classes; the pipeline pads
    to four, octagonalizes, finds a line in the dual of the octagon fan
    between the four distinguished dual sections, and maps it back.
    """
    scale = max(1.0, fan.scale())
    entries = []
    for theta, normal, offset in halfplanes:
        n = np.asarray(normal, dtype=float)
        ln = float(np.linalg.norm(n))
        if ln == 0.0:
            raise NotSupporting("zero normal")
        n = n / ln
        c = float(offset) / ln
        s = section_at(fan, float(theta), tol)
        smax = float(np.max(s.vertices @ n))
        if smax > c + 1e-9 * scale:
            raise NotSupporting("half-plane cuts its section")
        if c - smax > EPS_TOUCH * scale:
            raise NotSupporting("half-plane does not touch its section")
        alpha = float(np.arctan2(-n[0], n[1])) % PI
        entries.append((wrap_angle(float(theta)), n, c, alpha))

    dirs = []
    for _, _, _, alpha in entries:
        if not any(min(abs(alpha - d), PI - abs(alpha - d)) <= 1e-7 for d in dirs):
            dirs.append(alpha)
    if len(dirs) > 4:
        raise TooManyDirections("%d direction classes; at most 4 supported"
                                % len(dirs))
    dirs = sorted(dirs)
    while len(dirs) < 4:
        gaps = np.diff(np.array(dirs + [dirs[0] + PI]))
        i = int(np.argmax(gaps))
        dirs.append(wrap_angle(dirs[i] + gaps[i] / 2.0))
        dirs = sorted(dirs)
    dirs = np.array(dirs)

    from .surgery import octagonalize

    octa = octagonalize(fan, dirs, tol)
    dual = l_dual(octa, dual_params=np.concatenate([event_angles(octa), dirs]), tol=tol)
    kink_idx = [int(np.argmin(np.minimum(np.abs(dual.thetas - d),
                                         PI - np.abs(dual.thetas - d))))
                for d in dirs]
    result = chebyshev_line(dual, subset=kink_idx, tol=tol,
                            target=1e-9 * max(1.0, dual.diameter()))
    dual_resid = result.value
    line = dual_of_found_line(result.line, dual.frame, tol)
    cert = certify_line(octa, line, tol=tol)

    thetas = np.array([theta for theta, _, _, _ in entries])
    # no hit is at infinity: certify_line above raises DegenerateInput for
    # a line that meets L
    pts, _ = _chart_hits(fan.frame, fan.frame.plane_rows(thetas), line)
    margins = [c - float(n @ p) for (_, n, c, _), p in zip(entries, pts)]
    return HalfplaneTransversal(line, np.array(margins), float(dual_resid), cert)
