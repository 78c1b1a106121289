"""Line transversals of section fans.

A candidate line is parameterized by its intersections with two reference
planes of the pencil, giving a 4-dimensional affine space of lines disjoint
from L.  Every hit point is linear in these parameters, so "the line meets
every selected section" is one polyhedral feasibility problem: the depth LP
minimizes t subject to n·x_i(q) - c <= t over the edge half-planes of every
section.  t <= 0 certifies a common transversal and -t is its interior
depth.  When t > 0 the minimax objective (largest Euclidean distance from a
hit point to its section), convex in this parameterization, is minimized
by a cutting-plane method driven by subgradients of point-to-polygon
distances, seeded at the LP point.  A residual of zero certifies a common
transversal.

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
from itertools import combinations

import numpy as np

from . import planar
from .dualize import dual_of_found_line, l_dual
from .fan import SectionFan, event_angles, section_at, validate
from .planar import ConvexPolygon, chebyshev_center, distance, nearest_point
from .projcore import (PI, DEFAULT_TOL, Chart, DegenerateInput, GeometryError,
                       HPlane, HPoint, PencilFrame, ProjLine, Tolerances,
                       wrap_angle)

MAX_ITER = 400          # Kelley iterations per solve_minimax call
N_SEED_POINTS = 3       # random box points seeding Kelley besides the LP point
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
        section; zero or negative otherwise.
        """
        xs = self.hit_points(q)
        return min(planar.interior_margin(p, x) for p, x in zip(self.polys, xs))

    def lift(self, y1: float, y2: float, y3: float) -> np.ndarray:
        """Homogeneous 4-vector of the chart point (y1, y2, y3)."""
        f = self.frame
        cov = f.plane_covector(self.theta_inf)
        return y1 * f.g0 + y2 * f.g1 + y3 * f.origin(self.theta_inf) - cov

    def line_of(self, q: np.ndarray) -> ProjLine:
        p1 = self.lift(q[0], q[1], float(self.heights[0]))
        p2 = self.lift(q[2], q[3], float(self.heights[-1]))
        return ProjLine(np.vstack([p1, p2]))

    def chart(self) -> Chart:
        f = self.frame
        cov = f.plane_covector(self.theta_inf)
        o = f.origin(self.theta_inf)
        return Chart(HPlane(cov), HPoint(-cov),
                     (HPoint(f.g0 - cov), HPoint(f.g1 - cov), HPoint(o - cov)))

    def scale(self) -> float:
        return max(max(p.scale for p in self.polys), 1.0)

    def diameter(self) -> float:
        return max(p.diameter() for p in self.polys)


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
    polys = []
    for j, i in enumerate(idx):
        p = fan.sections[i]
        if th_u[j] >= PI:
            p = p.negated()
        polys.append(p.scaled(float(sig[j])))
    return SolverChart(fan.frame, float(theta_inf), th_u, h, sig, tuple(polys),
                       tuple(idx))


# ---------------------------------------------------------------------------
# Minimax problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimaxProblem:
    """Convex minimax instance over the 4-dimensional line parameterization."""

    chart: SolverChart
    box: np.ndarray

    def _distances(self, q) -> list:
        """Distance from each hit point to its section, in height order."""
        xs = self.chart.hit_points(np.asarray(q, dtype=float))
        return [distance(x, p) for x, p in zip(xs, self.chart.polys)]

    def objective(self, q) -> float:
        return max(self._distances(q))

    def objective_grad(self, q):
        """(value, subgradient) of the max-of-distances objective."""
        q = np.asarray(q, dtype=float)
        vals = self._distances(q)
        i = int(np.argmax(vals))
        f = vals[i]
        g = np.zeros(4)
        if f > 0.0:
            x = self.chart.hit_points(q)[i]
            d2 = (x - nearest_point(x, self.chart.polys[i])) / f
            b = float(self.chart.betas()[i])
            g[0:2] = (1.0 - b) * d2
            g[2:4] = b * d2
        return f, g

    def residuals(self, q) -> np.ndarray:
        """Distance from each hit point to its section, in ascending order
        of section index (not in the chart's height order)."""
        return np.array(self._distances(q))[np.argsort(self.chart.indices)]


def minimax_problem(fan: SectionFan, subset=None) -> MinimaxProblem:
    chart = build_solver_chart(fan, subset)
    all_v = np.vstack([p.vertices for p in chart.polys])
    lo = np.min(all_v, axis=0)
    hi = np.max(all_v, axis=0)
    box_pad = float(np.max(hi - lo)) + 1.0
    box = np.array([[lo[0] - box_pad, hi[0] + box_pad],
                    [lo[1] - box_pad, hi[1] + box_pad]] * 2)
    return MinimaxProblem(chart, box)


# ---------------------------------------------------------------------------
# Cutting-plane solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransversalLine:
    """A candidate transversal with its per-section residual certificate.

    subset holds the selected section indices in ascending order, and
    residuals[j] is the distance in the solver chart between the line's hit
    point and section subset[j]; value is their maximum at the solution,
    gap the final optimality gap of the cutting-plane method.
    depth is the least interior margin of the hit points (SolverChart.depth):
    positive for a line through the interiors of all selected sections.
    """

    line: ProjLine
    residuals: np.ndarray
    chart: Chart
    theta_inf: float
    subset: tuple
    value: float
    gap: float
    iterations: int
    q: np.ndarray
    depth: float


def _transversal_line(problem: MinimaxProblem, q, residuals: np.ndarray, value: float,
                      gap: float, iterations: int) -> TransversalLine:
    chart = problem.chart
    return TransversalLine(chart.line_of(q), residuals, chart.chart(), chart.theta_inf,
                           tuple(sorted(chart.indices)), value, gap, iterations,
                           np.asarray(q, dtype=float), chart.depth(q))


def _depth_rows(poly: ConvexPolygon):
    """Unit normals n and offsets c whose half-planes {x : n·x <= c}
    intersect exactly in poly.

    A polygon gives its outward edge normals (zero-length edges skipped).
    A segment gives its two normals and two end caps, a point four axis
    caps.
    """
    e = poly.edges()
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    if poly.n <= 2:
        caps = e[:1] if poly.n == 2 and np.any(e[0]) else np.eye(2)
        nrm = np.vstack([nrm, caps, -caps])
    ln = np.linalg.norm(nrm, axis=1)
    nrm = nrm[ln > 0] / ln[ln > 0, None]
    return nrm, poly.support(nrm)


def _deepest_point(problem: MinimaxProblem):
    """Depth LP: minimize t over (q, t) subject to n·x_i(q) - c <= t for
    every row of every section, q inside the search box.

    Returns q, or None when the LP fails.  t <= 0 certifies a common
    transversal, and -t is its depth when every section is a polygon.
    """
    from scipy.optimize import linprog

    chart = problem.chart
    a_ub, b_ub = [], []
    for b, poly in zip(chart.betas(), chart.polys):
        nrm, c = _depth_rows(poly)
        a_ub.append(np.hstack([(1.0 - b) * nrm, b * nrm, -np.ones((len(c), 1))]))
        b_ub.append(c)
    bounds = [tuple(problem.box[i]) for i in range(4)] + [(None, None)]
    res = linprog(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), A_ub=np.vstack(a_ub),
                  b_ub=np.concatenate(b_ub), bounds=bounds, method="highs")
    if not res.success:
        return None
    return np.array(res.x[:4])


def solve_minimax(problem: MinimaxProblem, tol_solver: float = None,
                  target: float = None, seed: int = 0, tol: Tolerances = DEFAULT_TOL):
    """Minimizer of the minimax objective: the depth LP, then Kelley.

    The depth LP's point is evaluated first; when its Euclidean value is 0
    or at most target it is returned with one iteration.  Otherwise (the LP
    failed or found t > 0) Kelley's cutting-plane method runs from the LP
    point plus N_SEED_POINTS random points of the box.  It stops when the
    optimality gap drops below tol_solver * scale, when the incumbent value
    reaches target, or after MAX_ITER iterations.  Returns (q_best, value, gap,
    iterations).
    """
    from scipy.optimize import linprog

    deep = _deepest_point(problem)
    if deep is not None:
        f0 = problem.objective(deep)
        if f0 == 0.0 or (target is not None and f0 <= target):
            return deep, f0, f0, 1
    scale = problem.chart.scale()
    if tol_solver is None:
        tol_solver = tol.tol_solver
    stop_gap = tol_solver * scale
    lo, hi = problem.box[:, 0], problem.box[:, 1]
    starts = [deep if deep is not None else (lo + hi) / 2.0]
    rng = np.random.default_rng(seed)
    starts += [lo + rng.random(4) * (hi - lo) for _ in range(N_SEED_POINTS)]
    rows = []
    rhs = []
    best_q = None
    best_f = np.inf
    for p in starts:
        f, g = problem.objective_grad(p)
        rows.append(np.concatenate([g, [-1.0]]))
        rhs.append(float(g @ p - f))
        if f < best_f:
            best_f, best_q = f, np.asarray(p, dtype=float)
    bounds = [tuple(problem.box[i]) for i in range(4)] + [(0.0, None)]
    c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    lb = 0.0
    it = 0
    while it < MAX_ITER:
        it += 1
        if target is not None and best_f <= target:
            break
        res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                      method="highs")
        if not res.success:
            break
        lb = max(lb, float(res.x[4]))
        q = res.x[:4]
        f, g = problem.objective_grad(q)
        rows.append(np.concatenate([g, [-1.0]]))
        rhs.append(float(g @ q - f))
        if f < best_f:
            best_f, best_q = f, q.copy()
        if best_f - lb <= stop_gap:
            break
    return best_q, float(best_f), float(max(best_f - lb, 0.0)), it


def chebyshev_line(fan: SectionFan, subset=None, tol: Tolerances = DEFAULT_TOL,
                   tol_solver: float = None, target: float = None,
                   seed: int = 0) -> TransversalLine:
    """Global minimizer of the maximum line-to-section distance.

    The depth LP runs first: when the selected sections have a common
    transversal it returns the deepest one (largest least interior margin)
    with residual zero, in a single LP.  Only when it finds none does the
    cutting-plane fallback minimize the Euclidean objective.  At a positive
    optimum the maximum is attained by at least two sections (the discrete
    form of the equal-distance property).  If the minimizer lands on the
    search box (a near-reference-parallel line) with a nonzero value, the
    solve is retried with an enlarged box.
    """
    problem = minimax_problem(fan, subset)
    for attempt in range(3):
        q, f, gap, it = solve_minimax(problem, tol_solver=tol_solver,
                                      target=target, seed=seed, tol=tol)
        width = problem.box[:, 1] - problem.box[:, 0]
        on_edge = np.any((q - problem.box[:, 0] < 1e-6 * width)
                         | (problem.box[:, 1] - q < 1e-6 * width))
        # a zero value is the global optimum wherever it lies
        if not on_edge or f == 0.0 or (target is not None and f <= target):
            break
        grown = np.stack([problem.box[:, 0] - 1.5 * width,
                          problem.box[:, 1] + 1.5 * width], axis=1)
        problem = MinimaxProblem(problem.chart, grown)
    return _transversal_line(problem, q, problem.residuals(q), f, gap, it)


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
    in_scope: bool


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
    in_scope = fan.validated or validate(fan, tol).ok
    return HellyReport(results, float(max_sub), float(full.value), thr,
                       consistent, in_scope)


# ---------------------------------------------------------------------------
# Four-section fixed-point iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrowderResult:
    converged: bool
    iterations: int
    final_step: float
    line: TransversalLine | None


def browder_four_sections(fan: SectionFan, indices=(0, 1, 2, 3),
                          tol: Tolerances = DEFAULT_TOL,
                          tol_fp: float = None) -> BrowderResult:
    """Fixed-point search for a line meeting four sections.

    From a point a1 of the first section, choose the line through a1
    meeting sections 2 and 3 (selection: Chebyshev center of the admissible
    hit-point set), then the line through its third-section hit meeting
    sections 4 and 1 (selection: return point nearest to a1).  Stops when
    the return point converges or after BROWDER_MAX_ITER steps;
    non-convergence is a legal outcome and the caller falls back to
    chebyshev_line.
    """
    if len(indices) != 4:
        raise ValueError("need four section indices")
    chart = build_solver_chart(fan, list(indices))
    h = chart.heights
    A1, A2, A3, A4 = chart.polys
    if tol_fp is None:
        tol_fp = tol.tol_fp
    scale = chart.scale()
    a1 = chebyshev_center(A1)
    step = np.inf
    x2s = None
    for it in range(1, BROWDER_MAX_ITER + 1):
        r13 = (h[2] - h[0]) / (h[1] - h[0])
        pre3 = ConvexPolygon(a1[None, :] + (A3.vertices - a1[None, :]) / r13,
                             degenerate=A3.degenerate)
        X2 = planar.intersect_polygons(A2, pre3, tol)
        if X2 is None:
            raise EmptySelection("no line through a1 meets sections 2 and 3")
        x2s = chebyshev_center(X2)
        b3 = a1 + (x2s - a1) * r13
        r34 = (h[3] - h[2]) / (h[0] - h[2])
        pre4 = ConvexPolygon(b3[None, :] + (A4.vertices - b3[None, :]) / r34,
                             degenerate=A4.degenerate)
        X1 = planar.intersect_polygons(A1, pre4, tol)
        if X1 is None:
            raise EmptySelection("no line through the third hit meets sections 4 and 1")
        a1p = nearest_point(a1, X1)
        step = float(np.linalg.norm(a1p - a1))
        a1 = a1p
        if step <= tol_fp * scale:
            break
    converged = step <= tol_fp * scale
    if not converged:
        return BrowderResult(False, it, step, None)
    beta1 = float(chart.betas()[1])
    q = np.zeros(4)
    # reconstruct reference-plane hits from a1 (height h1) and x2s (height h2)
    d = (x2s - a1) / beta1 if beta1 != 0 else np.zeros(2)
    q[0:2] = a1
    q[2:4] = a1 + d
    problem = MinimaxProblem(chart, np.zeros((4, 2)))
    res = problem.residuals(q)
    return BrowderResult(True, it, step,
                         _transversal_line(problem, q, res, float(np.max(res)), 0.0, it))


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


def _plane_hit(frame: PencilFrame, line: ProjLine, theta: float):
    """(x, xy, lam): the line's meet x with the pencil plane at theta, whose
    unit-chart point is xy / lam, at infinity when lam is 0."""
    cov = frame.plane_covector(theta)
    a, b = line.span
    x = float(cov @ b) * a - float(cov @ a) * b
    return (x, np.array([float(x @ frame.g0), float(x @ frame.g1)]),
            float(x @ frame.origin(theta)))


def line_hits_in_charts(fan: SectionFan, line: ProjLine, tol: Tolerances = DEFAULT_TOL):
    """Unit-chart coordinates of the line's hit point in every sample plane."""
    hits = []
    for t in fan.thetas:
        x, xy, lam = _plane_hit(fan.frame, line, float(t))
        hits.append(None if abs(lam) <= 1e-14 * max(1.0, float(np.linalg.norm(x)))
                    else xy / lam)
    return hits


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
    hits = line_hits_in_charts(fan, line, tol)
    res = []
    for i, h in enumerate(hits):
        if h is None:
            res.append(np.inf)
        else:
            res.append(distance(h, fan.sections[i]))
    res = np.array(res)
    failing = tuple(int(i) for i in np.nonzero(res > eps)[0])
    return LineCertificate(res, float(eps), len(failing) == 0, failing)


# ---------------------------------------------------------------------------
# Supporting half-plane transversal (degenerate-direction pipeline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfplaneTransversal:
    line: ProjLine
    margins: np.ndarray
    hits: tuple
    directions: np.ndarray
    dual_residual: float
    certificate: LineCertificate


def support_halfplane_transversal(fan: SectionFan, halfplanes,
                                  tol: Tolerances = DEFAULT_TOL,
                                  seed: int = 0) -> HalfplaneTransversal:
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
    dual = l_dual(octa, dual_params=np.concatenate([event_angles(octa), dirs]),
                  tol=tol, check_input=not fan.validated)
    kink_idx = [int(np.argmin(np.minimum(np.abs(dual.thetas - d),
                                         PI - np.abs(dual.thetas - d))))
                for d in dirs]
    result = chebyshev_line(dual, subset=kink_idx, tol=tol,
                            target=1e-9 * max(1.0, dual.diameter()), seed=seed)
    dual_resid = result.value
    line = dual_of_found_line(result.line, dual.frame, tol)
    cert = certify_line(octa, line, tol=tol)

    hits = []
    margins = []
    for theta, n, c, _ in entries:
        _, xy, lam = _plane_hit(fan.frame, line, theta)
        hits.append(xy / lam)
        margins.append(c - float(n @ hits[-1]))
    return HalfplaneTransversal(line, np.array(margins), tuple(hits), dirs,
                                float(dual_resid), cert)
