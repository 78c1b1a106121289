"""Fans of convex polygon sections over the pencil of planes through a line.

A SectionFan holds cyclically ordered samples (theta_i, S_i), each S_i a
convex polygon in the canonical unit chart of plane(theta_i).  The fan
denotes the body obtained by convex-hull interpolation on every gap, which
keeps the data structure closed under all supported operations.  Between
samples the section is the Minkowski combination

    section(theta) = (A/kappa) S_i + (B/kappa) S_j,
    A = sin(theta_j - theta), B = sin(theta - theta_i),
    kappa = |A o(theta_i) + B o(theta_j)|,

which is the slice of the hull of S_i and S_j taken in any affine chart
whose infinity plane is a pencil plane outside the gap (the coefficients
contain no chart parameter, so the hull is chart-independent).

The same weights make validation exact.  Seen from a center t on L, the
covered part of the ray at angle phi starts at radius 1/upper(phi), and
inside a gap r * upper(phi) is a linear function of the chart point, since
kappa equals the constant sin(theta_j - theta_i) there.  So the closure of
the projection complement is the star polygon through the 2k profile
endpoints, and validate decides its convexity vertex by vertex, for every
center on L: between two event_angles each star vertex moves with one
support vertex, and every check is monotone or has a closed-form extreme.

Fans are immutable; all functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from . import planar
from .planar import ConvexPolygon, convex_hull, minkowski_scaled_sum
from .projcore import (PI, DEFAULT_TOL, ArcSegment, DegenerateInput, GeometryError,
                       PencilFrame, Tolerances, wrap_angle)

THETA_EPS = 1e-12
SUPPORT_BLOCK = 1 << 16  # most vertex-functional products support_intervals holds at once


class CenterNotOnL(GeometryError):
    """Projection center does not lie on the pencil line L."""


# ---------------------------------------------------------------------------
# SectionFan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionFan:
    """Cyclic fan of convex sections with hull interpolation between them."""

    frame: PencilFrame
    thetas: np.ndarray
    sections: tuple
    validated: bool = False

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float).copy()
        if len(th) < 3:
            raise DegenerateInput("a fan needs at least 3 samples")
        if len(th) != len(self.sections):
            raise DegenerateInput("thetas and sections length mismatch")
        if np.any(th < 0.0) or np.any(th >= PI):
            raise DegenerateInput("sample parameters must lie in [0, pi)")
        if np.any(np.diff(th) <= THETA_EPS):
            raise DegenerateInput("sample parameters must be strictly increasing mod pi")
        th.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "sections", tuple(self.sections))

    @staticmethod
    def create(frame: PencilFrame, samples, validated: bool = False) -> "SectionFan":
        """Build a fan from (theta, polygon) pairs; samples are sorted mod pi."""
        pairs = sorted(((wrap_angle(t), p) for t, p in samples), key=lambda tp: tp[0])
        th = np.array([t for t, _ in pairs])
        polys = tuple(p for _, p in pairs)
        return SectionFan(frame, th, polys, validated)

    @property
    def k(self) -> int:
        return len(self.thetas)

    def diameter(self) -> float:
        return max(s.diameter() for s in self.sections)

    def scale(self) -> float:
        return max(s.scale for s in self.sections)

    def with_sections(self, sections, validated: bool = False) -> "SectionFan":
        return SectionFan(self.frame, self.thetas, tuple(sections), validated)

    def sample_index_at(self, theta: float):
        """Index of the sample at parameter theta (mod pi), or None."""
        t = wrap_angle(theta)
        idx = int(np.searchsorted(self.thetas, t))
        for j in (idx - 1, idx % self.k):
            d = abs(self.thetas[j % self.k] - t)
            if min(d, PI - d) <= THETA_EPS * 10:
                return j % self.k
        return None

    def gap_of(self, theta: float):
        """(i, j, theta_i, theta_j, theta_u) for theta strictly inside a gap.

        theta_j and theta_u are unwrapped so theta_i < theta_u < theta_j and
        theta_j - theta_i < pi.
        """
        t = wrap_angle(theta)
        idx = int(np.searchsorted(self.thetas, t))
        if idx == 0 or idx == self.k:
            i, j = self.k - 1, 0
            ti = float(self.thetas[i])
            tj = float(self.thetas[j]) + PI
            tu = t + PI if t < self.thetas[0] else t
        else:
            i, j = idx - 1, idx
            ti, tj, tu = float(self.thetas[i]), float(self.thetas[j]), t
        return i, j, ti, tj, tu

    @cached_property
    def vertex_stack(self):
        """(vertices, starts, points): every section's vertices in one
        (N, 2) array, the row where each section starts, and the indices of
        the point sections."""
        verts = np.concatenate([s.vertices for s in self.sections])
        starts = np.cumsum([0] + [s.n for s in self.sections[:-1]])
        return verts, starts, [i for i, s in enumerate(self.sections) if s.n == 1]

    def edge_angles(self) -> np.ndarray:
        """Sorted direction angles (mod pi) of the section edges: one per
        edge, one per segment section, none for a point section."""
        e = np.concatenate([np.zeros((0, 2))] + [s.edges()[:1] if s.n == 2 else s.edges()
                                                 for s in self.sections if s.n > 1])
        return np.sort(np.arctan2(e[:, 1], e[:, 0]) % PI)


def gap_coefficients(theta_i: float, theta_j: float, theta: float):
    """Minkowski weights (a, b) of the hull slice at theta in [theta_i, theta_j]:
    A / kappa and B / kappa, with kappa = sin(theta_j - theta_i) exactly."""
    kappa = np.sin(theta_j - theta_i)
    return np.sin(theta_j - theta) / kappa, np.sin(theta - theta_i) / kappa


def hull_slice(theta_a: float, Pa: ConvexPolygon, theta_b: float, Pb: ConvexPolygon,
               theta: float, tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Slice at theta of the hull of two sections, all in unwrapped charts.

    Requires theta_a <= theta <= theta_b and theta_b - theta_a < pi; the
    polygons must be expressed in the unit charts of the unwrapped
    parameters (negate vertices when a parameter is shifted by pi).
    """
    if not (theta_a - THETA_EPS <= theta <= theta_b + THETA_EPS):
        raise ValueError("theta outside the arc")
    a, b = gap_coefficients(theta_a, theta_b, min(max(theta, theta_a), theta_b))
    return minkowski_scaled_sum(float(a), Pa, float(b), Pb, tol)


def section_at(fan: SectionFan, theta: float, tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Section of the denoted body at pencil parameter theta (mod pi).

    At a sample parameter this is the stored polygon; inside a gap it is the
    hull-interpolated slice, returned in the canonical unit chart of
    plane(theta mod pi).
    """
    hit = fan.sample_index_at(theta)
    if hit is not None:
        return fan.sections[hit]
    i, j, ti, tj, tu = fan.gap_of(theta)
    Pj = fan.sections[j].negated() if tj >= PI else fan.sections[j]
    out = hull_slice(ti, fan.sections[i], tj, Pj, tu, tol)
    if tu >= PI:
        out = out.negated()
    return out


# ---------------------------------------------------------------------------
# Projection profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionProfile:
    """Radial profile of the body's projection from a center t on L.

    The projection lives in RP^2 with marked point c = pi(L); the chart is
    centered at c with the polar line of c at infinity.  For each sample,
    w_intervals[i] is the (min, max) of the linear functional
    w = -u sin(psi) + v cos(psi) over the section polygon; the covered part
    of the pencil line at theta_i is the set of points d(theta_i)/w,
    w in the interval, which never contains c.
    """

    frame: PencilFrame
    center_psi: float
    thetas: np.ndarray
    w_intervals: np.ndarray

    def endpoints(self) -> np.ndarray:
        """Vertices of the profile star polygon in angular order, (2k, 2):
        d(theta_i)/max_i for every sample, then d(theta_i)/min_i.  When the
        profile straddles c, this polygon is the closure of the projection
        complement (see the module docstring).  A (P, k, 2) stack of
        intervals gives a (P, 2k, 2) stack of polygons."""
        d = np.stack([-np.sin(self.thetas), np.cos(self.thetas)], axis=1)
        w = self.w_intervals
        return np.concatenate([d / w[..., 1:], d / w[..., :1]], axis=-2)

    def straddles(self, eps: float) -> bool:
        """True when every sample interval has endpoints on both sides of c."""
        return bool(np.all(self.w_intervals[:, 0] < -eps)
                    and np.all(self.w_intervals[:, 1] > eps))


def project_from(fan: SectionFan, t, tol: Tolerances = DEFAULT_TOL) -> ProjectionProfile:
    """Projection profile of the fan from a center t on L.

    t may be an angle psi, a raw 4-vector, or an HPoint; it must lie on L
    within the incidence tolerance.
    """
    frame = fan.frame
    if isinstance(t, (int, float)):
        psi = wrap_angle(float(t))
    else:
        coords = t.coords if hasattr(t, "coords") else np.asarray(t, dtype=float)
        if frame.off_l_distance(coords) > tol.eps_incid * 1e3:
            raise CenterNotOnL("projection center must lie on L")
        psi = frame.angle_of_l_point(coords)
    func = np.array([-np.sin(psi), np.cos(psi)])
    return ProjectionProfile(frame, psi, fan.thetas, support_intervals(fan, func))


def support_intervals(fan: SectionFan, funcs) -> np.ndarray:
    """(min, max) of linear functionals on each section: (k, 2) for one
    functional of shape (2,), (P, k, 2) for a (P, 2) stack of them.

    Each functional takes one matrix-vector product over all vertices
    (`SectionFan.vertex_stack`), reduced per section, so a row of a stack
    equals the call with that functional alone, bit for bit, and both equal
    the per-section products `vertices @ f`.  A point section takes the
    scalar product, as `vertices @ f` does for one vertex.  The products
    are taken in blocks of at most SUPPORT_BLOCK values."""
    verts, starts, points = fan.vertex_stack
    funcs = np.asarray(funcs, dtype=float)
    F = np.ascontiguousarray(funcs.reshape(-1, 2))
    out = np.empty((len(F), fan.k, 2))
    step = max(1, SUPPORT_BLOCK // len(verts))
    for a in range(0, len(F), step):
        vals = np.matmul(verts, F[a:a + step, :, None])[..., 0]  # a gemv per functional
        out[a:a + step, :, 0] = np.minimum.reduceat(vals, starts, axis=1)
        out[a:a + step, :, 1] = np.maximum.reduceat(vals, starts, axis=1)
    for i in points:
        out[:, i] = [[verts[starts[i]] @ f] for f in F]
    return out.reshape(funcs.shape[:-1] + (fan.k, 2))


@dataclass(frozen=True)
class PlaneMargin:
    """Emptiness margin of a plane over the fan, in closed form per gap.

    Gap g is theta = t0[g] + tau, 0 <= tau <= span[g] < pi, from sample g to
    the next (theta_0 + pi for the wrap gap, whose far interval is negated
    into the unwrapped chart).  As kappa is the constant sin(span) there,
    the interpolated support interval (lo, hi) of the plane's normal and
    its offset offs are sinusoids in tau, and so are both branches
    alpha[g, b] cos(tau) + beta[g, b] sin(tau): b = 0 is lo + offs and
    b = 1 is -(hi + offs).  The margin, the larger branch, is positive
    exactly where the plane misses the section; as lo <= hi, at most one
    branch is.  A branch is amp * cos(tau - phase), with the phase taken in
    [span/2 - pi, span/2 + pi), so it exceeds e >= 0 exactly on
    phase -/+ arccos(e / amp) clipped to [0, span].
    """

    t0: np.ndarray
    span: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @cached_property
    def amp(self) -> np.ndarray:
        return np.hypot(self.alpha, self.beta)

    @cached_property
    def phase(self) -> np.ndarray:
        mid = 0.5 * self.span[:, None]
        return mid + (np.arctan2(self.beta, self.alpha) - mid + PI) % (2.0 * PI) - PI

    def peaks(self) -> np.ndarray:
        """(k, 2) maximum of each branch over its gap: amp when the phase
        lies in the gap, else the value at the nearer gap end."""
        ph = self.phase
        dist = np.maximum(0.0, np.maximum(-ph, ph - self.span[:, None]))
        return self.amp * np.cos(dist)


def plane_margin(fan: SectionFan, xi) -> PlaneMargin:
    """The emptiness margin of the plane with covector xi (see PlaneMargin)."""
    frame = fan.frame
    nu = np.array([float(xi @ frame.g0), float(xi @ frame.g1)])
    c2, c3 = float(xi @ frame.h2), float(xi @ frame.h3)
    near = support_intervals(fan, nu)
    far = np.roll(near, -1, axis=0)
    far[-1] = -near[0, ::-1]
    t0 = fan.thetas
    span = np.diff(t0, append=t0[0] + PI)
    # v(t0 + tau) = v_near cos(tau) + (v_far - v_near cos(span)) / sin(span) sin(tau)
    slope = (far - near * np.cos(span)[:, None]) / np.sin(span)[:, None]
    # offs(t0 + tau) = offs(t0) cos(tau) + offs'(t0) sin(tau)
    offs = -np.sin(t0) * c2 + np.cos(t0) * c3
    doffs = -np.cos(t0) * c2 - np.sin(t0) * c3
    alpha = np.stack([near[:, 0] + offs, -(near[:, 1] + offs)], axis=1)
    beta = np.stack([slope[:, 0] + doffs, -(slope[:, 1] + doffs)], axis=1)
    return PlaneMargin(t0, span, alpha, beta)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterCheck:
    psi: float
    straddle_ok: bool
    marked_point_ok: bool
    segments_ok: bool
    worst_violation: float

    @property
    def ok(self) -> bool:
        return self.straddle_ok and self.marked_point_ok and self.segments_ok


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the convex-concavity checks on a fan."""

    sections_ok: bool
    solver_ready: bool
    disjoint_ok: bool
    concave_ok: bool
    centers: tuple
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.sections_ok and self.disjoint_ok and self.concave_ok

    def __repr__(self):
        flag = "valid" if self.ok else "INVALID"
        return "ValidationReport(%s, sections=%s, disjoint=%s, concave=%s)" % (
            flag, self.sections_ok, self.disjoint_ok, self.concave_ok)


def _distinct_angles(angles) -> np.ndarray:
    """The angles mod pi, sorted, with each run of angles at most THETA_EPS
    from the next (also across pi) kept once, as its first, so they can be
    sample parameters of a SectionFan."""
    a = np.asarray(angles, dtype=float).ravel() % PI
    a = np.sort(np.where(a < PI, a, 0.0))  # a tiny negative angle mod pi is pi
    keep = a[np.diff(a, prepend=-PI) > THETA_EPS]
    if len(keep) > 1 and a[0] + PI - a[-1] <= THETA_EPS:
        keep = keep[:-1]
    return keep


def event_angles(fan: SectionFan) -> np.ndarray:
    """Centers psi on L at which anything changes: the edge directions
    (mod pi), where a support vertex of (-sin psi, cos psi) changes, made
    distinct (_distinct_angles), with every gap of pi/2 or more split into
    equal parts.  So every gap is below pi/2 and there are at least 3
    angles, also for a fan of point sections or of one edge direction."""
    a = _distinct_angles(fan.edge_angles())
    if not len(a):
        a = np.zeros(1)
    gaps = np.diff(a, append=a[0] + PI)
    parts = (gaps // (PI / 2)).astype(int) + 1
    return np.sort(np.concatenate([t + g * np.arange(n) / n
                                   for t, g, n in zip(a, gaps, parts)]) % PI)


def _cross(p, q):
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def _center_checks(fan: SectionFan, tol: Tolerances) -> list:
    """CenterCheck at every event angle, from one pass over the (P, k, 2)
    support intervals and the (P, 2k, 2) profile star polygons p.

    The chord from p[i-1] to p[i+1] crosses the ray of p[i] at s * p[i],
    s = (p[i-1] x p[i+1]) / (p[i] x (p[i+1] - p[i-1])); r * upper - 1 is
    piecewise linear along it and zero at its ends, so s - 1 is its maximum,
    the violation of p[i].  A star with k >= 3 samples and no positive
    violation is convex, and then the marked point's margin is the least
    distance 1/|n| to the edge lines {x : n.x = 1} through p[i], p[i+1].

    Between event angles psi_a < psi_b each support value is a sinusoid
    v . (-sin psi, cos psi) of one vertex v (psi_a + pi reflects the star
    through the marked point), so the checks at both ends decide the span:
    - straddle: each w and w -/+ eps w' is a sinusoid, positive across a
      span shorter than pi if it is at both ends;
    - violation: with p = d / w, a ratio of two sinusoids whose denominator
      stays positive, so its derivative keeps one sign;
    - margin: n is linear in the w's, so |n|^2 = mean + amp cos(2 tau -
      phase), tau = psi - psi_a, peaks at the phase or the nearer end.  The
      check at psi_a takes that least margin (psi_a's own when psi_b fails
      to straddle) against the larger end scale max |d| / |w|, as each
      |w| is concave on the span.
    """
    psi = event_angles(fan)
    W = support_intervals(fan, np.stack([-np.sin(psi), np.cos(psi)], axis=1))
    eps_w = tol.eps_convex * np.maximum(np.max(np.abs(W), axis=(1, 2)), 1e-30)[:, None]
    straddle = np.all((W[..., 0] < -eps_w) & (W[..., 1] > eps_w), axis=1)
    W = np.where(straddle[:, None, None], W, [-1.0, 1.0])  # stand-in for failed centers
    pts = ProjectionProfile(fan.frame, psi, fan.thetas, W).endpoints()
    prev, nxt = np.roll(pts, 1, axis=1), np.roll(pts, -1, axis=1)
    worst = np.max(_cross(prev, nxt) / _cross(pts, nxt - prev), axis=1) - 1.0
    na = (nxt - pts)[..., ::-1] * [1.0, -1.0] / _cross(pts, nxt)[..., None]
    nb = np.roll(na, -1, axis=0)
    nb[-1] = -np.roll(na[0], -fan.k, axis=0)  # psi_0 + pi: star point-reflected
    span = np.diff(psi, append=psi[0] + PI)[:, None]
    m = (nb - na * np.cos(span)[..., None]) / np.sin(span)[..., None]
    a2, m2, x = np.sum(na * na, -1), np.sum(m * m, -1), np.sum(na * m, -1)
    phase = span + (np.arctan2(x, 0.5 * (a2 - m2)) - span + PI) % (2.0 * PI) - PI
    dist = np.maximum(0.0, np.maximum(-phase, phase - 2.0 * span))
    peak = 0.5 * (a2 + m2) + np.hypot(0.5 * (a2 - m2), x) * np.cos(dist)
    margin = 1.0 / np.sqrt(np.max(np.where(np.roll(straddle, -1)[:, None], peak, a2), axis=1))
    scale = np.maximum(1.0, np.max(np.abs(pts), axis=(1, 2)))
    marked = margin > tol.eps_convex * np.maximum(scale, np.roll(scale, -1))
    seg = worst <= 1e-9 + tol.eps_convex * 10.0
    return [CenterCheck(float(p), bool(ok), bool(ok and mk), bool(ok and sg),
                        float(w) if ok else np.inf)
            for p, ok, mk, sg, w in zip(psi, straddle, marked, seg, worst)]


_FAILURES = {
    "straddle": "complement unbounded in the canonical chart (shadow does not "
                "straddle the marked point)",
    "marked": "marked point not interior to the complement",
    "chord": "endpoint chord enters a covered segment",
}


def _failure_kind(c: CenterCheck):
    return (None if c.ok else "straddle" if not c.straddle_ok
            else "marked" if not c.marked_point_ok else "chord")


def _failure_messages(centers: list) -> list:
    """One message per run of consecutive failing centers of one kind: its
    psi range, its count and, for chord failures, the worst violation.
    Centers are cyclic in psi (mod pi), so a run may wrap past pi to 0."""
    kinds = [_failure_kind(c) for c in centers]
    cut = next((i for i, kind in enumerate(kinds) if kind != kinds[i - 1]), 0)
    messages = []
    for kind, run in groupby(centers[cut:] + centers[:cut], key=_failure_kind):
        if kind is None:
            continue
        run = list(run)
        text = _FAILURES[kind]
        if kind == "chord":
            text += " (%sviolation %.3g)" % ("worst " if len(run) > 1 else "",
                                            max(c.worst_violation for c in run))
        if len(run) == 1:
            messages.append("center psi=%.4f: %s" % (run[0].psi, text))
        else:
            messages.append("centers psi=%.4f..%.4f (%d event angles): %s"
                            % (run[0].psi, run[-1].psi, len(run), text))
    return messages


def validate(fan: SectionFan, tol: Tolerances = DEFAULT_TOL) -> ValidationReport:
    """Check the three convex-concavity clauses on the denoted body.

    (a) every section is a convex polygon in its plane (by construction of
    ConvexPolygon; degeneracy is counted), (b) the body stays away from L
    (finite vertex magnitudes below the radius cap; the interpolating hulls
    avoid L by construction), (c) for every center t on L the complement
    of the projection is an open convex set containing the marked point
    pi(L).  Clause (c) is decided exactly on the profile star polygons at
    the event_angles, one CenterCheck each (see _center_checks); a
    complement unbounded in the canonical chart (some shadow fails to
    straddle the marked point) is a concavity failure.  event_angles keeps
    one angle of each run of edge directions at most THETA_EPS apart: across
    the run each support value moves by at most |edge| times its width, far
    below the violation threshold 1e-9 + 10 eps_convex (on the generated
    fans a run is at most 1.6e-14 wide, and no two consecutive edge
    directions lie between 1e-12 and 1e-6 apart).  Failing centers are reported in runs, one
    message each (see _failure_messages).
    """
    messages = ["section %d has non-finite vertices" % i
                for i, s in enumerate(fan.sections) if not np.all(np.isfinite(s.vertices))]
    sections_ok = not messages
    solver_ready = sum(not s.degenerate for s in fan.sections) >= 3

    vmax = fan.scale()
    disjoint_ok = vmax < tol.radius_cap
    if not disjoint_ok:
        messages.append("section vertices reach %.3g chart units; the body "
                        "is not separated from L at tolerance" % vmax)

    centers = _center_checks(fan, tol)
    messages += _failure_messages(centers)
    concave_ok = all(chk.ok for chk in centers)
    return ValidationReport(sections_ok, solver_ready, disjoint_ok, concave_ok,
                            tuple(centers), tuple(messages))


# ---------------------------------------------------------------------------
# Pointedness
# ---------------------------------------------------------------------------

def is_pointed(section: ConvexPolygon, arc: ArcSegment, tol: Tolerances = DEFAULT_TOL,
               eps: float = None):
    """Two vertices making the section pointed w.r.t. the arc on L, or None.

    The section is pointed exactly when it already equals the smallest
    pointed superset, i.e. when adding the two admissible tangent-quadrangle
    corners does not grow it.
    """
    corners, _ = planar.tangent_quadrangle_corners(section, arc.start, arc.end, tol)
    grown = convex_hull(np.vstack([section.vertices, corners]), tol)
    if eps is None:
        eps = 1e-7 * max(section.scale, 1.0)
    if planar.hausdorff(grown, section) <= eps:
        return corners[0], corners[1]
    return None
