"""Homogeneous-coordinate primitives for RP^3 and its dual.

Points and planes are homogeneous 4-vectors/covectors, lines are rank-2
spans, and the pencil of planes through a fixed line L is parameterized by
an angle theta with period pi.  All incidence predicates route through one
tolerance policy object so tests are reproducible.

Every value is immutable after construction and every operation is pure;
sharing across threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, wraps

import numpy as np

PI = float(np.pi)


def cached_method(method):
    """A zero-argument method of an immutable object, evaluated on the
    first call only: its value is the cached_property `_<name>`."""
    prop = cached_property(method)
    prop.__set_name__(None, "_" + method.__name__)
    return wraps(method)(lambda self: prop.__get__(self))


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GeometryError(Exception):
    """Base class for geometric precondition failures."""


class DegenerateInput(GeometryError):
    """Join/meet arguments coincide projectively (rank collapse)."""


# ---------------------------------------------------------------------------
# Tolerance policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """Single tolerance policy shared by all geometric predicates.

    eps_incid and eps_rank are relative; the remaining entries are the
    defaults used by higher-level modules (relative to the scale they state
    in their docstrings).  Every entry is finite and positive (ValueError
    otherwise), whatever its source: a scene, CCPROJ_TOL or --tol.
    """

    eps_incid: float = 1e-9
    eps_rank: float = 1e-9
    eps_convex: float = 1e-9
    eps_dual: float = 1e-8
    eps_affine: float = 1e-6
    tol_solver: float = 1e-7
    tol_fp: float = 1e-8
    eps_certify: float = 1e-5
    radius_cap: float = 1e8

    def __post_init__(self):
        for name, x in vars(self).items():
            if not 0.0 < x < math.inf:  # NaN fails too
                raise ValueError("tolerance %s must be finite and positive, got %r" % (name, x))

    def with_base(self, base: float) -> "Tolerances":
        """Rescale the incidence-level tolerances to a new base value."""
        return replace(self, eps_incid=base, eps_rank=base, eps_convex=base)


def finite_float(text) -> float:
    """float(text); ValueError unless the number is finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not a finite number: %r" % text)
    return x


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# Canonical homogeneous vectors
# ---------------------------------------------------------------------------

def canonicalize(v) -> np.ndarray:
    """Canonical representative of a homogeneous vector.

    Divides by the maximum-magnitude component and flips sign so the first
    nonzero component is positive.  Exact under sign flips and power-of-two
    rescalings; generic rescalings agree to rounding.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise DegenerateInput("zero vector has no canonical form")
    k = int(np.argmax(np.abs(v)))
    out = v / abs(v[k])
    for x in out:
        if x != 0.0:
            if x < 0.0:
                out = -out
            break
    return out + 0.0  # normalize -0.0 to 0.0


def _scale_inf(v) -> float:
    return float(np.max(np.abs(v)))


@dataclass(frozen=True)
class HPoint:
    """Point of RP^3 as a canonical homogeneous 4-vector."""

    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", canonicalize(coords))
        self.coords.setflags(write=False)

    @staticmethod
    def of(x0: float, x1: float, x2: float, x3: float) -> "HPoint":
        return HPoint(np.array([x0, x1, x2, x3], dtype=float))

    def same_as(self, other: "HPoint", tol: Tolerances = DEFAULT_TOL) -> bool:
        a, b = self.coords, other.coords
        return float(np.max(np.abs(a - b))) <= tol.eps_incid * max(1.0, _scale_inf(a))

    def __repr__(self):
        return "HPoint(%s)" % np.array2string(self.coords, precision=12)


@dataclass(frozen=True)
class HPlane:
    """Plane of RP^3 as a canonical homogeneous 4-covector."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", canonicalize(coeffs))
        self.coeffs.setflags(write=False)

    @staticmethod
    def of(c0: float, c1: float, c2: float, c3: float) -> "HPlane":
        return HPlane(np.array([c0, c1, c2, c3], dtype=float))

    def same_as(self, other: "HPlane", tol: Tolerances = DEFAULT_TOL) -> bool:
        a, b = self.coeffs, other.coeffs
        return float(np.max(np.abs(a - b))) <= tol.eps_incid * max(1.0, _scale_inf(a))

    def __repr__(self):
        return "HPlane(%s)" % np.array2string(self.coeffs, precision=12)


def incident(p: HPoint, pi: HPlane, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Point-on-plane predicate, relative tolerance, rescaling-invariant."""
    return _incident_raw(p.coords, pi.coeffs, tol)


def _incident_raw(p, c, tol: Tolerances) -> bool:
    return abs(float(np.dot(p, c))) <= tol.eps_incid * _scale_inf(p) * _scale_inf(c) * 4.0


# ---------------------------------------------------------------------------
# Lines
# ---------------------------------------------------------------------------

def _sign_sorted(rows: np.ndarray) -> np.ndarray:
    """The rows, each signed so its largest-magnitude entry is positive,
    sorted by the position of that entry."""
    fixed = []
    for r in rows:
        k = int(np.argmax(np.abs(r)))
        fixed.append(-r if r[k] < 0 else r)
    fixed.sort(key=lambda r: int(np.argmax(np.abs(r))))
    return np.array(fixed)


def _orthonormal_rows(m: np.ndarray, eps_rank: float) -> np.ndarray:
    """Deterministic orthonormal basis of the row space of m (rank must be 2)."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    if s[1] <= eps_rank * max(s[0], 1e-300):
        raise DegenerateInput("generators do not span a line (rank < 2)")
    return _sign_sorted(vt[:2])


def _null_rows(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the 2-dimensional null space of a 2x4 matrix."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=True)
    return _sign_sorted(vt[2:])


@dataclass(frozen=True)
class ProjLine:
    """Line of RP^3 (or of the dual space) as an orthonormal 2x4 span."""

    span: np.ndarray

    def __init__(self, span, tol: Tolerances = DEFAULT_TOL):
        basis = _orthonormal_rows(span, tol.eps_rank)
        object.__setattr__(self, "span", basis)
        self.span.setflags(write=False)

    def projector(self) -> np.ndarray:
        """Rank-2 orthogonal projector onto the span (representation-free)."""
        return self.span.T @ self.span

    def same_as(self, other: "ProjLine", tol: Tolerances = DEFAULT_TOL) -> bool:
        return float(np.max(np.abs(self.projector() - other.projector()))) <= 1e3 * tol.eps_rank

    def contains_point(self, p: HPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
        x = p.coords
        r = x - self.projector() @ x
        return float(np.linalg.norm(r)) <= tol.eps_incid * 1e2 * max(1.0, float(np.linalg.norm(x)))

    def __repr__(self):
        return "ProjLine(span=%s)" % np.array2string(self.span, precision=9)


def join_points(p: HPoint, q: HPoint, tol: Tolerances = DEFAULT_TOL) -> ProjLine:
    """Line through two distinct points."""
    return ProjLine(np.vstack([p.coords, q.coords]), tol)


def meet_planes(a: HPlane, b: HPlane, tol: Tolerances = DEFAULT_TOL) -> ProjLine:
    """Intersection line of two distinct planes."""
    span = _null_rows(_orthonormal_rows(np.vstack([a.coeffs, b.coeffs]), tol.eps_rank))
    return ProjLine(span, tol)


def meet_line_plane(l: ProjLine, pi: HPlane, tol: Tolerances = DEFAULT_TOL) -> HPoint:
    """Intersection point of a line with a plane not containing it."""
    a, b = l.span
    ca = float(np.dot(pi.coeffs, a))
    cb = float(np.dot(pi.coeffs, b))
    scale = _scale_inf(pi.coeffs)
    if abs(ca) <= tol.eps_incid * scale and abs(cb) <= tol.eps_incid * scale:
        raise DegenerateInput("line lies in the plane")
    return HPoint(cb * a - ca * b)


def dual_line(l: ProjLine, tol: Tolerances = DEFAULT_TOL) -> ProjLine:
    """Annihilator line in the dual space; an involution.

    Every plane through l maps to a point on the dual line and vice versa.
    """
    return ProjLine(_null_rows(l.span), tol)


# ---------------------------------------------------------------------------
# Pencil of planes through a line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PencilFrame:
    """A line L plus the two basis planes generating the pencil through it.

    plane(theta) = cos(theta) * P0 + sin(theta) * P1, theta in [0, pi).
    Internally carries an orthonormal adapted frame of R^4:
    g0, g1 span L; h2, h3 span the orthogonal complement.  P0, P1 are the
    covectors h2, h3 under the Euclidean identification.  `space` tags
    whether the frame lives in the primal or the dual projective space.
    """

    g0: np.ndarray
    g1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    space: str = "primal"

    def __post_init__(self):
        for name in ("g0", "g1", "h2", "h3"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m = np.vstack([self.g0, self.g1, self.h2, self.h3])
        if (m.shape != (4, 4) or not np.all(np.isfinite(m))
                or float(np.max(np.abs(m @ m.T - np.eye(4)))) > 1e-9):
            raise DegenerateInput("pencil frame is not an orthonormal basis of R^4")

    @staticmethod
    def standard() -> "PencilFrame":
        e = np.eye(4)
        return PencilFrame(e[0], e[1], e[2], e[3])

    @staticmethod
    def from_line(line: ProjLine, tol: Tolerances = DEFAULT_TOL) -> "PencilFrame":
        g = _orthonormal_rows(line.span, tol.eps_rank)
        h = _null_rows(g)
        return PencilFrame(g[0], g[1], h[0], h[1])

    @property
    def line(self) -> ProjLine:
        return ProjLine(np.vstack([self.g0, self.g1]))

    @property
    def p0(self) -> HPlane:
        return HPlane(self.h2)

    @property
    def p1(self) -> HPlane:
        return HPlane(self.h3)

    def plane_covector(self, theta: float) -> np.ndarray:
        """Raw covector of plane(theta): cos(theta) h2 + sin(theta) h3."""
        return np.cos(theta) * self.h2 + np.sin(theta) * self.h3

    def origin(self, theta: float) -> np.ndarray:
        """Canonical unit chart origin in plane(theta): -sin(theta) h2 + cos(theta) h3.

        Antiperiodic: origin(theta + pi) = -origin(theta).
        """
        return -np.sin(theta) * self.h2 + np.cos(theta) * self.h3

    def plane_rows(self, thetas):
        """(covectors, origins): `plane_covector` and `origin` of every
        angle in thetas, as (k, 4) rows, from one vectorized cos and sin."""
        c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
        return c * self.h2 + s * self.h3, -s * self.h2 + c * self.h3

    def section_point(self, theta: float, u: float, v: float) -> np.ndarray:
        """Homogeneous point of plane(theta) with unit-chart coordinates (u, v)."""
        return self.origin(theta) + u * self.g0 + v * self.g1

    def chart_coords(self, theta: float, x: np.ndarray):
        """(u, v, lam) with x ~ lam * (origin(theta) + u g0 + v g1)."""
        x = np.asarray(x, dtype=float)
        lam = float(np.dot(x, self.origin(theta)))
        return float(np.dot(x, self.g0)) / lam, float(np.dot(x, self.g1)) / lam, lam

    def theta_of_point(self, x: np.ndarray) -> float:
        """Pencil parameter of the plane through L and the point x (mod pi)."""
        a = float(np.dot(np.asarray(x, dtype=float), self.h2))
        b = float(np.dot(np.asarray(x, dtype=float), self.h3))
        if a == 0.0 and b == 0.0:
            raise DegenerateInput("point lies on L; every pencil plane contains it")
        return float(np.arctan2(-a, b)) % PI

    def angle_of_l_point(self, t: np.ndarray) -> float:
        """Angle psi (mod pi) of a point t = cos(psi) g0 + sin(psi) g1 on L."""
        t = np.asarray(t, dtype=float)
        return float(np.arctan2(float(np.dot(t, self.g1)), float(np.dot(t, self.g0)))) % PI

    def off_l_distance(self, t: np.ndarray) -> float:
        """Relative magnitude of the component of t off the line L."""
        t = np.asarray(t, dtype=float)
        off = np.hypot(float(np.dot(t, self.h2)), float(np.dot(t, self.h3)))
        return off / max(float(np.linalg.norm(t)), 1e-300)

    def dual(self) -> "PencilFrame":
        """Frame of the dual pencil: planes of the dual space through L*.

        L* is spanned by the covectors h2, h3; the dual pencil's basis planes
        are the original L generators read as covectors on the dual space.
        Applying dual() twice returns the original frame.
        """
        other = "dual" if self.space == "primal" else "primal"
        return PencilFrame(self.h2, self.h3, self.g0, self.g1, other)


def pencil_plane(frame: PencilFrame, theta: float) -> HPlane:
    """Plane of the pencil at parameter theta; injective on [0, pi)."""
    return HPlane(frame.plane_covector(theta))


# ---------------------------------------------------------------------------
# Arcs on period-pi circles (pencil parameters and direction points on L)
# ---------------------------------------------------------------------------

def wrap_angle(x: float) -> float:
    return float(x) % PI


@dataclass(frozen=True)
class ArcSegment:
    """Closed arc traversed counterclockwise from start to end.

    Used both for pencil-parameter arcs and for arcs of direction points on
    L; both circles have period pi, so every arc does.
    """

    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", wrap_angle(self.start))
        object.__setattr__(self, "end", wrap_angle(self.end))
        if abs(self.start - self.end) < 1e-15:
            raise DegenerateInput("arc endpoints coincide")

    @property
    def length(self) -> float:
        return (self.end - self.start) % PI

    def contains(self, x: float, closed: bool = True, slack: float = 0.0) -> bool:
        d = (wrap_angle(x) - self.start) % PI
        if closed:
            return -slack <= d <= self.length + slack
        return slack < d < self.length - slack

    def complement(self) -> "ArcSegment":
        return ArcSegment(self.end, self.start)

    def __repr__(self):
        return "ArcSegment(%.6f -> %.6f)" % (self.start, self.end)


def dual_arc(arc: ArcSegment) -> ArcSegment:
    """Arc of dual parameters corresponding to an arc on L.

    A convex arc on a projective line is dual to the complement of the arc
    between the duals of its endpoints, which with the canonical frames is
    the same-endpoint arc traversed the other way.
    """
    return ArcSegment(arc.end, arc.start)
