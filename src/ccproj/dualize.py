"""Duality for section fans: each plane meeting every section of the body
becomes a point of the dual body, fibered over the dual pencil.

For a fan over the line L, the dual body lives in the dual projective space
over L* (the planes containing L).  Its section at the dual pencil
parameter psi is computed from the projection profile at the center of L
at angle psi: the closure of the projection complement equals the
convex hull of the profile-segment endpoints (exact for hull-interpolated
fans), and the dual section is the polar dual of that hull around the
marked point, with the orientation flip of the dual chart.  l_dual
samples the dual at the source's event_angles, where the dual fan denotes
the dual body exactly (see l_dual), so the double dual returns the source.

Pure functions on immutable fans.  Per-center sections are independent,
ordered by parameter and computed in one stacked pass over all centers
(_dual_sections), bit-identical to computing them one at a time.
"""

from __future__ import annotations

import numpy as np

from . import planar
from .fan import (SectionFan, THETA_EPS, _distinct_angles, event_angles, hull_slice,
                  in_unwrapped_chart, is_pointed, plane_margin, profile_stars, section_at,
                  validate)
from .planar import ConvexPolygon, convex_hull, hausdorff, polar_dual
from .projcore import (PI, DEFAULT_TOL, ArcSegment, GeometryError, PencilFrame,
                       ProjLine, Tolerances, dual_arc, dual_line, wrap_angle)


class InvalidInput(GeometryError):
    """Operation requires a fan that passes validation."""


class IntersectsDualL(GeometryError):
    """Line meets the dual pencil line L*, so it has no transversal dual."""


# ---------------------------------------------------------------------------
# Dual sections
# ---------------------------------------------------------------------------

def _dual_sections(fan: SectionFan, params, tol: Tolerances) -> list:
    """Dual sections at the centers params on L, in one stacked pass.

    Per center psi: the straddle test and the profile star polygon
    (`fan.profile_stars`, the projection profile of `project_from`), the
    hull of its 2k endpoints, the polar dual around the marked point and
    the chart's point reflection.  Both hulls are taken by
    `planar._convex_cycle` on the whole (P, 2k, 2) stack, and every other
    step is elementwise or a reduction along one row, in the float
    operations of `convex_hull`, `polar_dual` and `negated`, so each
    certified section equals the per-center result bit for bit.  Rows
    either certificate declines run through those functions themselves.
    """
    straddle, stars = profile_stars(fan, np.array([wrap_angle(float(p)) for p in params]), tol)
    if not straddle.all():
        raise InvalidInput(
            "projection from psi=%.6f does not surround the marked point; "
            "the fan is outside the validated envelope" % params[np.argmin(straddle)])
    scale = np.maximum(1.0, np.max(np.abs(stars), axis=(1, 2)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # declined rows
        ok, v = planar._convex_cycle(stars, tol.eps_convex * scale)
        # interior_margin at the origin: the least offset of the unit edge
        # normals; then the polar dual vertex of every edge
        ok &= np.min(planar._edge_halfplanes(v)[1], axis=1) > tol.eps_convex * scale
        w = np.roll(v, -1, axis=1)
        det = v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]
        xi = np.stack([(w[..., 1] - v[..., 1]) / det, (v[..., 0] - w[..., 0]) / det], axis=2)
        dual_ok, dual = planar._convex_cycle(
            xi, tol.eps_convex * np.maximum(1.0, np.max(np.abs(xi), axis=(1, 2))))
    dual = -dual  # negated: the point reflection, rotated to the lexicographic minimum
    first = np.lexsort((dual[..., 1], dual[..., 0]))[:, :1]
    dual = dual[np.arange(len(dual))[:, None], (first + np.arange(dual.shape[1])) % dual.shape[1]]
    return [ConvexPolygon(d) if good
            else polar_dual(convex_hull(star, tol), np.zeros(2), tol).negated()
            for good, d, star in zip(ok & dual_ok, dual, stars)]


def _ensure_valid(fan: SectionFan, tol: Tolerances):
    if fan.validated:
        return
    report = validate(fan, tol)
    if not report.ok:
        raise InvalidInput("fan fails validation: %s" % "; ".join(report.messages[:3]))


def l_dual(fan: SectionFan, dual_params=None, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Dual fan over L*: sections are the duals of the projection complements.

    dual_params selects the dual pencil parameters to sample, taken mod pi
    with runs closer than THETA_EPS kept once; by default the fan's
    event_angles.  Between two event angles every support value of the
    source is one fixed sinusoid, so each dual section is cut by half-planes
    with fixed normals and offsets linear in (cos psi, sin psi), and it is
    the hull interpolation of the dual sections at both ends: the default
    dual denotes the dual body exactly.  The result is marked validated:
    duality preserves convex-concavity.  An input not marked validated is
    validated first.
    """
    _ensure_valid(fan, tol)
    params = event_angles(fan) if dual_params is None else _distinct_angles(dual_params)
    return SectionFan(fan.frame.dual(), params, tuple(_dual_sections(fan, params, tol)),
                      validated=True)


def involution_residual(fan: SectionFan, tol: Tolerances = DEFAULT_TOL):
    """Per-section Hausdorff distances between the fan and its double dual.

    The second dual is sampled at the source parameters, so sections are
    compared in identical charts.  Returns (per-sample distances, max).
    """
    d1 = l_dual(fan, tol=tol)
    d2 = l_dual(d1, dual_params=fan.thetas, tol=tol)
    if len(d2.thetas) != fan.k or np.max(np.abs(d2.thetas - fan.thetas)) > 1e-9:
        raise GeometryError("double dual sampling misaligned")
    dists = np.array([hausdorff(fan.sections[i], d2.sections[i])
                      for i in range(fan.k)])
    return dists, float(np.max(dists))


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def point_in_fan(fan: SectionFan, x, tol: Tolerances = DEFAULT_TOL):
    """(inside, margin, theta) for a homogeneous point of the fan's space.

    margin is the signed chart distance to the section boundary at the
    point's pencil parameter: positive inside, negative outside.
    """
    coords = x.coords if hasattr(x, "coords") else np.asarray(x, dtype=float)
    frame = fan.frame
    theta = frame.theta_of_point(coords)
    section = section_at(fan, theta, tol)
    u, v, lam = frame.chart_coords(theta, coords)
    p = np.array([u, v])
    d = planar.distance(p, section)
    if d > 0.0:
        return False, -d, theta
    return True, max(planar.interior_margin(section, p), 0.0), theta


def plane_meets_all_sections(fan: SectionFan, covector, tol: Tolerances = DEFAULT_TOL):
    """Direct check that a plane meets every section of the denoted body.

    Returns (meets_all, worst_margin) where worst_margin is minus the exact
    maximum of the emptiness margin (fan.PlaneMargin) over all parameters,
    negative when the plane misses some section.
    """
    worst = -float(np.max(plane_margin(fan, np.asarray(covector, dtype=float)).peaks()))
    return worst >= -tol.eps_incid, worst


# ---------------------------------------------------------------------------
# Affine dependence on parameter and its duality with pointedness
# ---------------------------------------------------------------------------

def affine_dependence_check(fan: SectionFan, arc: ArcSegment, t_dir=None,
                            tol: Tolerances = DEFAULT_TOL, eps: float = None) -> bool:
    """True when sections over the arc are the Minkowski interpolation of the
    arc-endpoint sections, compared at the samples strictly inside the arc:
    between two consecutive breakpoints both sides interpolate their own
    sections there with the same weights, and support functions are linear
    in them, so agreement at the breakpoints is agreement everywhere
    (within eps / cos(gap / 2), the largest weight sum).

    With t_dir (a point on L, as an angle or 4-vector), only the projection
    onto that direction is compared, realizing the one-dimensional reduction
    of affine dependence along a single hyperplane of L.
    """
    if arc.length >= PI - THETA_EPS:
        raise ValueError("arc must be proper")
    scale = fan.scale()
    if eps is None:
        eps = tol.eps_affine * scale
    ta = arc.start
    tb = ta + arc.length
    Sa = in_unwrapped_chart(section_at(fan, ta, tol), ta)
    Sb = in_unwrapped_chart(section_at(fan, tb, tol), tb)
    probes = [float(t) for t in fan.thetas if arc.contains(float(t), closed=False)]
    if t_dir is not None:
        psi = (float(t_dir) if isinstance(t_dir, (int, float))
               else fan.frame.angle_of_l_point(np.asarray(t_dir, dtype=float)))
        func = np.array([-np.sin(psi), np.cos(psi)])
    for t in probes:
        tu = t if t >= ta - THETA_EPS else t + PI
        expected = hull_slice(ta, Sa, tb, Sb, tu, tol)
        actual = in_unwrapped_chart(section_at(fan, tu, tol), tu)
        if t_dir is None:
            if hausdorff(expected, actual) > eps:
                return False
        else:
            elo, ehi = expected.support_interval(func)
            alo, ahi = actual.support_interval(func)
            if max(abs(elo - alo), abs(ehi - ahi)) > eps:
                return False
    return True


def pointedness_duality_check(fan: SectionFan, arc: ArcSegment,
                              tol: Tolerances = DEFAULT_TOL, eps: float = None):
    """Check that each section's pointedness w.r.t. the arc on L agrees with
    affine dependence of the dual fan over the dual arc, in the direction
    dual to that section's plane.

    Returns (all_agree, per-sample list of (pointed, dual_affine)).
    """
    darc = dual_arc(arc)
    dfan = l_dual(fan, tol=tol)
    rows = []
    agree = True
    for i in range(fan.k):
        pointed = is_pointed(fan.sections[i], arc, tol) is not None
        affine = affine_dependence_check(dfan, darc, t_dir=float(fan.thetas[i]),
                                         tol=tol, eps=eps)
        rows.append((pointed, affine))
        agree = agree and (pointed == affine)
    return agree, rows


# ---------------------------------------------------------------------------
# Lines across duality
# ---------------------------------------------------------------------------

def dual_of_found_line(l: ProjLine, dual_frame: PencilFrame = None,
                       tol: Tolerances = DEFAULT_TOL) -> ProjLine:
    """Annihilator of a line found in the dual space.

    If the input lies inside a dual fan, the output lies inside the source
    fan (certifiable with transversal.certify_line).  Raises IntersectsDualL
    when the line meets L* and therefore degenerates.
    """
    if dual_frame is not None:
        lstar = np.vstack([dual_frame.g0, dual_frame.g1])
        stacked = np.vstack([l.span, lstar])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= tol.eps_rank * sv[0] * 1e3:
            raise IntersectsDualL("line meets the dual pencil line L*")
    return dual_line(l, tol)


# ---------------------------------------------------------------------------
# Containment order
# ---------------------------------------------------------------------------

def fan_contains_sectionwise(outer: SectionFan, inner: SectionFan, eps: float) -> bool:
    """True when inner's section sits inside outer's at every parameter
    (both fans over the same frame), decided at the samples of either fan:
    between two of them both interpolate their sections there with the same
    weights, which keep containment (eps grows at most by 1 / cos(gap / 2))."""
    for t in np.union1d(inner.thetas, outer.thetas):
        si = section_at(inner, float(t))
        so = section_at(outer, float(t))
        if not planar.contains_polygon(so, si, eps):
            return False
    return True
