"""Surgeries on section fans.

Two families: hull interpolation between two pencil planes (replacing the
body between them by the convex hull of the boundary sections), and
pointing every section with respect to an arc on L (growing each section to
the smallest superset pointed for that arc).  Octagonalization circumscribes
every section by the intersection of its four support slabs for four fixed
direction classes; it equals the composition of the four pointing surgeries
for the complementary arcs.

Both surgeries preserve convex-concavity, so outputs inherit the input's
validated flag.
"""

from __future__ import annotations

import numpy as np

from . import planar
from .dualize import l_dual
from .fan import SectionFan, THETA_EPS, section_at
from .planar import ConvexPolygon, convex_hull, hausdorff
from .projcore import (PI, DEFAULT_TOL, ArcSegment, DegenerateInput, GeometryError,
                       Tolerances, dual_arc, wrap_angle)
from dataclasses import dataclass


class DegenerateQuadrangle(GeometryError):
    """Arc endpoints give a single direction class; no tangent quadrangle."""


class DuplicateDirections(GeometryError):
    """Octagonalization requires four distinct direction classes."""


@dataclass(frozen=True)
class SurgerySpec:
    """kind 'S' (arc on the pencil parameter) or 'P' (arc on L)."""

    kind: str
    arc: ArcSegment

    def __post_init__(self):
        if self.kind not in ("S", "P"):
            raise ValueError("kind must be 'S' or 'P'")

    def apply(self, fan: SectionFan, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
        if self.kind == "S":
            return surgery_s(fan, self.arc, tol)
        return surgery_p(fan, self.arc, tol)


# ---------------------------------------------------------------------------
# Hull surgery on a pencil arc
# ---------------------------------------------------------------------------

def surgery_s(fan: SectionFan, arc: ArcSegment, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Replace the body over the arc by the hull of the two boundary sections.

    Samples strictly inside the arc are removed and samples at the arc
    endpoints are inserted (computed by section_at), so the result's
    interpolation denotes exactly the surgered body.  Idempotent for a fixed
    arc.
    """
    if arc.length >= PI - THETA_EPS:
        raise DegenerateInput("surgery arc must be proper")
    keep = [(float(t), s) for t, s in zip(fan.thetas, fan.sections)
            if not arc.contains(float(t), closed=False, slack=THETA_EPS * 10)]
    new = list(keep)
    for endpoint in (arc.start, arc.end):
        if all(abs(endpoint - t) > THETA_EPS * 10
               and PI - abs(endpoint - t) > THETA_EPS * 10 for t, _ in keep):
            new.append((endpoint, section_at(fan, endpoint, tol)))
    if len(new) < 3:
        raise DegenerateInput("surgery would leave fewer than 3 samples")
    return SectionFan.create(fan.frame, new, validated=fan.validated)


# ---------------------------------------------------------------------------
# Pointing surgery on an arc of L
# ---------------------------------------------------------------------------

def pointify(section: ConvexPolygon, arc: ArcSegment,
             tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Smallest convex superset of the section pointed w.r.t. the arc on L.

    Adds the two corners of the tangent quadrangle (support lines with the
    arc's endpoint directions) whose support cones avoid the open arc.
    """
    try:
        corners, degen = planar.tangent_quadrangle_corners(
            section, arc.start, arc.end, tol)
    except DegenerateInput as exc:
        raise DegenerateQuadrangle(str(exc)) from exc
    return convex_hull(np.vstack([section.vertices, corners]), tol)


def pointify_vertices(section: ConvexPolygon, arc: ArcSegment,
                      tol: Tolerances = DEFAULT_TOL):
    """The two vertices that pointify would add (the admissible corners)."""
    try:
        corners, _ = planar.tangent_quadrangle_corners(
            section, arc.start, arc.end, tol)
    except DegenerateInput as exc:
        raise DegenerateQuadrangle(str(exc)) from exc
    return corners


def surgery_p(fan: SectionFan, arc: ArcSegment, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Point every sample section with respect to the arc on L."""
    new = tuple(pointify(s, arc, tol) for s in fan.sections)
    return SectionFan(fan.frame, fan.thetas, new, validated=fan.validated)


# ---------------------------------------------------------------------------
# Octagonalization
# ---------------------------------------------------------------------------

def _dir_angles(dirs) -> np.ndarray:
    out = []
    for d in dirs:
        out.append(d.angle if isinstance(d, planar.DirPoint) else wrap_angle(float(d)))
    return np.array(out)


def octagonalize_section(section: ConvexPolygon, angles,
                         tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Intersection of the section's support slabs for the given directions."""
    angles = np.asarray(angles, dtype=float)
    halfplanes = []
    for a in angles:
        sl = planar.support_lines_through(section, float(a), tol)
        halfplanes.append((sl.normal, sl.c_high))
        halfplanes.append((-sl.normal, -sl.c_low))
    c = section.centroid()
    r = 4.0 * max(section.diameter(), section.scale)
    seed = np.array([[c[0] - r, c[1] - r], [c[0] + r, c[1] - r],
                     [c[0] + r, c[1] + r], [c[0] - r, c[1] + r]])
    out = planar.intersect_halfplanes(halfplanes, seed, tol)
    if out is None:
        raise GeometryError("slab intersection is empty")
    return out


def octagonalize(fan: SectionFan, dirs, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Circumscribe every section by its four-direction support octagon.

    Equal (within arithmetic) to composing the four pointing surgeries for
    the complementary arcs between consecutive directions; each output
    section has at most 8 edges with directions among dirs and contains the
    input section.
    """
    angles = np.sort(_dir_angles(dirs))
    if len(angles) != 4:
        raise DuplicateDirections("exactly four direction classes required")
    gaps = np.diff(np.concatenate([angles, [angles[0] + PI]]))
    if np.min(gaps) <= 1e-9:
        raise DuplicateDirections("direction classes must be distinct")
    new = tuple(octagonalize_section(s, angles, tol) for s in fan.sections)
    return SectionFan(fan.frame, fan.thetas, new, validated=fan.validated)


def octagonalize_via_pointing(fan: SectionFan, dirs,
                              tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Octagonalization as the composition of four pointing surgeries.

    For consecutive directions a_i, a_{i+1} (cyclic), the surgery arc is the
    complement of the short arc between them.
    """
    angles = np.sort(_dir_angles(dirs))
    if len(angles) != 4:
        raise DuplicateDirections("exactly four direction classes required")
    out = fan
    for i in range(4):
        a = angles[i]
        b = angles[(i + 1) % 4]
        out = surgery_p(out, ArcSegment(b, a), tol)
    return out


# ---------------------------------------------------------------------------
# Duality of the two surgeries
# ---------------------------------------------------------------------------

def sp_duality_check(fan: SectionFan, arc: ArcSegment, tol: Tolerances = DEFAULT_TOL,
                     eps: float = None):
    """Check that dualizing the pointed fan equals hull surgery on the dual.

    Compares l_dual(surgery_p(fan, arc)) with surgery_s(l_dual(fan), arc*),
    arc* the dual arc, at the samples of either fan: both duals are exact
    and between two samples both sides interpolate their sections there
    with the same weights, so this is the largest sectionwise Hausdorff
    distance over all parameters.  Returns (ok, that distance).
    """
    lhs = l_dual(surgery_p(fan, arc, tol), tol=tol, check_input=False)
    rhs = surgery_s(l_dual(fan, tol=tol, check_input=False), dual_arc(arc), tol)
    worst = max(hausdorff(section_at(lhs, float(t), tol), section_at(rhs, float(t), tol))
                for t in np.union1d(lhs.thetas, rhs.thetas))
    if eps is None:
        eps = tol.eps_dual * max(lhs.scale(), 1.0)
    return worst <= eps, worst
