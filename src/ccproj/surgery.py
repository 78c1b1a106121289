"""Surgeries on section fans.

Two families: hull interpolation between two pencil planes (replacing the
body between them by the convex hull of the boundary sections), and
pointing every section with respect to an arc on L (growing each section to
the smallest superset pointed for that arc).  Octagonalization circumscribes
every section by the intersection of its four support slabs for four fixed
direction classes; it equals the composition of the four pointing surgeries
for the complementary arcs.

Pointing and octagonalization are closed forms in support data, taken for
the whole fan at once.  A pointed section is its cycle with the two
admissible tangent-quadrangle corners (from the support intervals along the
arc's endpoint normals) spliced in, each replacing the run of edges it
sees.  Octagon vertex j is where slab sides j and j + 1 meet, found from
their support points.  `planar._convex_cycle` certifies the results in
stacks; only the rows it declines run the hull chain.

Both surgeries preserve convex-concavity, so outputs inherit the input's
validated flag.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import planar
from .dualize import l_dual
from .fan import SectionFan, THETA_EPS, section_at, support_intervals
from .planar import ConvexPolygon, convex_hull, hausdorff
from .projcore import (PI, DEFAULT_TOL, ArcSegment, DegenerateInput, GeometryError,
                       Tolerances, dual_arc, wrap_angle)


class DuplicateDirections(GeometryError):
    """Octagonalization requires four distinct direction classes."""


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
    kept = [i for i, t in enumerate(fan.thetas)
            if not arc.contains(float(t), closed=False, slack=THETA_EPS * 10)]
    # by the arc's measure a removed sample lies more than THETA_EPS * 10
    # inside, but sample_index_at rounds differently and can still name it
    # at an endpoint: only a kept sample stands for the endpoint
    new = [(float(fan.thetas[i]), fan.sections[i]) for i in kept]
    new += [(e, section_at(fan, e, tol)) for e in (arc.start, arc.end)
            if fan.sample_index_at(e) not in kept]
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
    arc's endpoint directions) whose support cones avoid the open arc, each
    in place of the run of edges it sees (`planar.hulls_with_corners`).
    """
    corners = planar.tangent_quadrangle_corners(section, arc.start, arc.end, tol)
    return planar.hulls_with_corners(section.vertices, [0], corners[None], tol)[0]


def surgery_p(fan: SectionFan, arc: ArcSegment, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Point every sample section with respect to the arc on L: `pointify`
    on the whole fan, its corners from one `support_intervals` call."""
    corners = planar.quadrangle_corners(
        lambda nrm: support_intervals(fan, nrm).transpose(1, 0, 2), arc.start, arc.end, tol)
    new = planar.hulls_with_corners(*fan.vertex_stack[:2], corners, tol)
    return SectionFan(fan.frame, fan.thetas, new, validated=fan.validated)


# ---------------------------------------------------------------------------
# Octagonalization
# ---------------------------------------------------------------------------

def _oct_angles(dirs) -> np.ndarray:
    angles = np.sort([wrap_angle(float(d)) for d in dirs])
    if len(angles) != 4:
        raise DuplicateDirections("exactly four direction classes required")
    if np.min(np.diff(np.concatenate([angles, [angles[0] + PI]]))) <= 1e-9:
        raise DuplicateDirections("direction classes must be distinct")
    return angles


def _octagons(verts: np.ndarray, starts, angles: np.ndarray, tol: Tolerances) -> list:
    """Support octagons of the cycles stacked in verts (section i from row
    starts[i]) for four sorted angles.  The 8 slab sides, with outward
    normals s_j (n_i, then -n_i), touch the section at support points p_j:
    vertex j is p_j + t (ccw direction of side j), t = s_{j+1} . (p_{j+1} -
    p_j) / sin(gap) >= 0, exact where p_{j+1} = p_j even for nearly
    parallel sides, where support values would lose it.  Vertices tying
    for the float max of s_j . v (both ends of a short edge on a nearly
    parallel side, say) yield their exact max, the first on exact ties."""
    sides = np.array([[-np.sin(a), np.cos(a)] for a in angles])
    sides = np.concatenate([sides, -sides])
    vals, counts = verts @ sides.T, np.diff(np.append(starts, len(verts)))
    top = vals == np.repeat(np.maximum.reduceat(vals, starts), counts, 0)
    first = np.minimum.reduceat(np.where(top, np.arange(len(verts))[:, None], len(verts)), starts)
    for i, j in zip(*np.nonzero(np.add.reduceat(top.astype(int), starts) > 1)):
        tied = starts[i] + np.flatnonzero(top[starts[i]:starts[i] + counts[i], j])
        first[i, j] = max(tied, key=lambda r: sum(Fraction(a) * Fraction(x)
                                                  for a, x in zip(sides[j], verts[r])))
    p = verts[first]
    nxt, step = np.roll(sides, -1, axis=0), np.roll(p, -1, axis=1) - p
    sin_gap = [float(Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c))  # no cancellation
               for (a, b), (c, d) in zip(sides, nxt)]
    t = (step[..., 0] * nxt[:, 0] + step[..., 1] * nxt[:, 1]) / np.array(sin_gap)
    pts = p + t[..., None] * np.stack([-sides[:, 1], sides[:, 0]], axis=-1)
    dup = np.all(pts == np.roll(pts, -1, axis=1), axis=-1)  # one support point, 3 sides
    out = planar._certified_cycles(pts[~dup], 8 - dup.sum(axis=1),
                                   tol.eps_convex * np.maximum(1.0, np.abs(pts).max(axis=(1, 2))))
    return [convex_hull(q, tol) if o is None else o for o, q in zip(out, pts)]


def octagonalize_section(section: ConvexPolygon, angles,
                         tol: Tolerances = DEFAULT_TOL) -> ConvexPolygon:
    """Intersection of the section's support slabs for the given directions."""
    return _octagons(section.vertices, [0], _oct_angles(angles), tol)[0]


def octagonalize(fan: SectionFan, dirs, tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Circumscribe every section by its four-direction support octagon.

    The 8 vertices of every section come from its support points in one
    pass (`_octagons`); repeats (one section vertex supporting consecutive
    sides) are dropped, `planar._convex_cycle` certifies the rest in
    stacks, and a row it declines (a segment, a point) takes the hull of
    its 8 points.  Equal (within arithmetic) to composing the four
    pointing surgeries for the complementary arcs between consecutive
    directions; each output section has at most 8 edges with directions
    among dirs and contains the input section.
    """
    angles = _oct_angles(dirs)
    new = _octagons(*fan.vertex_stack[:2], angles, tol)
    return SectionFan(fan.frame, fan.thetas, tuple(new), validated=fan.validated)


def octagonalize_via_pointing(fan: SectionFan, dirs,
                              tol: Tolerances = DEFAULT_TOL) -> SectionFan:
    """Octagonalization as the composition of four pointing surgeries.

    For consecutive directions a_i, a_{i+1} (cyclic), the surgery arc is the
    complement of the short arc between them.
    """
    angles, out = _oct_angles(dirs), fan
    for i in range(4):
        out = surgery_p(out, ArcSegment(angles[(i + 1) % 4], angles[i]), tol)
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
    distance over all parameters.  Returns (ok, that distance).  A fan not
    marked validated is validated first (by l_dual).
    """
    lhs = l_dual(surgery_p(fan, arc, tol), tol=tol)
    rhs = surgery_s(l_dual(fan, tol=tol), dual_arc(arc), tol)
    worst = max(hausdorff(section_at(lhs, float(t), tol), section_at(rhs, float(t), tol))
                for t in np.union1d(lhs.thetas, rhs.thetas))
    if eps is None:
        eps = tol.eps_dual * max(lhs.scale(), 1.0)
    return worst <= eps, worst
