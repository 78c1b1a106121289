"""Euler-characteristic section test.

For a plane pi and the body denoted by a fan, the section body-and-plane is
fibered over the pencil parameter; each fiber is a convex set or empty, so
the Euler characteristic of the whole section is 0 when no fiber is empty
(a full circle of parameters) and 1 when the empty set is a single open
arc.  The dichotomy doubles as a membership test for the dual body: chi = 0
exactly when the plane belongs to it.  Planes through L are excluded from
the dual by definition and always give chi = 1.  The test is exact: in
each sample gap the plane's emptiness margin is the larger of two
sinusoids in theta (fan.PlaneMargin), so the empty arcs and their ends,
the margin's zeros, have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualize import l_dual, point_in_fan
from .fan import THETA_EPS, SectionFan, plane_margin
from .projcore import (PI, DEFAULT_TOL, ArcSegment, GeometryError, HPlane,
                       Tolerances)


class NonIntervalEmptySet(GeometryError):
    """The empty parameter set has more than one arc: the fan is invalid."""


@dataclass(frozen=True)
class ChiReport:
    """chi in {0, 1}; membership (in the dual body) holds iff chi = 0."""

    chi: int
    empty_arc: ArcSegment | None
    membership: bool
    pencil_plane: bool = False


def chi_section(fan: SectionFan, pi, tol: Tolerances = DEFAULT_TOL) -> ChiReport:
    """Euler characteristic of the plane section of the denoted body.

    The margin exceeds eps = 1e-12 * (largest |margin| at the samples and
    branch peaks) on closed-form sub-arcs, at most one per branch and gap.
    Sub-arcs that meet at a sample or across the wrap are joined; of
    several arcs, those peaking within 1e3 * eps of zero are dropped as
    noise.  The reported arc runs between the margin's zeros at its ends.
    Raises NonIntervalEmptySet when more than one arc remains, which
    signals an invalid fan, or when the plane misses every section.
    """
    xi = pi.coeffs if isinstance(pi, HPlane) else np.asarray(pi, dtype=float)
    frame = fan.frame
    nu_norm = np.hypot(float(xi @ frame.g0), float(xi @ frame.g1))
    if nu_norm <= tol.eps_incid * float(np.max(np.abs(xi))):
        return ChiReport(chi=1, empty_arc=None, membership=False, pencil_plane=True)

    m = plane_margin(fan, xi)
    peaks = m.peaks()
    eps = 1e-12 * max(float(np.max(np.abs(np.max(m.alpha, axis=1)))),
                      float(np.max(peaks)), 1e-30)
    g, b = np.nonzero(peaks > eps)
    phase = m.phase[g, b]
    half = np.arccos(eps / m.amp[g, b])
    t0 = m.t0[g]
    # one row per sub-arc: start, end, peak margin and the branch's crest,
    # which has the zeros of the branch pi/2 before and after it
    rows = np.stack([t0 + np.maximum(phase - half, 0.0),
                     t0 + np.minimum(phase + half, m.span[g]),
                     peaks[g, b], t0 + phase], axis=1)
    arcs = []  # joined sub-arcs: [start, end, peak, first crest, last crest]
    for start, end, peak, crest in rows[np.argsort(rows[:, 0])].tolist():
        if arcs and start <= arcs[-1][1] + THETA_EPS:
            arcs[-1][1:3] = [end, max(arcs[-1][2], peak)]
            arcs[-1][4] = crest
        else:
            arcs.append([start, end, peak, crest, crest])
    if len(arcs) == 1 and arcs[0][1] - arcs[0][0] >= PI - THETA_EPS:
        raise NonIntervalEmptySet("plane misses every section; the fan denotes "
                                  "no body over this pencil")
    if len(arcs) > 1 and arcs[0][0] + PI <= arcs[-1][1] + THETA_EPS:  # across the wrap
        first = arcs.pop(0)
        arcs[-1][2], arcs[-1][4] = max(arcs[-1][2], first[2]), first[4]
    if len(arcs) > 1:
        arcs = [a for a in arcs if a[2] > 1e3 * eps]
    if len(arcs) == 0:
        return ChiReport(chi=0, empty_arc=None, membership=True)
    if len(arcs) > 1:
        raise NonIntervalEmptySet("empty parameter set has %d arcs" % len(arcs))
    arc = ArcSegment(arcs[0][3] - 0.5 * PI, arcs[0][4] + 0.5 * PI)
    return ChiReport(chi=1, empty_arc=arc, membership=False)


@dataclass(frozen=True)
class ChiCrossReport:
    total: int
    in_band: int
    mismatches: tuple
    agreement_rate: float


def chi_dual_crosscheck(fan: SectionFan, planes, tol: Tolerances = DEFAULT_TOL,
                        band: float = 5e-2, dual_fan: SectionFan = None) -> ChiCrossReport:
    """Compare chi-membership with direct point membership in the dual fan.

    Planes whose dual-chart margin is within band * (dual diameter) of the
    boundary are excluded (boundary-case policy); outside the band the two
    answers must agree.
    """
    dual = dual_fan if dual_fan is not None else l_dual(fan, tol=tol)
    dscale = max(dual.diameter(), 1e-30)
    mismatches = []
    in_band = 0
    total = 0
    for p in planes:
        xi = p.coeffs if isinstance(p, HPlane) else np.asarray(p, dtype=float)
        total += 1
        rep = chi_section(fan, xi, tol)
        if rep.pencil_plane:
            in_band += 1
            continue
        try:
            inside, margin, _ = point_in_fan(dual, xi, tol)
        except GeometryError:
            in_band += 1
            continue
        if abs(margin) <= band * dscale:
            in_band += 1
            continue
        if rep.membership != inside:
            mismatches.append((np.asarray(xi, dtype=float), rep.membership, inside, margin))
    outside = total - in_band
    rate = 1.0 if outside == 0 else 1.0 - len(mismatches) / outside
    return ChiCrossReport(total, in_band, tuple(mismatches), rate)
