"""Euler-characteristic section test.

For a plane pi and the body denoted by a fan, the section body-and-plane is
fibered over the pencil parameter; each fiber is a convex set or empty, so
the Euler characteristic of the whole section is 0 when no fiber is empty
(a full circle of parameters) and 1 when the empty set is a single open
arc.  The dichotomy doubles as a membership test for the dual body: chi = 0
exactly when the plane belongs to it.  Planes through L are excluded from
the dual by definition and always give chi = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualize import l_dual, point_in_fan
from .fan import SectionFan, plane_margins
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


CHI_GRID = 512
CHI_REFINE = 1e-9


def chi_section(fan: SectionFan, pi, tol: Tolerances = DEFAULT_TOL) -> ChiReport:
    """Euler characteristic of the plane section of the denoted body.

    Scans the emptiness pattern of the per-parameter fiber on a CHI_GRID-point
    theta grid (plus the sample parameters), requiring the empty set to be a
    single open arc or empty; arc endpoints are refined by bisection to
    CHI_REFINE.  Raises NonIntervalEmptySet when more than one empty arc is
    found, which signals an invalid fan.
    """
    xi = pi.coeffs if isinstance(pi, HPlane) else np.asarray(pi, dtype=float)
    frame = fan.frame
    nu_norm = np.hypot(float(xi @ frame.g0), float(xi @ frame.g1))
    if nu_norm <= tol.eps_incid * float(np.max(np.abs(xi))):
        return ChiReport(chi=1, empty_arc=None, membership=False, pencil_plane=True)

    margins = plane_margins(fan, xi)
    grid = np.sort(np.concatenate([np.arange(CHI_GRID) * PI / CHI_GRID, fan.thetas]))
    marg = margins(grid)
    scale = max(float(np.max(np.abs(marg))), 1e-30)
    eps = 1e-12 * scale
    empty = marg > eps
    if not np.any(empty):
        return ChiReport(chi=0, empty_arc=None, membership=True)
    if np.all(empty):
        raise NonIntervalEmptySet("plane misses every section; the fan denotes "
                                  "no body over this pencil")

    # circular runs of the empty mask
    n = len(grid)
    starts = [i for i in range(n) if empty[i] and not empty[i - 1]]
    if len(starts) != 1:
        # discard flicker runs whose peak margin is within noise of zero
        real = []
        for s in starts:
            i = s
            peak = -np.inf
            while empty[i % n]:
                peak = max(peak, marg[i % n])
                i += 1
            if peak > 1e3 * eps:
                real.append(s)
        starts = real
    if len(starts) == 0:
        return ChiReport(chi=0, empty_arc=None, membership=True)
    if len(starts) > 1:
        raise NonIntervalEmptySet("empty parameter set has %d arcs" % len(starts))

    s = starts[0]
    e = s
    while empty[e % n]:
        e += 1
    # bisection refinement of the two sign changes
    def margin_of(theta: float) -> float:
        return float(margins(np.array([theta]))[0])

    def bisect(t_out: float, t_in: float) -> float:
        # margin(t_out) <= 0 < margin(t_in)
        for _ in range(80):
            mid = 0.5 * (t_out + t_in)
            if margin_of(mid) > 0.0:
                t_in = mid
            else:
                t_out = mid
            if abs(t_in - t_out) <= CHI_REFINE:
                break
        return 0.5 * (t_out + t_in)

    t_start = bisect(grid[s - 1] if s > 0 else grid[n - 1] - PI, grid[s])
    t_end = bisect(grid[e % n] + (PI if e >= n else 0.0), grid[(e - 1) % n])
    arc = ArcSegment(t_start, t_end)
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
