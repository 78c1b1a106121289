import numpy as np
import pytest
from hypothesis import settings

from ccproj import DEFAULT_TOL, ConvexPolygon, PencilFrame, SectionFan, convex_hull, gen_quadric
from ccproj.projcore import PI

# print the reproduction blob of a failing example: a section's repr gives
# only its vertex count, so the falsifying example alone cannot be replayed.
# The default profile draws the same examples on every run; the "search"
# profile (pytest --hypothesis-profile=search) draws fresh ones
settings.register_profile("replayable", print_blob=True, derandomize=True)
settings.register_profile("search", print_blob=True)
settings.load_profile("replayable")


def mgon(radius, m, center=(0.0, 0.0), phase=0.0):
    a = phase + 2 * np.pi * np.arange(m) / m
    return convex_hull(np.stack([center[0] + radius * np.cos(a),
                                 center[1] + radius * np.sin(a)], axis=1))


def minkowski_oracle(a, P, b, Q, tol=DEFAULT_TOL):
    """`planar.minkowski_scaled_sum` as it was before its plans: every
    decision taken on the scaled operands, on every call."""
    if a < 0 or b < 0:
        raise ValueError("scalars must be nonnegative")
    if a == 0.0:
        return Q.scaled(b) if b != 1.0 else Q
    if b == 0.0:
        return P.scaled(a) if a != 1.0 else P
    vp, vq = (np.roll(v, -int(np.lexsort((v[:, 0], v[:, 1]))[0]), axis=0)
              for v in (P.vertices * float(a), Q.vertices * float(b)))
    start = vp[0] + vq[0]
    edges = np.vstack([np.roll(v, -1, axis=0) - v for v in (vp, vq) if len(v) > 1]
                      + [np.zeros((0, 2))])
    if len(edges) == 0:
        return ConvexPolygon(start)
    tiny = 1e-12  # radians
    ang = np.arctan2(edges[:, 1], edges[:, 0]) % (2.0 * PI)
    order = np.argsort(ang, kind="stable")
    ang, edges = ang[order], edges[order]
    heads = np.flatnonzero(np.diff(ang, prepend=-np.inf) > tiny)
    if len(heads) > 1 and ang[0] + 2.0 * PI - ang[-1] <= tiny:
        k = heads[-1]
        start = start - edges[k:].sum(axis=0)
        edges = np.roll(edges, len(edges) - k, axis=0)
        heads = np.concatenate(([0], heads[1:-1] + (len(edges) - k)))
    merged = np.add.reduceat(edges, heads, axis=0)
    pts = start + np.cumsum(merged[:-1], axis=0)
    return convex_hull(np.vstack([start, pts]), tol)


def quadric_fan(k=12, m=64, mode="inscribed"):
    return gen_quadric(k, m, mode).fan


def mark_validated(fan):
    return SectionFan(fan.frame, fan.thetas, fan.sections, validated=True)


def dir_normal(a):
    """Unit normal of the lines with direction angle a (mod pi)."""
    a = float(a) % PI
    return np.array([-np.sin(a), np.cos(a)])


def interior_points(arc, n):
    """n parameters strictly inside the arc, evenly spaced."""
    return (arc.start + (np.arange(n) + 1.0) / (n + 1.0) * arc.length) % PI


def merged_angles(angles, tol):
    """Sorted angles mod pi with each angle within tol of the last kept one
    (also across pi) dropped."""
    a = np.sort(np.asarray(angles, dtype=float) % np.pi)
    keep = list(a[:1])
    for x in a[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    if len(keep) > 1 and np.pi - keep[-1] + keep[0] <= tol:
        keep.pop()
    return np.array(keep)


def default_dual_params(fan, extra=None):
    """The former default dual sampling, kept for the probe oracles: a
    uniform grid of fan.k values, the fan's edge-direction classes (edge
    directions merged within 1e-9) when there are at most 16 of them, and
    the extra values.  It is exact only when the classes are included."""
    params = [np.arange(fan.k) * np.pi / fan.k]
    classes = merged_angles(fan.edge_angles(), 1e-9)
    if 0 < len(classes) <= 16:
        params.append(classes)
    if extra is not None:
        params.append(np.asarray(extra, dtype=float))
    return merged_angles(np.concatenate(params), 1e-10)


@pytest.fixture(scope="session")
def frame():
    return PencilFrame.standard()


@pytest.fixture(scope="session")
def quad12():
    return quadric_fan(12, 64)


@pytest.fixture(scope="session")
def quad8():
    return quadric_fan(8, 48)


@pytest.fixture(scope="session")
def oct_dirs():
    return np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])


@pytest.fixture(scope="session")
def oct_fan(quad12, oct_dirs):
    from ccproj import octagonalize
    return octagonalize(quad12, oct_dirs)
