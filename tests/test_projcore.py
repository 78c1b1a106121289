import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccproj import (ArcSegment, DegenerateInput, HPlane, HPoint, PencilFrame,
                    ProjLine, Tolerances, canonicalize, dual_arc, dual_line, incident,
                    join_points, meet_line_plane, meet_planes, pencil_plane)
from ccproj.projcore import PI


def test_canonicalize_basic():
    out = canonicalize([0.0, -2.0, 4.0, 0.0])
    assert np.array_equal(out, [0.0, 0.5, -1.0, 0.0])
    with pytest.raises(DegenerateInput):
        canonicalize([0.0, 0.0, 0.0, 0.0])


def _normal_floats():
    # keep magnitudes well inside the normal range so dyadic scaling is exact
    return st.floats(-1e6, 1e6, allow_nan=False).filter(
        lambda x: x == 0.0 or abs(x) > 1e-20)


@given(st.integers(-20, 20), st.lists(_normal_floats(), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_canonicalize_exact_under_dyadic_rescaling(k, vals):
    v = np.array(vals)
    if not np.any(v):
        return
    s = float(2.0 ** k)
    for sign in (s, -s):
        assert np.array_equal(canonicalize(sign * v), canonicalize(v))


def test_point_plane_canonical_form():
    p = HPoint.of(2.0, -4.0, 0.0, 1.0)
    # max-magnitude component has absolute value 1, first nonzero positive
    assert np.max(np.abs(p.coords)) == 1.0
    nz = p.coords[p.coords != 0.0]
    assert nz[0] > 0.0


@given(st.integers(-20, 20),
       st.lists(_normal_floats(), min_size=4, max_size=4),
       st.lists(_normal_floats(), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_incidence_invariant_under_dyadic_rescaling(k, pv, cv):
    p = np.array(pv)
    c = np.array(cv)
    if not np.any(p) or not np.any(c):
        return
    s = float(2.0 ** k)
    a = incident(HPoint(p), HPlane(c))
    assert incident(HPoint(s * p), HPlane(c)) == a
    assert incident(HPoint(-p), HPlane(s * c)) == a


def test_join_meet_examples():
    l = join_points(HPoint.of(1, 0, 0, 0), HPoint.of(0, 1, 0, 0))
    lref = ProjLine(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]))
    assert l.same_as(lref)
    l2 = meet_planes(HPlane.of(0, 0, 1, 0), HPlane.of(0, 0, 0, 1))
    assert l2.same_as(lref)
    p = meet_line_plane(lref, HPlane.of(1, 0, 0, 0))
    assert p.same_as(HPoint.of(0, 1, 0, 0))


def test_join_meet_degenerate():
    with pytest.raises(DegenerateInput):
        join_points(HPoint.of(1, 2, 3, 4), HPoint.of(2, 4, 6, 8))
    with pytest.raises(DegenerateInput):
        meet_planes(HPlane.of(1, 0, 0, 0), HPlane.of(-3, 0, 0, 0))
    l = ProjLine(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(DegenerateInput):
        meet_line_plane(l, HPlane.of(0, 0, 1, 0))  # plane contains the line


def test_dual_line_annihilators():
    L = ProjLine(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]))
    Ld = dual_line(L)
    assert Ld.same_as(ProjLine(np.array([[0.0, 0, 1, 0], [0, 0, 0, 1]])))
    w = ProjLine(np.array([[0.0, 0, 0, 1], [0, 0, 1, 0]]))
    wd = dual_line(w)
    assert wd.same_as(ProjLine(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])))


def test_dual_line_involution_and_incidence():
    rng = np.random.default_rng(1)
    for _ in range(100):
        l = ProjLine(rng.normal(size=(2, 4)))
        assert dual_line(dual_line(l)).same_as(l)
    # every plane through l maps to a point on the dual line
    for _ in range(20):
        l = ProjLine(rng.normal(size=(2, 4)))
        ld = dual_line(l)
        c = rng.normal(size=2)
        plane_cov = c[0] * ld.span[0] + c[1] * ld.span[1]
        # that covector is a plane containing l ...
        assert np.max(np.abs(l.span @ plane_cov)) < 1e-9
        # ... and as a point of the dual space it lies on the dual line
        assert ld.contains_point(HPoint(plane_cov))


def test_pencil_plane_basis_cases(frame):
    assert pencil_plane(frame, 0.0).same_as(HPlane.of(0, 0, 1, 0))
    assert pencil_plane(frame, np.pi / 2).same_as(HPlane.of(0, 0, 0, 1))
    mid = pencil_plane(frame, np.pi / 4)
    assert mid.same_as(HPlane.of(0, 0, 1, 1))
    assert incident(HPoint.of(1, 0, 0, 0), mid)
    assert incident(HPoint.of(0, 1, 0, 0), mid)


def test_pencil_plane_injective(frame):
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.uniform(0, PI, size=2)
        if abs(a - b) < 1e-6:
            continue
        assert not pencil_plane(frame, a).same_as(pencil_plane(frame, b))


def test_pencil_frame_from_line():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = ProjLine(rng.normal(size=(2, 4)))
        fr = PencilFrame.from_line(l)
        assert fr.line.same_as(l)
        assert np.max(np.abs(l.span @ fr.p0.coeffs)) < 1e-9
        assert np.max(np.abs(l.span @ fr.p1.coeffs)) < 1e-9
        assert fr.dual().dual().line.same_as(l)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pencil_frame_rejects_non_finite(bad):
    e = np.eye(4)
    for i in range(4):
        vecs = [e[j] for j in range(4)]
        vecs[i] = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateInput):
            PencilFrame(*vecs)
    with pytest.raises(DegenerateInput):
        PencilFrame(np.array([1.0, 0.0, 0.0, bad]), e[1], e[2], e[3])


def test_arc_segment():
    arc = ArcSegment(3.0, 0.5)  # wraps through pi
    assert arc.contains(3.1)
    assert arc.contains(0.2)
    assert not arc.contains(1.5)
    assert abs(arc.length - (0.5 + PI - 3.0)) < 1e-12
    comp = arc.complement()
    assert comp.contains(1.5) and not comp.contains(0.2)
    d = dual_arc(arc)
    assert d.start == arc.end and d.end == arc.start
    with pytest.raises(DegenerateInput):
        ArcSegment(1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1e-9, np.nan, np.inf, -np.inf])
def test_tolerances_must_be_finite_and_positive(bad):
    for name in ("eps_incid", "eps_convex", "radius_cap"):
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: bad})
    with pytest.raises(ValueError, match="eps_incid"):
        Tolerances().with_base(bad)
