from fractions import Fraction

import pytest

from negcurve import lattice_geom
from negcurve.herzog_semigroup import herzog_data, triangle
from negcurve.lattice_geom import (
    EmptyRegionError,
    RationalPolygon,
    UnboundedRegionError,
    UnimodularAffineMap,
    area2,
    collinear_exceeds,
    convex_hull,
    dilate,
    halfplane_polygon,
    lattice_points,
    minkowski_decompositions,
    normalized_maps,
    omega_contains,
    pick_counts,
)

TRI2 = [(0, 0), (2, 1), (1, 2)]
TRI3 = [(0, 0), (3, 1), (1, 3)]
TET3 = [(0, 0), (3, 1), (2, 3), (1, 2)]


def test_convex_hull_drops_inner_points():
    P = convex_hull(TET3 + [(1, 1), (2, 2)])
    assert P.vertices == ((0, 0), (3, 1), (2, 3), (1, 2))
    assert P.dim == 2
    seg = convex_hull([(0, 0), (1, 1), (3, 3)])
    assert seg.dim == 1
    assert seg.vertices == ((0, 0), (3, 3))
    pt = convex_hull([(2, 5), (2, 5)])
    assert pt.dim == 0


def test_area2_values():
    assert area2(convex_hull(TRI2)) == 3
    assert area2(convex_hull(TRI3)) == 8
    assert area2(convex_hull(TET3)) == 8
    assert area2(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])) == 2
    assert area2(convex_hull([(0, 0), (4, 4)])) == 0


def test_area2_rational():
    P = RationalPolygon([
        (Fraction(-35, 13), Fraction(-12, 13)),
        (Fraction(-27, 10), Fraction(-9, 10)),
        (Fraction(-8, 3), Fraction(-8, 9)),
    ])
    assert area2(P) == Fraction(1, 1170)


def test_lattice_points_and_pick():
    P = convex_hull(TRI3)
    pts = lattice_points(P)
    assert len(pts) == 7
    assert pick_counts(P, pts) == (4, 3)
    assert set(pts) == {(0, 0), (3, 1), (1, 3), (2, 2), (1, 1), (2, 1), (1, 2)}
    # Pick: area2 = 2I + B - 2
    for verts in (TRI2, TRI3, TET3):
        Q = convex_hull(verts)
        B, I = pick_counts(Q, lattice_points(Q))
        assert area2(Q) == 2 * I + B - 2


def test_lattice_points_low_dim():
    seg = convex_hull([(0, 0), (3, 3)])
    assert lattice_points(seg) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert lattice_points(convex_hull([(2, 5)])) == [(2, 5)]
    # rational ends: the line y = x + 1/3 misses the lattice, its 3-dilate does
    # not, and a non-integral point has no lattice point
    R = RationalPolygon([(Fraction(1, 3), Fraction(2, 3)),
                         (Fraction(13, 3), Fraction(14, 3))])
    assert lattice_points(R) == []
    assert lattice_points(dilate(R, 3)) == [(x, x + 1) for x in range(1, 14)]
    assert lattice_points(RationalPolygon([(Fraction(1, 2), 3)])) == []


def test_lattice_points_rational():
    # all-fractional triangle contains no lattice point
    P = RationalPolygon([
        (Fraction(-35, 13), Fraction(-12, 13)),
        (Fraction(-27, 10), Fraction(-9, 10)),
        (Fraction(-8, 3), Fraction(-8, 9)),
    ])
    assert lattice_points(P) == []
    Q = RationalPolygon([(Fraction(-1, 2), Fraction(-1, 2)),
                         (Fraction(3, 2), Fraction(-1, 2)),
                         (Fraction(-1, 2), Fraction(3, 2))])
    assert set(lattice_points(Q)) == {(0, 0), (1, 0), (0, 1)}
    # (1,0) and (0,1) sit on the edge x + y = 1
    assert pick_counts(Q, lattice_points(Q))[0] == 2


def test_dilate():
    P = convex_hull(TRI2)
    for k in (1, 2, 5):
        assert area2(dilate(P, k)) == k * k * area2(P)
    P3 = dilate(P, 3)
    B, I = pick_counts(P3, lattice_points(P3))
    assert B == 3 * 3  # each edge is primitive in P
    assert area2(dilate(P, 3)) == 2 * I + B - 2


def test_dilate_builds_no_hull(monkeypatch):
    # the scaled vertex list of a hull is already the image's hull
    T = triangle(herzog_data(8, 15, 43))

    def no_hull(points):
        raise AssertionError("dilate took a hull")

    monkeypatch.setattr(lattice_geom, "_hull_vertices", no_hull)
    Q = dilate(T, 645)
    assert type(Q) is type(T) and Q.dim == 2
    assert Q.vertices == tuple((645 * x, 645 * y) for x, y in T.vertices)
    assert len(lattice_points(Q)) > 0


def test_halfplane_polygon():
    T = halfplane_polygon([((1, 0), Fraction(-1)), ((0, 1), Fraction(-1)),
                           ((-1, -1), Fraction(-1))])
    assert T.vertices == ((Fraction(-1), Fraction(-1)), (Fraction(2), Fraction(-1)),
                          (Fraction(-1), Fraction(2)))
    assert area2(T) == 9


def test_halfplane_unbounded():
    with pytest.raises(UnboundedRegionError):
        halfplane_polygon([((1, 0), Fraction(0)), ((0, 1), Fraction(0))])


def test_halfplane_empty():
    with pytest.raises(EmptyRegionError):
        halfplane_polygon([((1, 0), Fraction(2)), ((0, 1), Fraction(2)),
                           ((-1, -1), Fraction(-1))])


def test_halfplane_degenerate_segment():
    D = halfplane_polygon([((1, 0), Fraction(0)), ((-1, 0), Fraction(0)),
                           ((0, 1), Fraction(0)), ((0, -1), Fraction(-1))])
    assert D.dim == 1
    assert D.vertices == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))


def _most_collinear(P):
    """The least k such that no line holds more than k lattice points of P."""
    pts = lattice_points(P)
    k = 0
    while collinear_exceeds(pts, k):
        k += 1
    return k


def test_collinear_exceeds():
    assert _most_collinear(convex_hull([(0, 0), (3, 3)])) == 4
    assert _most_collinear(convex_hull(TRI2)) == 2
    assert _most_collinear(convex_hull(TRI3)) == 3
    assert _most_collinear(convex_hull(TET3)) == 3
    assert _most_collinear(convex_hull([(2, 5)])) == 1
    # the 31 points of the hypotenuse, out of 496
    big = convex_hull([(0, 0), (30, 0), (0, 30)])
    assert len(lattice_points(big)) == 496 and _most_collinear(big) == 31


def test_collinear_exceeds_reads_residues_only(monkeypatch):
    # 4186 lattice points, 91 of them on the first column and 91 on the
    # hypotenuse: k = 3 is settled by the count past k^2, and k = 90, 91
    # by the residues mod k, with no direction computed
    huge = convex_hull([(0, 0), (90, 0), (0, 90)])
    pts = lattice_points(huge)
    assert len(pts) == 4186
    calls = []
    real_gcd = lattice_geom.gcd
    monkeypatch.setattr(lattice_geom, "gcd",
                        lambda a, b: calls.append(1) or real_gcd(a, b))
    assert collinear_exceeds(pts, 3)
    assert collinear_exceeds(pts, 90) and not collinear_exceeds(pts, 91)
    assert calls == []


def _image(f, P):
    return convex_hull([f.apply(v) for v in P.vertices])


def test_normalize_examples():
    Q, maps = normalized_maps(convex_hull(TRI2), 2)
    assert Q.vertices == ((0, 0), (1, 0), (2, 3))
    assert _image(maps[0], convex_hull(TRI2)) == Q
    assert all(omega_contains(v, 2) for v in lattice_points(Q))
    # unit square is already canonical
    S = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    QS, _ = normalized_maps(S, 2)
    assert QS.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_normalize_invariance():
    P = convex_hull(TRI2)
    Q, _ = normalized_maps(P, 2)
    shifted = convex_hull([(x + 5, y - 7) for x, y in P.vertices])
    assert normalized_maps(shifted, 2)[0] == Q
    moved = _image(UnimodularAffineMap(((2, 1), (1, 1)), (3, -2)), P)
    Qg, maps = normalized_maps(moved, 2)
    assert Qg == Q
    assert _image(maps[0], moved) == Q
    # invariants survive normalization
    assert area2(Q) == area2(P)
    assert pick_counts(Q, lattice_points(Q)) == pick_counts(P, lattice_points(P))
    assert _most_collinear(Q) == _most_collinear(P)


def test_normalized_maps_all_agree():
    P = convex_hull(TET3)
    Q, maps = normalized_maps(P, 3)
    assert len(maps) >= 1
    for m in maps:
        assert _image(m, P) == Q


def test_normalized_maps_omega_check_raises(monkeypatch):
    # a plain exception, so the check still runs under python -O
    monkeypatch.setattr(lattice_geom, "omega_contains", lambda pt, r: False)
    with pytest.raises(RuntimeError, match="Omega"):
        normalized_maps(convex_hull(TRI2), 2)


def test_base_maps_gcd_check_raises(monkeypatch):
    monkeypatch.setattr(lattice_geom, "_primitive", lambda v: (2 * v[0], 2 * v[1]))
    with pytest.raises(RuntimeError, match="not primitive"):
        lattice_geom._base_maps(convex_hull(TRI2))


def test_walk_closure_check_raises():
    with pytest.raises(RuntimeError, match="close up"):
        lattice_geom._walk([(1, 0), (0, 1)])


def test_minkowski_decompositions():
    S = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    decs = minkowski_decompositions(S)
    assert len(decs) == 1
    a, b = decs[0]
    assert {a.vertices, b.vertices} == {((0, 0), (1, 0)), ((0, 0), (0, 1))}
    assert minkowski_decompositions(convex_hull(TRI2)) == []
    decs = minkowski_decompositions(convex_hull([(0, 0), (2, 0), (0, 2)]))
    assert len(decs) == 1
    decs = minkowski_decompositions(dilate(convex_hull(TRI2), 2))
    assert len(decs) == 1
    assert decs[0][0].vertices == ((0, 0), (2, 1), (1, 2))
    # search pentagon is indecomposable
    pent = convex_hull([(0, 0), (7, -4), (9, 1), (10, 4), (10, 5)])
    assert minkowski_decompositions(pent) == []

