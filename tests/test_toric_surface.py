from fractions import Fraction

import pytest

from negcurve import toric_surface
from negcurve.lattice_geom import area2, convex_hull
from negcurve.laurent_poly import newton_polygon, parse
from negcurve.toric_surface import (
    DiagramContradiction,
    Fan2D,
    class_group,
    divisor_square,
    intersection_numbers,
    k2_via_refinement,
    minus_k_polygon,
    normal_fan,
    smooth_refine,
    thm36_report,
    thm36_to_json,
)

PHI3P = "-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3"
PENTAGON = [(0, 0), (7, -4), (9, 1), (10, 4), (10, 5)]


def test_fan_validation():
    Fan2D([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(ValueError):
        Fan2D([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        Fan2D([(2, 0), (0, 1), (-1, -1)])  # not primitive
    with pytest.raises(ValueError):
        Fan2D([(1, 0), (0, 1), (1, 1)])  # not spanning
    with pytest.raises(ValueError):
        Fan2D([(1, 0), (-1, -1), (0, 1)])  # clockwise


def test_normal_fan():
    f = normal_fan(convex_hull([(0, 0), (1, 0), (0, 1)]))
    assert f.rays == ((0, 1), (-1, -1), (1, 0))
    f = normal_fan(convex_hull([(0, 0), (3, 1), (2, 3), (1, 2)]))
    assert len(f.rays) == 4
    f = normal_fan(convex_hull(PENTAGON))
    assert f.rays == ((4, 7), (-5, 2), (-3, 1), (-1, 0), (1, -2))
    with pytest.raises(ValueError):
        normal_fan(convex_hull([(0, 0), (1, 1)]))


def test_intersection_numbers_plane():
    nums = intersection_numbers(Fan2D([(1, 0), (0, 1), (-1, -1)]))
    assert nums["D2"] == [1, 1, 1]
    assert nums["DD"] == [1, 1, 1]
    assert nums["K2"] == 9


def test_intersection_numbers_smooth_relation():
    rays = ((1, 0), (0, 1), (-1, 1), (0, -1))
    nums = intersection_numbers(Fan2D(rays))
    assert nums["K2"] == 8
    # on a smooth fan: a_{i-1} + a_{i+1} = -(D_i^2) a_i
    n = len(rays)
    for i in range(n):
        prev, nxt = rays[i - 1], rays[(i + 1) % n]
        s = -nums["D2"][i]
        assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (s * rays[i][0], s * rays[i][1])


def test_intersection_numbers_weighted():
    # weights (1,1,3): K^2 = (1+1+3)^2/3
    nums = intersection_numbers(Fan2D([(1, 0), (2, 3), (-1, -1)]))
    assert nums["K2"] == Fraction(25, 3)


def test_divisor_square_matches_k2():
    for rays in ([(1, 0), (0, 1), (-1, -1)], [(1, 0), (2, 3), (-1, -1)],
                 [(4, 7), (-5, 2), (-3, 1), (-1, 0), (1, -2)]):
        fan = Fan2D(rays)
        ones = [Fraction(1)] * len(rays)
        assert divisor_square(fan, ones) == intersection_numbers(fan)["K2"]


def test_class_group_plane():
    cg = class_group(Fan2D([(1, 0), (0, 1), (-1, -1)]))
    assert cg.free_rank == 1 and cg.torsion == []
    assert cg.grading_matrix == [[1, 1, 1]]


def _z_z2_automorphic(classes, wanted):
    # automorphisms of Z + Z/2: (f, t) -> (s*f, t + e*f mod 2)
    for s in (1, -1):
        for e in (0, 1):
            image = [(s * f, (t + e * f) % 2) for f, t in classes]
            if image == wanted:
                return True
    return False


def test_class_group_torsion():
    cg = class_group([(2, -1), (-2, -1), (0, 1)])
    assert cg.free_rank == 1 and cg.torsion == [2]
    classes = [cg.class_of(j) for j in range(3)]
    assert _z_z2_automorphic(classes, [(1, 1), (1, 0), (2, 1)])


def _mat_inv_frac(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def test_class_group_three_dimensional_rays():
    t = 2
    rays = [(-1, t, t), (t, -1, t), (t, t, -1),
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cg = class_group(rays)
    assert cg.free_rank == 4 and cg.torsion == []
    wanted = [[1, 0, 0, 3, 0, 0, 2],
              [0, 1, 0, 0, 3, 0, 2],
              [0, 0, 1, 0, 0, 3, 2],
              [0, 0, 0, 1, 1, 1, 1]]
    got = cg.grading_matrix
    # same 4x7 grading up to a GL(4,Z) change of basis: solve A from the
    # first four columns (unimodular in `wanted`) and check everywhere
    w4 = _mat_inv_frac([[wanted[i][j] for j in range(4)] for i in range(4)])
    A = [[sum(Fraction(got[i][k]) * w4[k][j] for k in range(4))
          for j in range(4)] for i in range(4)]
    assert all(x.denominator == 1 for row in A for x in row)
    for i in range(4):
        for j in range(7):
            assert sum(A[i][k] * wanted[k][j] for k in range(4)) == got[i][j]


def test_minus_k_polygon():
    P = minus_k_polygon(Fan2D([(1, 0), (0, 1), (-1, -1)]))
    assert area2(P) == 9
    pent = minus_k_polygon(normal_fan(convex_hull(PENTAGON)))
    assert area2(pent) == Fraction(363, 430)


def test_smooth_refine_fixed_point():
    f = Fan2D([(1, 0), (0, 1), (-1, -1)])
    assert smooth_refine(f).rays == f.rays


def test_smooth_refine_single_insertion():
    f = Fan2D([(1, 0), (1, 2), (-1, -1)])
    out = smooth_refine(f)
    assert out.rays == ((1, 0), (1, 1), (1, 2), (-1, -1))
    f = Fan2D([(1, 0), (0, 1), (-1, -2)])
    assert smooth_refine(f).rays == ((1, 0), (0, 1), (-1, -2), (0, -1))


def test_smooth_refine_deep():
    for rays in ([(1, 0), (2, 3), (-1, -1)], [(3, 1), (-4, 3), (1, -3)],
                 [(4, 7), (-5, 2), (-3, 1), (-1, 0), (1, -2)]):
        fan = Fan2D(rays)
        out = smooth_refine(fan)
        assert out.is_smooth()
        assert minus_k_polygon(out).vertices == minus_k_polygon(fan).vertices
        # pulling -K_X back to the refinement must reproduce its square
        assert k2_via_refinement(fan) == intersection_numbers(fan)["K2"]


def test_refinement_checks_raise(monkeypatch):
    # plain exceptions, so the self-checks still run under python -O
    with pytest.raises(RuntimeError, match="a-multiple"):
        toric_surface._insert_ray((1, 0), (2, 2))
    fan = Fan2D([(1, 0), (1, 2), (-1, -1)])
    with monkeypatch.context() as m:
        m.setattr(toric_surface, "_insert_ray", lambda a, b: a)
        with pytest.raises(RuntimeError, match="must drop"):
            smooth_refine(fan)
    for rays, message in ((fan.rays, "singular"),
                          (((1, 0), (0, 1), (-1, -1)), "anticanonical")):
        with monkeypatch.context() as m:
            m.setattr(toric_surface, "_refine", lambda r, c, rays=rays: (list(rays), c))
            with pytest.raises(RuntimeError, match=message):
                smooth_refine(fan)


def test_blowup_numbers():
    # thm36_report's payload on polynomials with the triangle (0,0), (3,1),
    # (1,3) at r = 3 and the (8,15,43) pentagon at r = 9 as Newton polygons
    nums = thm36_report(parse("1 + v^3*w + v*w^3"), 3).payload
    assert nums["C2"] == -1
    assert nums["CnegK"] == 1
    assert nums["two_pa"] == 0
    pent = parse("1 + v^7*w^-4 + v^9*w + v^10*w^4 + v^10*w^5")
    assert newton_polygon(pent).vertices == tuple(PENTAGON)
    nums = thm36_report(pent, 9).payload
    assert nums["C2"] == -2 and nums["CE"] == 9 and nums["E2"] == -1
    assert nums["CnegK"] == 0
    assert nums["negKY2"] == Fraction(-141, 215)
    assert nums["negKX2"] == nums["negKY2"] + 1
    assert nums["two_pa"] == 0


def test_thm36_char2():
    rep = thm36_report(parse(PHI3P, char=2), 3)
    val = {i: rep.conditions[i][0] for i in range(1, 12)}
    assert val[2] is True and rep.conditions[2][1] == "rank-2 certificate"
    assert val[3] is True and val[4] is True
    assert val[7] is True and val[8] is True and val[9] is True
    assert val[10] is True and rep.conditions[10][1] == "char > 0"
    assert val[1] is None and val[11] is None
    assert rep.payload["area2"] == 7 and rep.payload["B"] == 3
    assert rep.payload["CnegK"] == 0


def test_thm36_char0():
    rep = thm36_report(parse(PHI3P), 3)
    assert rep.conditions[2][0] is None  # four rays, no nef certificate
    assert rep.conditions[4][0] is True
    assert rep.conditions[9][0] is True
    assert rep.conditions[10][0] is True  # via (4)=>(5)=>(6)=>(10)
    assert "=>" in rep.conditions[10][1]


def test_thm36_contradiction_on_junk_input():
    # the unit square is no 2-nct: B=4>=2 forces (8), but I=0 refutes (9)
    with pytest.raises(DiagramContradiction):
        thm36_report(parse("vw + v + w + 1"), 2)


def test_thm36_json():
    doc = thm36_to_json(thm36_report(parse(PHI3P, char=2), 3))
    assert doc["conditions"]["9"]["status"] == "true"
    assert doc["conditions"]["1"]["status"] == "unknown"
    assert doc["payload"]["negKY2"] == "2/7"
    assert doc["payload"]["area2"] == "7"


def test_thm36_rejects_degenerate():
    with pytest.raises(ValueError):
        thm36_report(parse("vw - 1"), 2)
    with pytest.raises(ValueError):
        thm36_report(parse(PHI3P), 1)
