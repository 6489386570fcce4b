"""One test per advertised guarantee; each line of `pytest -v` here is a verdict."""

import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from negcurve.herzog_semigroup import herzog_data, triangle
from negcurve.lattice_geom import (area2, convex_hull, dilate, lattice_points,
                                   pick_counts)
from negcurve.laurent_poly import newton_polygon, parse
from negcurve.nct_catalog import canonical_form, catalog, ggk_prime_family, is_nct
from negcurve.negcurve_search import find, scan
from negcurve.symbolic_power import jet_matrix, nullity
from negcurve.toric_surface import (Fan2D, class_group, det2,
                                    intersection_numbers, minus_k_polygon,
                                    normal_fan, smooth_refine, thm36_report)

PHI = {
    1: "v*w - 1",
    2: "-1 + 3*v*w - v^2*w - v*w^2",
    3: "-1 + 6*v*w - 4*v^2*w + v^3*w - 4*v*w^2 + v^2*w^2 + v*w^3",
}
PHI3P = "-1 + 5*v*w - 3*v^2*w + v^3*w - 2*v*w^2 - v^2*w^2 + v^2*w^3"


def _deadline(t0, budget):
    assert time.monotonic() - t0 < budget


def test_criterion_1_herzog_triangle():
    t0 = time.monotonic()
    rng = random.Random(1)
    triples = []
    while len(triples) < 20:
        a, b, c = (rng.randint(2, 120) for _ in range(3))
        if a * b * c > 10 ** 6:
            continue
        if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
            triples.append((a, b, c))
    for a, b, c in triples:
        d = herzog_data(a, b, c)
        assert d.s == d.s2 + d.s3 and d.t == d.t1 + d.t3 and d.u == d.u1 + d.u2
        assert d.s * d.a == d.t1 * d.b + d.u1 * d.c
        assert d.t * d.b == d.s2 * d.a + d.u2 * d.c
        assert d.u * d.c == d.s3 * d.a + d.t3 * d.b
        assert d.a == d.t * d.u - d.t3 * d.u2
        assert d.b == d.s2 * d.u + d.s3 * d.u2
        assert d.s3 > 0 and d.t3 > 0 and d.u > 0
        assert d.i0 * d.a + d.j0 * d.b == 1
        assert area2(triangle(d)) == Fraction(1, a * b * c)
    d = herzog_data(9, 10, 13)
    assert (d.s2, d.s3, d.t1, d.t3, d.u1, d.u2) == (3, 1, 1, 3, 2, 1)
    _deadline(t0, 5)


def test_criterion_2_named_ncts():
    t0 = time.monotonic()
    for r, want in ((1, 0), (2, 3), (3, 8)):
        rep = is_nct(parse(PHI[r]), r)
        assert rep.accepted and rep.area2 == want
    rep = is_nct(parse(PHI3P), 3)
    assert rep.accepted and rep.area2 == 8
    mod2 = parse(PHI3P).reduce_mod(2)
    P = newton_polygon(mod2)
    assert area2(P) == 7
    assert sorted(P.vertices) == [(0, 0), (2, 3), (3, 1)]
    _deadline(t0, 1)


def test_criterion_3_negative_curve_reproduction():
    t0 = time.monotonic()
    hits = scan(9, 10, 13, 2, 3)
    assert [(r, d) for r, d, _ in hits] == [(3, 100)]
    phi = hits[0][2].phi
    assert canonical_form(phi, 3) == canonical_form(parse(PHI3P).reduce_mod(2), 3)
    assert not any(r == 3 for r, _, _ in scan(9, 10, 13, 0, 3))
    _deadline(t0, 120)


def test_criterion_4_8_15_43():
    t0 = time.monotonic()
    out = find(8, 15, 43, 0, 9, 645)
    assert out is not None
    phi, rep = out
    P = newton_polygon(phi)
    assert len(P.vertices) == 5
    assert pick_counts(P, lattice_points(P)) == (9, 36)
    assert len(lattice_points(P)) == 45
    conds = thm36_report(phi, 9).conditions
    assert conds[3][0] is False
    assert conds[7][0] is True
    assert conds[9][0] is True
    _deadline(t0, 600)


@pytest.mark.long
def test_criterion_5_5_33_49():
    out = find(5, 33, 49, 0, 18, 1617)
    assert out is not None
    dP = dilate(triangle(herzog_data(5, 33, 49)), 1617)
    pts = lattice_points(dP)
    assert pick_counts(convex_hull(pts), pts)[1] == 153


def test_criterion_6_ggk_family():
    t0 = time.monotonic()
    for r in range(3, 9):
        phi = ggk_prime_family(r)
        P = newton_polygon(phi)
        pts = lattice_points(P)
        assert len(pts) == r * (r + 1) // 2 + 1
        assert pick_counts(P, pts) == (r + 1, r * (r - 1) // 2)
        assert nullity(jet_matrix(pts, r)) == 1
        assert thm36_report(phi, r).conditions[4][0] is True
    _deadline(t0, 30)


def test_criterion_7_classification():
    t0 = time.monotonic()
    assert len(catalog(1)) == 1
    assert [rep for rep, _ in catalog(2)] == [canonical_form(parse(PHI[2]), 2)]
    _deadline(t0, 120)


def test_criterion_8_toric_checks():
    t0 = time.monotonic()
    plane = Fan2D([(1, 0), (0, 1), (-1, -1)])
    assert intersection_numbers(plane)["K2"] == 9
    cg = class_group(plane)
    assert cg.free_rank == 1 and cg.torsion == []
    cg = class_group(Fan2D([(2, -1), (0, 1), (-2, -1)]))
    assert cg.free_rank == 1 and cg.torsion == [2]
    wfan = normal_fan(triangle(herzog_data(8, 15, 43)))
    assert intersection_numbers(wfan)["K2"] == Fraction(4356, 5160)
    rng = random.Random(8)
    done = 0
    while done < 50:
        pts = {(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(6)}
        P = convex_hull(pts)
        if P.dim < 2:
            continue
        f = normal_fan(P)
        g = smooth_refine(f)
        n = len(g.rays)
        assert all(det2(g.rays[i], g.rays[(i + 1) % n]) == 1 for i in range(n))
        assert minus_k_polygon(g).vertices == minus_k_polygon(f).vertices
        done += 1
    _deadline(t0, 30)


def test_criterion_9_property_suites(request):
    suite = pathlib.Path(__file__).with_name("test_properties.py")
    # a session that collected the suite has run it by now (the conftest
    # puts this test last): its outcomes decide, with no second run
    ran = [item for item in request.session.items if item.path == suite]
    if ran:
        # an item with no recorded phase never ran, which counts as a failure
        failed = [item.nodeid for item in ran if not hasattr(item, "phases")
                  or "failed" in item.phases.values()]
        assert failed == []
        return
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", str(suite)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_criterion_10_documented_exclusions():
    # the statements we do not decide stay undecided unless implied
    conds = thm36_report(parse(PHI[2]), 2).conditions
    for k in (6, 10):
        assert conds[k][1] != "computed"
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    text = readme.read_text()
    for topic in ("Noetherian", "nef", "rational"):
        assert topic in text
