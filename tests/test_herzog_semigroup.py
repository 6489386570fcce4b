import hashlib
from fractions import Fraction
from math import gcd
from operator import attrgetter

import pytest

from negcurve.herzog_semigroup import (
    HerzogData,
    herzog_data,
    herzog_to_json,
    triangle,
)
from negcurve.lattice_geom import area2, dilate, edges, lattice_points
from negcurve.toric_surface import normal_fan


def weighted_count(a, b, c, d):
    # number of monomials x^i y^j z^k of weighted degree d
    n = 0
    for k in range(d // c + 1):
        for j in range((d - k * c) // b + 1):
            if (d - k * c - j * b) % a == 0:
                n += 1
    return n


def tuple_of(d):
    return (d.s, d.s2, d.s3, d.t, d.t1, d.t3, d.u, d.u1, d.u2)


def check_identities(d):
    assert d.s == d.s2 + d.s3 and d.t == d.t1 + d.t3 and d.u == d.u1 + d.u2
    assert d.s * d.a == d.t1 * d.b + d.u1 * d.c
    assert d.t * d.b == d.s2 * d.a + d.u2 * d.c
    assert d.u * d.c == d.s3 * d.a + d.t3 * d.b
    assert d.a == d.t * d.u - d.t3 * d.u2
    assert d.b == d.s2 * d.u + d.s3 * d.u2
    assert d.s3 > 0 and d.t3 > 0 and d.u > 0
    assert d.i0 * d.a + d.j0 * d.b == 1


def test_9_10_13():
    d = herzog_data(9, 10, 13)
    assert tuple_of(d) == (4, 3, 1, 4, 1, 3, 3, 2, 1)
    assert (d.i0, d.j0) == (9, -8)
    assert d.permutation == (0, 1, 2)
    check_identities(d)


def test_9_10_13_minimality():
    # s, t, u really are the least multiples landing in the other semigroup
    d = herzog_data(9, 10, 13)
    for w, others, val in ((9, (10, 13), d.s), (10, (9, 13), d.t),
                           (13, (9, 10), d.u)):
        p, q = others
        least = next(n for n in range(1, 100)
                     if any((n * w - y * q) % p == 0
                            for y in range(n * w // q + 1)))
        assert val == least


def test_triangle_9_10_13():
    P = triangle(herzog_data(9, 10, 13))
    assert area2(P) == Fraction(1, 1170)
    assert sorted(P.vertices) == [
        (Fraction(-27, 10), Fraction(-9, 10)),
        (Fraction(-35, 13), Fraction(-12, 13)),
        (Fraction(-8, 3), Fraction(-8, 9)),
    ]


def test_triangle_8_15_43_slopes():
    d = herzog_data(8, 15, 43)
    P = triangle(d)
    assert area2(P) == Fraction(1, 8 * 15 * 43)
    slopes = {Fraction(q[1] - p[1], q[0] - p[0]) for p, q in edges(P)}
    assert slopes == {Fraction(1, 2), Fraction(-4, 7), Fraction(5, 2)}


def test_triangle_width():
    for abc in ((9, 10, 13), (8, 15, 43), (2, 3, 5)):
        d = herzog_data(*abc)
        Q = dilate(triangle(d), d.c * d.u)
        xs = [x for x, _ in Q.vertices]
        assert max(xs) - min(xs) == Fraction(d.c * d.u * d.u, d.a * d.b)


def _graded_dimension(data, deg):
    """Lattice points of deg * triangle(data), for deg >= 1."""
    return len(lattice_points(dilate(triangle(data), deg)))


def test_graded_dimension():
    d = herzog_data(9, 10, 13)
    assert _graded_dimension(d, 9) == 1
    for deg in (1, 8, 10, 13, 19, 23, 90, 117):
        assert _graded_dimension(d, deg) == weighted_count(9, 10, 13, deg)


def test_graded_dimension_8_15_43():
    d = herzog_data(8, 15, 43)
    assert _graded_dimension(d, 645) == 45
    assert weighted_count(8, 15, 43, 645) == 45


def test_fan_9_10_13():
    d = herzog_data(9, 10, 13)
    rays = normal_fan(triangle(d)).rays
    assert rays == ((3, 1), (-4, 3), (1, -3))
    # the presentation's own half-plane normals, already primitive
    assert rays == ((d.s2, d.s3), (-d.t, d.t3), (d.u2, -d.u))


def test_fan_synthetic_plane():
    d = HerzogData(1, 1, 1, 1, 1, 0, 0, -1, 1, 1, 2, -1, 0, 1, (0, 1, 2))
    rays = normal_fan(triangle(d)).rays
    # the fan starts at another ray; compare the counterclockwise cycle
    k = rays.index((1, 0))
    assert rays[k:] + rays[:k] == ((1, 0), (0, 1), (-1, -1))


def test_complete_intersection_triples():
    d = herzog_data(2, 3, 5)
    assert tuple_of(d) == (4, 3, 1, 2, 1, 1, 1, 1, 0)
    assert d.permutation == (0, 1, 2)
    check_identities(d)
    d = herzog_data(1, 1, 1)
    assert tuple_of(d) == (1, 0, 1, 1, 0, 1, 2, 1, 1)
    check_identities(d)
    d = herzog_data(1, 2, 3)
    assert tuple_of(d) == (3, 2, 1, 1, 0, 1, 1, 1, 0)
    check_identities(d)


def test_presentation_pinned_on_small_weights():
    # every ordered pairwise-coprime triple with weights 1..30; the digest
    # was taken from the earlier two-construction code (least multiples
    # first, then the complete-intersection completion)
    fields = attrgetter("a", "b", "c", "s", "s2", "s3", "t", "t1", "t3", "u",
                        "u1", "u2", "i0", "j0", "permutation")
    rows = [fields(herzog_data(a, b, c))
            for a in range(1, 31) for b in range(1, 31) for c in range(1, 31)
            if gcd(a, b) == gcd(b, c) == gcd(a, c) == 1]
    assert len(rows) == 7798
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:8] == "dab5739c"


def test_errors():
    with pytest.raises(ValueError):
        herzog_data(9, 10, 12)
    with pytest.raises(ValueError):
        herzog_data(0, 1, 1)
    with pytest.raises(ValueError):
        herzog_data(2, -3, 5)


def test_random_triples():
    import random
    rng = random.Random(7)
    done = 0
    while done < 15:
        a, b, c = (rng.randint(1, 60) for _ in range(3))
        if gcd(a, b) > 1 or gcd(b, c) > 1 or gcd(a, c) > 1:
            continue
        done += 1
        d = herzog_data(a, b, c)
        check_identities(d)
        P = triangle(d)
        assert area2(P) == Fraction(1, d.a * d.b * d.c)
        normal_fan(P)
        for deg in (1, 7, d.a + d.b + d.c):
            assert _graded_dimension(d, deg) == weighted_count(d.a, d.b, d.c, deg)


def test_json_report():
    doc = herzog_to_json(herzog_data(9, 10, 13))
    assert doc["s"] == 4 and doc["u2"] == 1
    assert doc["permutation"] == [0, 1, 2]
    assert doc["area2"] == "1/1170"
    assert ["-8/3", "-8/9"] in doc["triangle"]
