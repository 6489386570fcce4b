import json
import time

import pytest

from negcurve.exact_arith import CharMismatch
from negcurve.lattice_geom import area2
from negcurve.laurent_poly import (
    ParseError,
    centred_binomials,
    from_json,
    monomial,
    multiplicity_at_one,
    multiply,
    newton_polygon,
    parse,
    serialize,
    to_text,
    unit_multiply,
)
from negcurve.symbolic_power import jet_matrix

from gl2z import apply_gl2z

PHI3P = "-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3"


def phi(n):
    """The recursive family phi_1 = vw - 1, phi_r = -phi_{r-1}(v-1) +- v(w-1)^r."""
    v, w, one = monomial(1, 0), monomial(0, 1), monomial(0, 0)
    cur = v * w - one
    for r in range(2, n + 1):
        tail = v
        for _ in range(r):
            tail = tail * (w - one)
        cur = -(cur * (v - one)) + (-1) ** (r - 1) * tail
    return cur


def test_parse_basic():
    p = parse("v*w - 1")
    assert p.terms == {(1, 1): 1, (0, 0): -1}
    assert parse("vw-1") == p
    assert parse("2v^-1 + w^(-2)").terms == {(-1, 0): 2, (0, -2): 1}
    assert parse("3").terms == {(0, 0): 3}
    assert not parse("0")


def test_parse_unicode():
    assert parse("−1 + 5vw − 3v²w + v³w − 2vw² − v²w² + v²w³") == parse(PHI3P)


def test_parse_char_reduction():
    p = parse(PHI3P, char=2)
    assert len(p.terms) == 7 - 1  # the coefficient -2 dies
    assert parse(PHI3P).reduce_mod(2) == p


def test_parse_errors():
    for bad in ("", "v +", "x + 1", "v^", "1 1"):
        with pytest.raises(ParseError):
            parse(bad)
    # JSON: a zero denominator and a non-integral exponent, as in IntegralPolygon
    for term in ({"a": 0, "b": 0, "c": "1/0"}, {"a": 0.5, "b": 0, "c": "1"},
                 {"a": 1, "b": "1.5", "c": "1"}):
        with pytest.raises(ParseError):
            from_json({"char": 0, "terms": [term]})
    assert from_json({"char": 0, "terms": [{"a": 2.0, "b": 0, "c": "1"}]}).terms == {(2, 0): 1}


def test_json_roundtrip():
    p = parse(PHI3P)
    assert from_json(serialize(p)) == p
    assert from_json(json.loads(json.dumps(serialize(p)))) == p
    q = parse(PHI3P, char=5)
    back = from_json(serialize(q))
    assert back == q and back.char == 5
    assert parse(to_text(p)) == p


def test_newton_polygon():
    assert newton_polygon(parse("vw - 1")).vertices == ((0, 0), (1, 1))
    assert area2(newton_polygon(parse("vw - 1"))) == 0
    assert newton_polygon(parse(PHI3P)).vertices == ((0, 0), (3, 1), (2, 3), (1, 2))
    assert newton_polygon(parse(PHI3P, char=2)).vertices == ((0, 0), (3, 1), (2, 3))
    with pytest.raises(ValueError):
        newton_polygon(parse("0"))


def test_recursive_family():
    assert phi(2) == parse("-v^2*w - vw^2 + 3vw - 1")
    assert phi(3) == parse("-1 + 6vw - 4v^2*w + v^3*w - 4vw^2 + v^2*w^2 + vw^3")


def test_multiply():
    v, w, one = monomial(1, 0), monomial(0, 1), monomial(0, 0)
    assert multiply(v - one, w - one) == parse("vw - v - w + 1")
    with pytest.raises(CharMismatch):
        multiply(parse("v", char=2), parse("w"))


def test_unit_multiply():
    p = parse("vw - 1")
    q = unit_multiply(p, -2, 1, -1)
    assert q.terms == {(2, 0): -2, (1, -1): 2}
    with pytest.raises(ValueError):
        unit_multiply(p, 0)


def test_apply_gl2z():
    p = parse("vw - 1")
    assert apply_gl2z(p, ((1, -1), (0, 1))) == parse("v - 1")
    assert apply_gl2z(p, ((1, 0), (0, 1))) == p
    with pytest.raises(ValueError):
        apply_gl2z(p, ((2, 0), (0, 1)))
    # row action composes left to right
    m1, m2 = ((1, 2), (0, 1)), ((0, -1), (1, 0))
    prod = ((2, -1), (1, 0))  # m1 * m2
    q = parse(PHI3P)
    assert apply_gl2z(q, prod) == apply_gl2z(apply_gl2z(q, m1), m2)


def _jet(phi, r):
    """Jet entries of order (i, j), i + j < r: jet_matrix rows times coefficients."""
    jm = jet_matrix(phi.support(), r, phi.char)
    coeffs = [phi.terms[pt] for pt in jm.support]
    keys = [(i, j) for i in range(r) for j in range(r - i)]
    vals = [sum(e * c for e, c in zip(row, coeffs)) for row in jm.rows]
    return {k: v % phi.char if phi.char else v for k, v in zip(keys, vals)}


def test_jet_examples():
    assert _jet(parse("vw - 1"), 2) == {(0, 0): 0, (1, 0): 1, (0, 1): 1}
    assert not any(_jet(phi(2), 2).values())
    assert _jet(parse("v^-1 - 1"), 1) == {(0, 0): 0}
    assert _jet(parse("v^-1 - 1"), 2)[(1, 0)] == -1


def test_jet_mod_p_is_reduction():
    p0 = parse(PHI3P)
    p2 = p0.reduce_mod(2)
    j0, j2 = _jet(p0, 4), _jet(p2, 4)
    assert len(j0) == len(j2) == 10
    for key, val in j0.items():
        assert j2[key] == val % 2


def test_multiplicity():
    assert multiplicity_at_one(phi(2)) == 2
    assert multiplicity_at_one(parse(PHI3P, char=2)) == 3
    v, w, one = monomial(1, 0), monomial(0, 1), monomial(0, 0)
    p = (v - one) * (v - one) * (v - one) * (w - one) * (w - one)
    assert multiplicity_at_one(unit_multiply(p, 7, -2, 5)) == 5
    assert multiplicity_at_one(parse("3")) == 0
    with pytest.raises(ValueError):
        multiplicity_at_one(parse("0"))


def test_multiplicity_bound_check_raises(monkeypatch):
    # jets that vanish at every order must trip the degree bound, even under -O
    from negcurve import laurent_poly
    monkeypatch.setattr(laurent_poly, "centred_binomials",
                        lambda pts, r: ([[0] * r] * len(pts), [[0] * r] * len(pts)))
    with pytest.raises(RuntimeError):
        multiplicity_at_one(phi(2))


def test_multiplicity_reads_binomials_only_up_to_its_order():
    # the order-0 jet settles it; a table built to the degree bound, 20000
    # binomials per coordinate, would not return within a minute
    start = time.perf_counter()
    assert multiplicity_at_one(parse("1 + v^20000")) == 0
    assert time.perf_counter() - start < 1


def test_centred_binomials():
    pts = [(3, -1), (5, 2), (3, 2)]
    assert centred_binomials(pts, 3) == ([[1, 0, 0], [1, 2, 1], [1, 0, 0]],
                                         [[1, 0, 0], [1, 3, 3], [1, 3, 3]])
    assert centred_binomials([], 2) == ([], [])


def test_multiplicity_invariance():
    p = phi(2)
    assert multiplicity_at_one(unit_multiply(p, -3, 2, -1)) == 2
    assert multiplicity_at_one(apply_gl2z(p, ((1, 1), (0, 1)))) == 2
