import time
from fractions import Fraction

import pytest

from negcurve import irreducibility
from negcurve.irreducibility import (
    FactorBudgetError,
    _factored,
    _univariate_factors,
    cert_to_json,
    certify,
    exact_divide,
    factor_mod_p,
)
from negcurve.laurent_poly import LaurentPoly, monomial, parse, unit_multiply

from factor_oracle import factor_count
from gl2z import apply_gl2z

PHI2 = "-v^2*w - vw^2 + 3vw - 1"
PHI3 = "-1 + 6vw - 4v^2*w + v^3*w - 4vw^2 + v^2*w^2 + vw^3"
PHI3P = "-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3"
# (1 + v + w^2)(1 + v^2*w + w): mod 5, multiplicity 0 and area2 14
PROD = "1 + w + w^2 + w^3 + v + v*w + v^2*w + v^2*w^3 + v^3*w"


def is_unit(f):
    return f is not None and len(f.terms) == 1


def test_exact_divide():
    q = exact_divide(parse("v^2*w^2 - 1"), parse("vw - 1"))
    assert q == parse("vw + 1")
    assert exact_divide(parse("v^2 + 1"), parse("v + w")) is None
    assert exact_divide(parse("v^2 + 1", char=3), parse("v + w", char=3)) is None
    assert not exact_divide(LaurentPoly({}), parse("v - 1"))
    with pytest.raises(ZeroDivisionError):
        exact_divide(parse("v - 1"), LaurentPoly({}))
    with pytest.raises(ValueError):
        exact_divide(parse("v - 1"), parse("v - 1", char=5))


def test_exact_divide_has_no_step_cap():
    # one division step per quotient term, 20001 of them
    q = exact_divide(parse("1 - v^20001"), parse("1 - v"))
    assert q == LaurentPoly({(k, 0): 1 for k in range(20001)})


def test_exact_divide_laurent_shift():
    # divisibility is up to units of the Laurent ring
    f = unit_multiply(parse("v^2*w^2 - 1"), 3, -2, 5)
    q = exact_divide(f, parse("vw - 1"))
    assert q is not None and exact_divide(f, q) == parse("vw - 1")


def test_certify_product():
    cert = certify(parse("vw - v - w + 1"))
    assert cert.verdict == "Factored"
    assert len(cert.factors) == 2
    assert all(len(f.terms) > 1 for f in cert.factors)
    prod = cert.unit
    for f in cert.factors:
        prod = prod * f
    assert prod == parse("vw - v - w + 1")


def test_certify_polytope():
    for src in (PHI2, PHI3, PHI3P):
        cert = certify(parse(src))
        assert cert.verdict == "IrreduciblePolytope"
    cert = certify(parse(PHI3P, char=2))
    assert cert.verdict == "IrreduciblePolytope"


def test_certify_segments():
    cert = certify(parse("vw - 1"))
    assert cert.verdict == "IrreduciblePolytope"
    # multiplicity 0, so not negative-class: no certificate in any
    # characteristic, though the oracle finds it irreducible over Q and F_2
    for char in (0, 2):
        phi = parse("v^2 + v + 1", char=char)
        assert certify(phi) is None and factor_count(phi) == 1
    # multiplicity 1 on a segment of area 0: the rigid split, 1 - v
    cert = certify(parse("v^2 - 1"))
    assert cert.verdict == "Factored"
    assert sorted(f.terms[(0, 0)] for f in cert.factors) == [-1, 1]


def test_certify_over_q():
    # over Q certify factors nothing: neither input is negative-class, and
    # the oracle, sympy's factor_list, finds v^2 + 1 irreducible and, by
    # Sophie Germain, v^4 + 4 = (v^2 - 2v + 2)(v^2 + 2v + 2)
    for text, count in (("v^2 + 1", 1), ("v^4 + 4", 2)):
        assert certify(parse(text)) is None
        assert factor_count(parse(text)) == count


def test_certify_rational_coefficients():
    half = Fraction(1, 2)
    phi = LaurentPoly({(2, 1): half, (0, 1): -half}, 0)
    cert = certify(phi)
    assert cert.verdict == "Factored" and len(cert.factors) == 2
    assert cert.unit * cert.factors[0] * cert.factors[1] == phi


def test_factored_checks_the_product():
    # a real exception, so the check also runs under python -O
    with pytest.raises(RuntimeError):
        _factored(parse("v^2 - 1"), [parse("v - 1")])


def test_certify_errors():
    with pytest.raises(ValueError):
        certify(LaurentPoly({}))
    with pytest.raises(ValueError):
        certify(monomial(2, -1, 7))
    with pytest.raises(ValueError):
        factor_mod_p(parse("v - 1"))


def test_factor_mod_p_split():
    fs = factor_mod_p(parse("v^2 - w^2", char=3))
    assert len(fs) == 2
    assert sorted(sorted(f.terms) for f in fs) == [[(0, 1), (1, 0)]] * 2
    prod = fs[0] * fs[1]
    assert is_unit(exact_divide(parse("v^2 - w^2", char=3), prod))


def test_factor_mod_p_square():
    fs = factor_mod_p(parse("v^2*w^2 - 2vw + 1", char=5))
    assert len(fs) == 2 and fs[0] == fs[1]
    assert is_unit(exact_divide(parse("v^2*w^2 - 2vw + 1", char=5),
                                fs[0] * fs[1]))


def test_factor_mod_p_irreducible():
    assert len(factor_mod_p(parse(PHI3P, char=2))) == 1


def test_factor_mod_p_recombination():
    # a planted product whose pieces the recombination must find again
    f1 = parse("vw - 1", char=5)
    f2 = parse(PHI2, char=5)
    fs = factor_mod_p(f1 * f2)
    assert len(fs) == 2
    for f in fs:
        assert is_unit(exact_divide(f, f1)) or is_unit(exact_divide(f, f2))
    assert is_unit(exact_divide(f1 * f2, fs[0] * fs[1]))


def test_certify_char_p_factored():
    cert = certify(parse("vw - 1", char=5) * parse(PHI2, char=5))
    assert cert.verdict == "Factored" and len(cert.factors) == 2
    prod = cert.unit
    for f in cert.factors:
        prod = prod * f
    assert prod == parse("vw - 1", char=5) * parse(PHI2, char=5)


def test_budget_gives_inconclusive(monkeypatch):
    # outside the negative class certify gives no certificate and calls no
    # factorizer; the Kronecker image of PROD mod 5 splits into 6 factors,
    # recombined into 2, and a spent budget leaves the oracle inconclusive
    phi = parse(PROD, char=5)
    assert certify(phi) is None
    assert factor_count(phi) == 2
    monkeypatch.setattr(irreducibility, "_BUDGET", 1)
    with pytest.raises(FactorBudgetError):
        factor_mod_p(phi)
    assert factor_count(phi) is None


def test_negative_class_char3_input_splits_rigidly():
    # area2 14 < 4^2, so the rigid split decides it and finds 2 + vw^2 at
    # once; factor_mod_p spends its whole budget on it, for seconds
    phi = parse("2 + v + 2*v^2*w^2 + v^2*w^5 + v^3*w^6 + 2*v^4*w^9", char=3)
    cert = certify(phi)
    assert cert.verdict == "Factored" and len(cert.factors) == 2
    prod = cert.unit
    for f in cert.factors:
        prod = prod * f
    assert prod == phi


def test_splitting_attempts_count_against_the_budget(monkeypatch):
    # (v + 1)(v + 2) mod 5: both factors have degree 1, so the image splits
    # only by an equal-degree attempt; the first, r = t, succeeds
    phi = parse("v^2 + 3v + 2", char=5)
    with pytest.raises(FactorBudgetError):
        _univariate_factors(phi, 3, iter(()))
    assert _univariate_factors(phi, 3, iter(range(1))) == [((0, 1), (1, 1)),
                                                        ((0, 2), (1, 1))]
    # one attempt, then one recombination candidate
    monkeypatch.setattr(irreducibility, "_BUDGET", 1)
    with pytest.raises(FactorBudgetError):
        factor_mod_p(phi)
    monkeypatch.setattr(irreducibility, "_BUDGET", 2)
    assert len(factor_mod_p(phi)) == 2


def test_wide_input_outside_the_negative_class_gets_none():
    # multiplicity 0 on a wide triangle or segment: certify returns at once,
    # in every characteristic, where factoring them took seconds or did not end
    for text, char in (("1 + v^30 + w^30", 0), ("1 + v^3000", 3)):
        start = time.monotonic()
        assert certify(parse(text, char=char)) is None
        assert time.monotonic() - start < 1.0


def test_char2_splitting_tries_odd_powers_of_t():
    # the image of 1 + v^20 + w^20 mod 2 has degree 420 and 20 factors, 12
    # of degree 28; the traces of t, t^3, t^5, ... split it within 8
    # attempts, where counting through every polynomial took 512
    phi = parse("1 + v^20 + w^20", char=2)
    factors = _univariate_factors(phi, 21, iter(range(8)))
    assert sorted(f[-1][0] for f in factors) == [7] * 4 + [14] * 4 + [28] * 12


def test_polytope_cert_invariance():
    phi = parse(PHI2)
    for variant in (
        apply_gl2z(phi, ((1, 2), (0, 1))),
        apply_gl2z(phi, ((0, -1), (1, 0))),
        unit_multiply(phi, 3, 1, -2),
    ):
        assert certify(variant).verdict == "IrreduciblePolytope"


def test_cert_json():
    doc = cert_to_json(certify(parse("v^2 - 1")))
    assert doc["verdict"] == "Factored" and len(doc["factors"]) == 2
    # an irreducible verdict prints its name and reason alone
    for char in (0, 2):
        assert cert_to_json(certify(parse(PHI3P, char=char))) == {
            "verdict": "IrreduciblePolytope",
            "details": "newton polygon has no proper summand"}
