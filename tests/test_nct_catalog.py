import hashlib
import random
import time
from fractions import Fraction

import pytest

from negcurve import exact_arith
from negcurve.irreducibility import certify, rigid_factor
from negcurve.lattice_geom import DegeneratePolygonError, area2, lattice_points, pick_counts
from negcurve.laurent_poly import (
    multiplicity_at_one,
    multiply,
    newton_polygon,
    parse,
    serialize,
    unit_multiply,
)
from negcurve.nct_catalog import (
    _kernel_generators,
    _normalized_polygons,
    _rep_key,
    canonical_form,
    catalog,
    catalog_to_json,
    ggk_prime_family,
    is_nct,
    nct_to_json,
    phi_family,
)
from negcurve.negcurve_search import find

from factor_oracle import factor_count
from gl2z import apply_gl2z

PHI2_CANON = parse("-1 - v + 3*v*w - v^2*w^3")


def classes(r, char=0, experimental=False):
    """The canonical representatives of `catalog`'s classes."""
    return [rep for rep, _ in catalog(r, char, experimental)]


def test_accepts_family_start():
    rep = is_nct(parse("vw - 1"), 1)
    assert rep.status == "accepted" and rep.area2 == 0
    assert rep.lattice_count == 2 and rep.multiplicity == 1


def test_accepts_phi2():
    rep = is_nct(phi_family(2), 2)
    assert rep.status == "accepted"
    assert (rep.area2, rep.B, rep.I) == (3, 3, 1)


def test_rejects_square_of_unit_shift():
    rep = is_nct(parse("v^2 - 2v + 1"), 2)
    assert rep.status == "rejected"
    assert rep.certificate.verdict == "Factored"
    assert not dict(rep.checks)["irreducible"]


def test_rejects_wrong_multiplicity():
    rep = is_nct(phi_family(2), 3)
    assert rep.status == "rejected" and not dict(rep.checks)["multiplicity"]


@pytest.mark.parametrize("a, b, c, char, r, d", [(9, 10, 13, 2, 3, 100),
                                                  (8, 15, 43, 0, 9, 645)])
def test_kernel_check_settled_by_one_modular_rank(a, b, c, char, r, d, eliminations):
    # phi of multiplicity r is in the kernel; its 1-dimensional kernel is
    # found by one elimination mod the characteristic, or in char 0 lifted
    # from the one mod the first prime
    phi, _ = find(a, b, c, char, r, d)
    eliminations.clear()
    rep = is_nct(phi, r)
    assert rep.multiplicity == r
    assert dict(rep.checks)["kernel"] and rep.accepted
    assert eliminations == [char or exact_arith._PRIMES[0]]


def test_kernel_check_settled_by_known_bounds(eliminations):
    # phi of multiplicity r gives 1 from below; a caller's bound of 1 from
    # above, such as the nullity on a larger support, meets it with no
    # elimination
    rep = is_nct(phi_family(2), 2, 1)
    assert dict(rep.checks)["kernel"] and rep.accepted
    assert eliminations == []
    # without the bound the kernel is lifted from one modular elimination
    assert is_nct(phi_family(2), 2).accepted
    assert eliminations == [exact_arith._PRIMES[0]]


def test_kernel_check_settled_by_bounds_builds_no_jet_matrix(monkeypatch):
    # bounds that meet settle the kernel check before a jet matrix is built;
    # without the caller's bound it takes one
    from negcurve import nct_catalog
    real, built = nct_catalog.jet_matrix, []
    monkeypatch.setattr(nct_catalog, "jet_matrix",
                        lambda *args: built.append(args) or real(*args))
    phi = phi_family(3)
    rep = is_nct(phi, 3, most=1)
    assert rep.multiplicity == 3 and dict(rep.checks)["kernel"] and rep.accepted
    assert built == []
    assert is_nct(phi, 3).accepted and len(built) == 1


def test_wide_support_fails_the_kernel_check_with_no_jet_matrix(monkeypatch):
    # 3 jet rows at r = 2 leave at least 3321 - 3 free columns on the
    # triangle's lattice points: the nullity is at least 2 before any
    # elimination, so the check fails with no 3 x 3321 matrix to lift
    from negcurve import nct_catalog
    real, built = nct_catalog.jet_matrix, []
    monkeypatch.setattr(nct_catalog, "jet_matrix",
                        lambda *args: built.append(args) or real(*args))
    rep = is_nct(parse("1 + v^80 + w^80"), 2)
    assert rep.lattice_count == 3321 and rep.checks[-1] == ("kernel", False)
    assert built == []


def test_kernel_check_without_phi_in_kernel_is_exact(eliminations):
    # the lattice points of phi_2's triangle carry a kernel line at r = 2,
    # though phi has multiplicity 0
    rep = is_nct(parse("1 + v^2*w + vw^2 + vw"), 2)
    assert rep.multiplicity == 0 and eliminations == [exact_arith._PRIMES[0]]
    assert dict(rep.checks)["kernel"] and not rep.accepted
    # six collinear points at r = 3: nullity 3 with as many rows as columns,
    # and phi of multiplicity 0 gives no lower bound; the kernel is still
    # lifted from the first prime, with no elimination over Q
    eliminations.clear()
    rep = is_nct(parse("1 + v^5"), 3)
    assert rep.multiplicity == 0 and eliminations == [exact_arith._PRIMES[0]]
    assert not dict(rep.checks)["kernel"] and not rep.accepted


def test_report_invariant():
    for phi, r in ((phi_family(1), 1), (phi_family(2), 2), (parse("v - 2"), 1)):
        rep = is_nct(phi, r)
        assert rep.accepted == all(ok for _, ok in rep.checks)


def test_phi_family_values():
    assert phi_family(1) == parse("vw - 1")
    assert phi_family(2) == parse("-v^2*w - v*w^2 + 3*v*w - 1")
    assert phi_family(3) == parse("-1 + 6vw - 4v^2*w + v^3*w - 4vw^2 + v^2*w^2 + vw^3")
    with pytest.raises(ValueError):
        phi_family(0)


def test_phi_family_multiplicity():
    for r in range(1, 7):
        assert multiplicity_at_one(phi_family(r)) == r


def test_phi4_report():
    rep = is_nct(phi_family(4), 4)
    assert rep.accepted and rep.area2 < 16


def test_ggk_matches_translated_tetragon_kernel():
    g3 = ggk_prime_family(3)
    phi3p = parse("-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3")
    assert g3 == unit_multiply(phi3p, 1, -1, -1)


def test_ggk_polygons_and_counts():
    P4 = newton_polygon(ggk_prime_family(4))
    assert P4.vertices == ((-1, -1), (3, 0), (2, 2), (1, 3))
    assert len(lattice_points(P4)) == 11
    P5 = newton_polygon(ggk_prime_family(5))
    B, I = pick_counts(P5, lattice_points(P5))
    assert (B, I) == (6, 10)
    with pytest.raises(ValueError):
        ggk_prime_family(2)


def test_ggk_reports():
    for r in range(3, 7):
        rep = is_nct(ggk_prime_family(r), r)
        assert rep.accepted
        assert rep.lattice_count == r * (r + 1) // 2 + 1


def test_canonical_phi2():
    assert canonical_form(phi_family(2), 2) == PHI2_CANON


def test_canonical_idempotent():
    c = canonical_form(phi_family(2), 2)
    assert canonical_form(c, 2) == c


def test_canonical_invariance():
    rng = random.Random(11)
    c = canonical_form(phi_family(2), 2)
    for _ in range(6):
        u = unit_multiply(phi_family(2), Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          rng.randint(-4, 4), rng.randint(-4, 4))
        assert canonical_form(u, 2) == c
    for m in (((1, 2), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1))):
        assert canonical_form(apply_gl2z(phi_family(2), m), 2) == c


def test_canonical_segment():
    assert canonical_form(parse("vw - 1"), 1) == canonical_form(parse("v - 1"), 1)
    assert canonical_form(parse("v - 1"), 1) == parse("v - 1")
    with pytest.raises(DegeneratePolygonError):
        canonical_form(parse("v^2 - 2v + 1"), 2)
    with pytest.raises(ValueError):
        canonical_form(parse("0"), 1)


def test_normalized_polygon_pool_r2():
    assert [P.vertices for P, _ in _normalized_polygons(2)] == [
        ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (1, 0), (1, 1), (0, 1)),
        ((0, 0), (1, 0), (2, 3)),
    ]
    for _, pts in _normalized_polygons(2):
        assert len(pts) <= 4
    # the r = 3 pool in order, as the enumerator that sorted edges by a
    # Fraction angle key produced it
    pool = [P.vertices for P, _ in _normalized_polygons(3)]
    assert len(pool) == 85
    assert hashlib.sha256(repr(pool).encode()).hexdigest() == \
        "8e9b9c16d2448552b4dd28bab34f7b48028d1efedd08f2fff695ebf8d0d031db"


@pytest.mark.parametrize("r", [2, 3])
def test_normalized_polygon_pool_bounds_and_pick(r):
    # the enumerator prunes on twice the area and on the lattice count from
    # Pick, (area2 + B + 2) // 2, before it lists the points it yields
    for P, pts in _normalized_polygons(r):
        assert pts == lattice_points(P)
        A2 = area2(P)
        B, _ = pick_counts(P, pts)
        assert A2 < r * r
        assert len(pts) <= r * (r + 1) // 2 + 1
        assert (A2 + B + 2) // 2 == len(pts)


def test_normalized_polygon_pool_r4():
    # captured from the enumerator that took the convex hull of every chain
    pool = [P.vertices for P, _ in _normalized_polygons(4)]
    assert len(pool) == 1395
    assert hashlib.sha256(repr(pool).encode()).hexdigest() == \
        "9ad1afe01e61e22a8bcd42d48b205e751bac048099a9f0a12f3c066841e88197"


@pytest.mark.long
def test_normalized_polygon_pool_r5():
    # captured from the enumerator that tested every Omega grid point per
    # chain and listed the points of every chain, in about 55 s
    start = time.monotonic()
    pool = [P.vertices for P, _ in _normalized_polygons(5)]
    wall = time.monotonic() - start
    assert len(pool) == 17617
    assert hashlib.sha256(repr(pool).encode()).hexdigest() == \
        "6a89b68cad87cf809efc99dd1f3afc650a505c8b357e0725f384bc5114137976"
    assert wall < 15.0


def test_classify_r1():
    assert classes(1) == [parse("v - 1")]
    assert classes(1, char=3) == [parse("v - 1", char=3)]


def test_classify_r2():
    assert classes(2) == [PHI2_CANON]


def test_classify_r2_char_p():
    for p in (3, 5):
        reps = classes(2, char=p)
        assert len(reps) == 1
        assert reps[0] == canonical_form(phi_family(2).reduce_mod(p), 2)


def test_classify_guard():
    with pytest.raises(ValueError, match="--experimental"):
        classes(3)
    with pytest.raises(ValueError, match="--experimental"):
        classes(4)
    with pytest.raises(ValueError, match="beyond r = 4"):
        classes(5, experimental=True)


def test_classify_r3_two_classes():
    reps = classes(3, experimental=True)
    assert len(reps) == 2
    assert canonical_form(phi_family(3), 3) in reps
    assert canonical_form(ggk_prime_family(3), 3) in reps


def test_catalog_checks_each_canonical_form_once(monkeypatch):
    # 40 kernel generators at r = 3 fall into 5 canonical forms, each checked
    # once: 3 split, so their certificates read Factored, and 2 are accepted
    from negcurve import nct_catalog
    assert len(_kernel_generators(3, 0)) == 40
    real_is_nct, checked = nct_catalog.is_nct, []

    def is_nct(phi, r):
        checked.append((phi, real_is_nct(phi, r)))
        return checked[-1][1]

    monkeypatch.setattr(nct_catalog, "is_nct", is_nct)
    entries = catalog(3, experimental=True)
    assert len(checked) == 5
    assert sum(rep.certificate.verdict == "Factored" for _, rep in checked) == 3
    assert sorted(_rep_key(phi) for phi, rep in checked if rep.accepted) \
        == [_rep_key(rep) for rep, _ in entries]


@pytest.mark.parametrize("r, char", [(r, char) for r in (2, 3) for char in (0, 2, 3)]
                         + [pytest.param(4, 0, marks=pytest.mark.long)])
def test_split_check_agrees_with_certificate(r, char):
    # the factorizers are the oracles, called directly: sympy's factor_list
    # over ZZ[v, w] (char 0) and factor_mod_p (char p); every canonical form
    # catalog builds is negative-class, so it has a rigid split, and a
    # Factored certificate, exactly when it has more than one factor
    forms = {}
    for psi in _kernel_generators(r, char):
        rep = canonical_form(psi, r)
        forms[_rep_key(rep)] = rep
    for rep in forms.values():
        count = factor_count(rep)
        if count is None:
            continue  # factor_mod_p spent its budget
        assert (rigid_factor(rep) is not None) == (count > 1), serialize(rep)
        assert (certify(rep).verdict == "Factored") == (count > 1), serialize(rep)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_planted_product_splits(char):
    prod = multiply(parse("vw - 1"), phi_family(2))
    phi = unit_multiply(apply_gl2z(prod, ((2, 1), (1, 1))), 1, 3, -2)
    phi = phi.reduce_mod(char) if char else phi
    assert factor_count(phi) == 2
    assert rigid_factor(phi) is not None


def test_families_do_not_split():
    for phi in (phi_family(3), ggk_prime_family(3)):
        assert factor_count(phi) == 1
        assert rigid_factor(phi) is None


def test_lone_generator_must_divide_to_split():
    # the summand segment (0,0)-(3,-1) spans the lone order-1 kernel
    # generator v^3 w^-1 - 1, which does not divide this irreducible phi;
    # with area2 12 >= 2^2 it is not negative-class, so certify factors it
    phi = parse("-3w + w^2 - 3w^3 + 3vw + 3vw^2 + 3v^2*w - 3v^3 - v^3*w^2")
    assert multiplicity_at_one(phi) == 2
    assert factor_count(phi) == 1
    assert certify(phi).verdict == "IrreducibleOverQ"
    assert rigid_factor(phi) is None


@pytest.mark.parametrize("char", [2, 3])
def test_classify_r4_never_factors(monkeypatch, char):
    # every form is negative-class: the rigid split decides each one
    from negcurve import irreducibility

    def factor_mod_p(phi):
        raise AssertionError("factor_mod_p called")

    monkeypatch.setattr(irreducibility, "factor_mod_p", factor_mod_p)
    verdicts = {report.certificate.verdict for _, report in catalog(4, char, True)}
    assert verdicts == {"IrreduciblePolytope", "IrreducibleByRigidity"}


@pytest.mark.long
def test_classify_r4_holds_both_families():
    # no statement fixes the full count at r = 4, so none is asserted
    t0 = time.monotonic()
    entries = catalog(4, experimental=True)
    assert time.monotonic() - t0 < 10
    assert all(report.accepted for _, report in entries)
    reps = [rep for rep, _ in entries]
    assert canonical_form(phi_family(4), 4) in reps
    assert canonical_form(ggk_prime_family(4), 4) in reps


def test_catalog_json():
    doc = catalog_to_json(2)
    assert doc["r"] == 2 and len(doc["classes"]) == 1
    rep = doc["classes"][0]["report"]
    assert rep["status"] == "accepted" and rep["area2"] == 3
    assert ["kernel", True] in rep["checks"]


def test_pick_identity_on_accepted():
    for phi, r in ((phi_family(2), 2), (phi_family(3), 3), (ggk_prime_family(4), 4)):
        rep = is_nct(phi, r)
        assert rep.accepted
        assert 2 * rep.I + rep.B - 2 == rep.area2


def test_equivalence_invariance_of_report():
    phi = phi_family(2)
    base = is_nct(phi, 2)
    for psi in (unit_multiply(phi, 7, 2, -1), apply_gl2z(phi, ((1, 1), (0, 1)))):
        rep = is_nct(psi, 2)
        assert rep.status == base.status
        assert (rep.area2, rep.B, rep.I) == (base.area2, base.B, base.I)


def test_json_roundtrip_fields():
    rep = nct_to_json(is_nct(phi_family(2), 2))
    assert set(rep) == {"r", "area2", "B", "I", "lattice_count", "multiplicity",
                        "status", "certificate", "checks"}
