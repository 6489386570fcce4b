from collections import Counter
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from negcurve import negcurve_search
from negcurve.herzog_semigroup import herzog_data, triangle
from negcurve.lattice_geom import convex_hull, dilate, lattice_points, pick_counts
from negcurve.irreducibility import certify
from negcurve.laurent_poly import newton_polygon, parse, serialize
from negcurve.nct_catalog import _splits, canonical_form
from negcurve.negcurve_search import (
    Cell,
    _report,
    cell_region,
    find,
    is_negative_pair,
    negcurve_to_json,
    region_size,
    scan,
    walk,
)
from negcurve.symbolic_power import jet_matrix, kernel, kernel_polynomials, nullity


def test_is_negative_pair():
    assert is_negative_pair(9, 10, 13, 3, 100)
    assert not is_negative_pair(9, 10, 13, 3, 103)
    assert is_negative_pair(2, 3, 5, 1, 0)


def test_find_char2_curve():
    phi, rep = find(9, 10, 13, 2, 3, 100)
    assert rep.accepted and rep.status == "accepted"
    assert rep.nct.accepted
    assert rep.genus == 0 and rep.nullity == 1
    phi3p = parse("-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3", char=2)
    assert canonical_form(phi, 3) == canonical_form(phi3p, 3)


def test_find_char0_has_nothing():
    for d in (98, 99, 100, 101, 102):
        assert find(9, 10, 13, 0, 3, d) is None


def test_find_pentagon():
    phi, rep = find(8, 15, 43, 0, 9, 645)
    P = newton_polygon(phi)
    assert len(P.vertices) == 5
    assert pick_counts(P, lattice_points(P)) == (9, 36)
    assert len(lattice_points(P)) == 45
    assert rep.accepted and rep.genus == 0 and rep.nullity == 1


@pytest.mark.parametrize("a, b, c, r, d", [(8, 15, 43, 9, 645), (5, 33, 49, 18, 1617)])
def test_hit_kernel_is_lifted(a, b, c, r, d, eliminations):
    # the hit's kernel is lifted from one elimination mod the first prime,
    # and the nct check reads its nullity from that kernel: no elimination
    # over Q (no Bareiss fallback), and no second one mod p
    from negcurve import exact_arith
    phi, rep = find(a, b, c, 0, r, d)
    assert rep.accepted and rep.nullity == 1 and dict(rep.nct.checks)["kernel"]
    assert eliminations == [exact_arith._PRIMES[0]]


def test_hit_builds_one_jet_matrix(monkeypatch):
    # the cell's jet matrix is the only one: its nullity 1 bounds the nct
    # kernel check on the hit's Newton polygon, which is then settled
    from negcurve import nct_catalog, symbolic_power
    built = []

    def counted(points, r, char=0):
        built.append((r, char))
        return symbolic_power.jet_matrix(points, r, char)

    for module in (negcurve_search, nct_catalog):
        monkeypatch.setattr(module, "jet_matrix", counted)
    for a, b, c, char, r, d in ((9, 10, 13, 2, 3, 100), (8, 15, 43, 0, 9, 645)):
        built.clear()
        _, rep = find(a, b, c, char, r, d)
        assert rep.accepted and dict(rep.nct.checks)["kernel"]
        assert built == [(r, char)]


def test_found_dim_is_one():
    # the negative curve spans the whole graded piece
    T = triangle(herzog_data(9, 10, 13))
    assert nullity(jet_matrix(lattice_points(dilate(T, 100)), 3, 2)) == 1
    T = triangle(herzog_data(8, 15, 43))
    assert nullity(jet_matrix(lattice_points(dilate(T, 645)), 9)) == 1


def test_scan_9_10_13():
    hits = scan(9, 10, 13, 2, 3)
    assert [(r, d) for r, d, _ in hits] == [(3, 100)]
    assert scan(9, 10, 13, 0, 3) == []


def test_scan_3_7_8():
    hits = scan(3, 7, 8, 0, 2)
    assert hits and hits[0][0] <= 2
    r, d, rep = hits[0]
    assert rep.accepted
    assert d * d < 168 * r * r


def test_scan_d_filter_and_order():
    hits = scan(9, 10, 13, 2, 3, d_filter={100})
    assert [(r, d) for r, d, _ in hits] == [(3, 100)]
    assert scan(9, 10, 13, 2, 3, d_filter={99}) == []
    with pytest.raises(ValueError):
        scan(9, 10, 13, 2, 0)
    # abc = 1170: d runs up to 34 at r = 1 and up to 68 at r = 2
    region = cell_region(9, 10, 13, 2, {0, 30, 40, 1000})
    assert [(r, list(ds)) for r, ds in region] == [(1, [30]), (2, [30, 40])]
    assert [len(ds) for _, ds in cell_region(9, 10, 13, 2)] == [34, 68]


@pytest.mark.parametrize("a, b, c, r_max, d_filter", [
    (9, 10, 13, 2, None), (9, 10, 13, 2, {0, 30, 40, 1000}),
    (5, 33, 49, 18, None), (2, 3, 5, 300, None), (8, 15, 43, 9, {645, 646}),
])
def test_region_size_counts_cell_region(a, b, c, r_max, d_filter):
    assert region_size(a, b, c, r_max, d_filter) == sum(
        len(ds) for _, ds in cell_region(a, b, c, r_max, d_filter))


def test_region_size_checks_like_cell_region():
    for args in ((2, 4, 5, 3), (0, 1, 2, 3), (9, 10, 13, 0)):
        with pytest.raises(ValueError):
            region_size(*args)


def _exhaustive(a, b, c, char, r_max, hit, d_filter=None):
    """Cells of the whole region, r-major, where hit(r, d) holds."""
    return [(r, d) for r, ds in cell_region(a, b, c, r_max, d_filter)
            for d in ds if hit(r, d)]


coprime_triples = st.tuples(st.integers(2, 9), st.integers(2, 11),
                            st.integers(2, 13)).filter(
    lambda t: len(set(t)) == 3 and all(gcd(x, y) == 1 for x in t for y in t
                                       if x != y))


@settings(max_examples=12)
@given(coprime_triples, st.integers(1, 3), st.sampled_from((0, 2)))
def test_scan_matches_exhaustive_find(triple, r_max, char):
    a, b, c = triple
    expected = _exhaustive(a, b, c, char, r_max,
                           lambda r, d: find(a, b, c, char, r, d) is not None)
    assert [(r, d) for r, d, _ in scan(a, b, c, char, r_max)] == expected


@settings(max_examples=12)
@given(coprime_triples, st.integers(1, 3), st.sampled_from((0, 2)),
       st.none() | st.sets(st.integers(1, 110), min_size=1, max_size=12))
def test_scan_skips_only_empty_cells(triple, r_max, char, d_filter):
    # the capped walk yields each cell of the region once, and every cell
    # it does not visit has an empty kernel; a visited cell carries its
    # kernel dimension, and only a cell of nullity 1 carries a report
    a, b, c = triple
    T = triangle(herzog_data(a, b, c))
    cells = list(walk(a, b, c, char, r_max, d_filter))
    region = _exhaustive(a, b, c, char, r_max, lambda r, d: True, d_filter)
    assert sorted((cell.r, cell.d) for cell in cells) == sorted(region)
    for r, d, why, null, report in cells:
        size = len(kernel(jet_matrix(lattice_points(dilate(T, d)), r, char)))
        if why == "visited":
            assert null == size
        else:
            assert (size, null, report) == (0, None, None)
        assert report is None or null == 1


def test_scan_walk_counts(monkeypatch):
    calls = {"herzog_data": 0, "triangle": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(negcurve_search, "herzog_data",
                        counted("herzog_data", herzog_data))
    monkeypatch.setattr(negcurve_search, "triangle", counted("triangle", triangle))
    seen = list(walk(8, 15, 43, 0, 9))
    assert [(r, d) for r, d, *_, report in seen if report] == [(9, 645)]
    assert calls == {"herzog_data": 1, "triangle": 1}
    # 646 degrees in 3227 cells: 72 degrees visit one cell each, d = 65 is
    # built without lattice points, and every other cell lies at or above
    # the cap of a higher degree
    assert len(seen) == 3227
    assert Counter(cell.why for cell in seen) == {
        "visited": 72, "capped": 3146, "no points": 9}
    visited = [cell.d for cell in seen if cell.why == "visited"]
    assert len(set(visited)) == 72
    assert {cell.d for cell in seen if cell.why == "no points"} == {65}


def test_scan_reaches_every_kernel_across_r(monkeypatch):
    # accept every kernel element, split ones included, so that every
    # visited cell with a kernel is a hit: the capped walk must still reach
    # each of them
    monkeypatch.setattr(negcurve_search, "_splits", lambda phi: False)
    monkeypatch.setattr(negcurve_search, "_report",
                        lambda *args: SimpleNamespace(accepted=True))
    T = triangle(herzog_data(2, 3, 5))
    expected = _exhaustive(2, 3, 5, 0, 3, lambda r, d: kernel(jet_matrix(
        lattice_points(dilate(T, d)), r, 0)))
    assert expected == [(1, 5), (2, 10), (3, 15), (3, 16)]
    seen = list(walk(2, 3, 5, 0, 3))
    assert sorted((r, d) for r, d, *_, report in seen if report) == expected
    # degrees from the top: (3, 14) and (3, 13) are empty, which caps d = 12
    # and 11 at r = 3 and d = 10 above r = 2; the empty (1, 4) caps d = 2
    # at r = 1, and d = 1 is capped before its lattice points are built
    assert [(r, d) for r, d, why, *_ in seen if why == "visited"] == [
        (3, 16), (3, 15), (3, 14), (3, 13), (2, 10), (2, 9), (2, 8),
        (1, 5), (1, 4), (1, 3)]
    assert {cell.why for cell in seen} == {"visited", "capped"}
    assert len(seen) == 31


def _every_cell(triple, char, T, d, lo, cap):
    """A stand-in walk that visits every r below the cap, hits each, and
    never finds an empty kernel."""
    return [Cell(r, d, "visited", 1, (r, d)) for r in range(lo, cap)], cap


def test_scan_sorts_hits_by_r(monkeypatch):
    # the walk is degree-major; the hits must still come back r-major
    monkeypatch.setattr(negcurve_search, "_degree_cells", _every_cell)
    ds = set(range(30, 41))  # r = 1 reaches d = 34, r = 2 and 3 all of them
    expected = [(r, d) for r, dr in cell_region(9, 10, 13, 3, ds) for d in dr]
    hits = scan(9, 10, 13, 2, 3, d_filter=ds)
    assert [(r, d) for r, d, _ in hits] == expected


def test_walk_reasons_capped_and_after_empty():
    # the empty (1, 20) proves (1, 10) empty
    assert list(walk(9, 10, 13, 2, 1, {10, 20})) == [
        Cell(1, 20, "visited", 0, None), Cell(1, 10, "capped", None, None)]
    assert list(walk(9, 10, 13, 2, 2, {30})) == [
        Cell(1, 30, "visited", 0, None), Cell(2, 30, "after empty", None, None)]


def test_genus_payload():
    def genus(a, b, c, r, d):
        T = triangle(herzog_data(a, b, c))
        return negcurve_search._genus(lattice_points(dilate(T, d)), r)

    assert find(9, 10, 13, 2, 3, 100)[1].genus == 0
    assert genus(8, 15, 43, 9, 645) == 0
    assert genus(3, 7, 8, 2, 24) == 0
    for d in (3, 4, 5):
        assert genus(2, 3, 5, 1, d) == 0
    # no curve at these cells; the count formula signals it by going negative
    assert genus(9, 10, 13, 5, 100) < 0
    assert genus(3, 7, 8, 2, 25) < 0


def test_report_json():
    _, rep = find(9, 10, 13, 2, 3, 100)
    doc = negcurve_to_json(rep)
    assert doc["triple"] == [9, 10, 13] and doc["char"] == 2
    assert (doc["r"], doc["d"]) == (3, 100)
    assert doc["status"] == "accepted" and doc["genus"] == 0
    assert doc["nullity"] == 1
    assert ["edge_touching", True] in doc["checks"]
    assert ["jet_membership", True] in doc["checks"]


def test_report_jet_membership_is_computed():
    # phi2 vanishes to order 2 only, so it is no member of the order-3 piece
    phi = parse("-v^2*w - vw^2 + 3vw - 1")
    P = newton_polygon(phi)
    rep = _report((9, 10, 13), 0, 3, 100, phi, P, lattice_points(P))
    assert rep.nct.multiplicity == 2
    doc = negcurve_to_json(rep)
    assert ["jet_membership", False] in doc["checks"]
    assert doc["status"] == "rejected"
    assert ["edge_touching", True] in doc["checks"]
    # in the box [0, 3]^2 the support misses the edge x = 3
    box = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
    rep = _report((9, 10, 13), 0, 3, 100, phi, box, lattice_points(box))
    assert ["edge_touching", False] in negcurve_to_json(rep)["checks"]


def test_find_factoring_probe_finishes():
    # the cell's lone kernel generator splits, so find rejects it without a
    # certificate; certified, it has 47 Kronecker factors, 25 of them copies
    # of 1 + t: the recombination must count distinct factor subsets, not
    # every index combination
    assert find(9, 10, 13, 2, 11, 372) is None
    T = triangle(herzog_data(9, 10, 13))
    [phi] = kernel_polynomials(jet_matrix(lattice_points(dilate(T, 372)), 11, 2))
    cert = certify(phi)
    assert cert.verdict == "Factored" and len(cert.factors) == 5


def _scan_cells(monkeypatch, *args):
    """(r, d, dP, basis) for each cell that scan(*args) visits, in order."""
    cells, at = [], {}

    def noted(name, note):
        real = getattr(negcurve_search, name)

        def wrapper(*a):
            out = real(*a)
            note(a, out)
            return out
        monkeypatch.setattr(negcurve_search, name, wrapper)

    noted("dilate", lambda a, dP: at.update(d=a[1], dP=dP))
    noted("jet_matrix", lambda a, jm: at.update(r=a[1]))
    noted("kernel_polynomials",
          lambda a, basis: cells.append((at["r"], at["d"], at["dP"], basis)))
    scan(*args)
    return cells


@pytest.mark.parametrize("args, met", [
    ((9, 10, 13, 2, 8), 6), ((9, 10, 13, 3, 8), 12), ((7, 11, 17, 0, 4), 32)])
def test_scan_split_check_agrees_with_certificate(monkeypatch, args, met):
    # certify is the oracle: a split is a factorization in every
    # characteristic, on every generator of every visited cell; the split
    # check meets the `met` generators of nullity 1, and on each of them,
    # segment or polygon, every factoring generator splits (see
    # `nct_catalog._splits`)
    gens = [(phi, len(basis)) for *_, basis in _scan_cells(monkeypatch, *args)
            for phi in basis]
    assert sum(null == 1 for _, null in gens) == met
    for phi, null in gens:
        split, factored = _splits(phi), certify(phi).verdict == "Factored"
        assert factored or not split, serialize(phi)
        if null == 1:
            assert split == factored, serialize(phi)


@pytest.mark.parametrize("char", [0, 2])
def test_cells_beyond_nullity_one_hold_no_hit(monkeypatch, char):
    # by the uniqueness of the negative curve (see `_degree_cells`) the scan
    # tries only a cell's lone generator: `_report`'s four curve checks
    # reject every generator of the 22 cells of nullity >= 2 that
    # scan(7, 11, 17, char, 6) visits, so trying them would find nothing
    # (the nct kernel check, which takes the cell's nullity as 1, is not
    # among the four)
    triple = (7, 11, 17)
    cells = [cell for cell in _scan_cells(monkeypatch, *triple, char, 6)
             if len(cell[3]) > 1]
    assert (len(cells), sum(len(basis) for *_, basis in cells)) == (22, 47)
    for r, d, dP, basis in cells:
        pts = lattice_points(dP)
        for phi in basis:
            report = _report(triple, char, r, d, phi, dP, pts)
            assert not report.accepted, serialize(phi)


def test_scan_never_factors_a_segment(monkeypatch):
    # the 7, 11, 17 scan's reducible candidates are mostly segments of
    # multiplicity >= 1; each splits, so none reaches factor_mod_p
    from negcurve import irreducibility
    real, calls = irreducibility.factor_mod_p, []

    def factor_mod_p(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(irreducibility, "factor_mod_p", factor_mod_p)
    hits = scan(7, 11, 17, 2, 6)
    assert [(r, d) for r, d, _ in hits] == [(1, 28)]
    assert calls == []


def test_char_p_scan_certifies_only_the_hit(monkeypatch):
    # five of the six generators met split, and the hit's polygon is
    # indecomposable, so nothing reaches factor_mod_p
    from negcurve import irreducibility, nct_catalog
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    counted(nct_catalog, "certify")
    counted(irreducibility, "factor_mod_p")
    hits = scan(9, 10, 13, 2, 8)
    assert [(r, d) for r, d, _ in hits] == [(3, 100)]
    assert calls == {"certify": 1}


@pytest.mark.parametrize("a, b, c, char, r, d", [
    (9, 10, 13, 2, 3, 100), (5, 33, 49, 0, 18, 1617)])
def test_indecomposable_split_check_skips_multiplicity(monkeypatch, a, b, c, char, r, d):
    # both hits have an indecomposable Newton polygon, so the split check
    # returns before it computes a multiplicity
    from negcurve import nct_catalog
    phi, _ = find(a, b, c, char, r, d)

    def multiplicity(phi):
        raise AssertionError("multiplicity computed")

    monkeypatch.setattr(nct_catalog, "multiplicity_at_one", multiplicity)
    assert not _splits(phi)


@pytest.mark.long
def test_find_5_33_49():
    phi, rep = find(5, 33, 49, 0, 18, 1617)
    assert rep.accepted
    P = newton_polygon(phi)
    assert pick_counts(P, lattice_points(P))[1] == 153
