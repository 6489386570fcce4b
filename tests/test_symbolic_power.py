import random
from fractions import Fraction

import pytest
import sympy

from negcurve.herzog_semigroup import herzog_data, triangle
from negcurve.lattice_geom import convex_hull, dilate, lattice_points
from negcurve.laurent_poly import multiplicity_at_one, parse
from negcurve.symbolic_power import (
    ehrhart_polynomial,
    hilbert_numerator,
    jet_matrix,
    kernel,
    kernel_polynomials,
    lemma_eu_check,
    lemma_eu_reduce,
    nullity,
)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
P_PHI2 = convex_hull([(0, 0), (2, 1), (1, 2)])
P_PHI3 = convex_hull([(0, 0), (3, 1), (1, 3)])
P_PHI3P = convex_hull([(0, 0), (3, 1), (2, 3), (1, 2)])


def test_support_normalization():
    jm = jet_matrix([(1, 0), (0, 0), (1, 0), (0, 1)], 1)
    assert jm.support == ((0, 0), (0, 1), (1, 0))
    assert jm.rows == [[1, 1, 1]]


def test_jet_matrix_order_one():
    jm = jet_matrix(SQUARE, 1)
    assert jm.rows == [[1, 1, 1, 1]]
    assert nullity(jm) == 3
    with pytest.raises(ValueError):
        jet_matrix(SQUARE, 0)


def test_jet_matrix_centred_entries():
    # entries of the support shifted to the origin, columns on the true points
    S = ((-3, 5), (-3, 6), (-2, 5))
    jm = jet_matrix(S, 2)
    assert jm.support == S
    assert jm.rows == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert kernel_polynomials(jm) == [] and nullity(jm) == 0
    empty = jet_matrix([], 3)
    assert empty.rows == [[]] * 6
    assert kernel(empty) == [] and nullity(empty) == 0


def test_row_count():
    for r in (1, 2, 3, 5):
        jm = jet_matrix(SQUARE, r)
        assert len(jm.rows) == r * (r + 1) // 2


def test_phi2_kernel():
    jm = jet_matrix(lattice_points(P_PHI2), 2)
    assert nullity(jm) == 1
    ker = kernel_polynomials(jm)[0]
    phi2 = parse("-v^2*w - vw^2 + 3vw - 1")
    ratios = {ker.terms[e] / phi2.terms[e] for e in phi2.terms}
    assert len(ratios) == 1  # spanned by phi2
    assert multiplicity_at_one(ker) >= 2


def test_phi3p_kernel_both_chars():
    S = lattice_points(P_PHI3P)
    assert len(S) == 7
    assert nullity(jet_matrix(S, 3)) == 1
    for p in (2, 5, 7):
        jm = jet_matrix(S, 3, char=p)
        for ker in kernel_polynomials(jm):
            assert multiplicity_at_one(ker) >= 3
            assert all(isinstance(c, int) for c in ker.terms.values())


def _slice(T, d):
    """Column set of the degree-d piece: the lattice points of dT."""
    return lattice_points(dilate(T, d))


def test_symbolic_dim_9_10_13():
    T = triangle(herzog_data(9, 10, 13))
    assert nullity(jet_matrix(_slice(T, 100), 3, 2)) == 1
    assert nullity(jet_matrix(_slice(T, 100), 3)) == 0


def test_symbolic_dim_char0_window():
    # no element of order 3 in any degree small enough to go negative
    T = triangle(herzog_data(9, 10, 13))
    for d in range(1, 103):
        assert nullity(jet_matrix(_slice(T, d), 3)) == 0


def test_symbolic_dim_monotone():
    S = _slice(triangle(herzog_data(9, 10, 13)), 100)
    dims = [len(S)] + [nullity(jet_matrix(S, r, 2)) for r in (1, 2, 3)]
    assert dims == sorted(dims, reverse=True)


def test_nullity_lower_bound():
    for r in (1, 2, 3):
        S = lattice_points(dilate(P_PHI3, 2))
        jm = jet_matrix(S, r)
        assert nullity(jm) >= len(S) - r * (r + 1) // 2


def test_lemma_eu_triangle():
    S = [(0, 0), (1, 0), (0, 1)]
    S2 = lemma_eu_reduce(S, ((0, 0), (1, 0)), 2)
    assert S2 == ((0, 1),)
    assert lemma_eu_check(S, ((0, 0), (1, 0)), 2) == (0, 0)


def test_lemma_eu_tetragon():
    S = lattice_points(P_PHI3P)
    for line in (((0, 0), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (2, 2))):
        n1, n2 = lemma_eu_check(S, line, 3)
        assert n1 == n2 == 1


def test_lemma_eu_errors():
    S = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError):
        lemma_eu_reduce(S, ((0, 0), (0, 0)), 2)
    with pytest.raises(ValueError):
        lemma_eu_reduce(S, ((0, 0), (1, 0)), 3)


def test_lemma_eu_random_supports():
    rng = random.Random(31)
    done = 0
    while done < 8:
        on_line = {(x, 0) for x in rng.sample(range(-3, 6), 3)}
        off = {(rng.randint(-3, 5), rng.randint(1, 4)) for _ in range(5)}
        if len(off) != 5:
            continue
        S = on_line | off
        if len(S) != 8:
            continue
        done += 1
        n1, n2 = lemma_eu_check(S, ((0, 0), (1, 0)), 3)
        assert n1 == n2


def _ehrhart(P):
    return ehrhart_polynomial(P, lattice_points(P))


def _hilbert(P):
    return hilbert_numerator(P, lattice_points(P))


def test_ehrhart_polynomial():
    assert _ehrhart(convex_hull(SQUARE)) == (1, 2, 1)
    assert _ehrhart(P_PHI3) == (4, 2, 1)
    assert _ehrhart(P_PHI3P) == (4, 2, 1)
    c2, c1, c0 = _ehrhart(P_PHI2)
    assert (c2, c1, c0) == (Fraction(3, 2), Fraction(3, 2), 1)
    for n in range(1, 6):
        assert c2 * n * n + c1 * n + c0 == len(lattice_points(dilate(P_PHI2, n)))
    assert _ehrhart(P_PHI3P)[0] * 1 + 2 + 1 == 7  # L(1) is the count


def test_hilbert_numerator():
    assert _hilbert(convex_hull(SQUARE)) == [1, 1]
    f = _hilbert(P_PHI2)
    assert sum(f) == 3 and all(c >= 0 for c in f)
    f = _hilbert(P_PHI3)
    assert sum(f) == 8 and all(c >= 0 for c in f)


def test_nullity_prefilter_agrees():
    # the lifted kernel's size must be the nullity over Q: the columns less
    # sympy's exact rank of the jet matrix
    for S, r in ((lattice_points(dilate(P_PHI2, 3)), 2),
                 (lattice_points(P_PHI3P), 4),
                 ([(x, 0) for x in range(6)], 3)):
        jm = jet_matrix(S, r)
        assert nullity(jm) == len(S) - sympy.Matrix(jm.rows).rank()


def test_failed_prefilter_costs_one_modular_rank(eliminations):
    # six collinear points: six rows of rank 3, so the kernel is not empty;
    # it is lifted from the one elimination mod the first prime
    jm = jet_matrix([(x, 0) for x in range(6)], 3)
    from negcurve import exact_arith
    assert len(kernel(jm)) == 3
    assert eliminations == [exact_arith._PRIMES[0]]


def test_full_rank_square_kernel_skips_elimination(eliminations):
    # the order-r system on the triangle a + b < r is square and invertible:
    # sympy's exact rank over Q is full
    r = 4
    S = [(a, b) for a in range(r) for b in range(r - a)]
    jm = jet_matrix(S, r)
    assert len(jm.rows) == len(S) == sympy.Matrix(jm.rows).rank()
    from negcurve import exact_arith
    # one elimination mod the first prime each, and no further prime
    assert kernel(jm) == []
    assert nullity(jm) == 0
    assert eliminations == [exact_arith._PRIMES[0]] * 2


def test_nullity_counts_the_kernel_basis(eliminations):
    # six collinear points: six rows of rank 3, so nullity is the size of
    # the kernel basis, lifted from one elimination mod the first prime in
    # char 0 and found by one mod 2 in char 2
    jm = jet_matrix([(x, 0) for x in range(6)], 3)
    from negcurve import exact_arith
    assert nullity(jm) == 3
    assert eliminations == [exact_arith._PRIMES[0]]
    eliminations.clear()
    assert nullity(jet_matrix(jm.support, 3, char=2)) == 3
    assert eliminations == [2]


def test_unlucky_prime_falls_back_to_exact_rank(monkeypatch, eliminations):
    # mod 2 the (9,10,13) cell (3,100) has a kernel line that Q lacks; the
    # next prime's full column rank proves the kernel over Q empty
    from negcurve import exact_arith
    monkeypatch.setattr(exact_arith, "_PRIMES", (2,) + exact_arith._PRIMES[1:])
    T = triangle(herzog_data(9, 10, 13))
    jm = jet_matrix(lattice_points(dilate(T, 100)), 3)
    assert nullity(jm) == len(kernel(jm)) == 0
    # nullity counts the basis that kernel builds, at the same two eliminations
    assert eliminations == [2, 1073741789] * 2
