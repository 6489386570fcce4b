"""Randomized invariant checks tying the modules against each other."""

import functools
import random
from fractions import Fraction
from itertools import combinations, count
from math import ceil, comb, floor, gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from negcurve import exact_arith, irreducibility
from negcurve.exact_arith import (nullspace, rank_mod_p, rational_rank,
                                  smith_normal_form)
from negcurve.irreducibility import (_decode, _dense, _distinct_combinations,
                                     _pmul, _univariate_factors, certify)
from negcurve.lattice_geom import (IntegralPolygon, RationalPolygon, area2,
                                   collinear_exceeds, convex_hull, dilate,
                                   lattice_count, lattice_points,
                                   normalized_maps, omega_contains,
                                   pick_counts)
from negcurve.laurent_poly import (LaurentPoly, multiplicity_at_one, multiply,
                                   newton_polygon, parse, to_text, unit_multiply)
from negcurve.nct_catalog import (canonical_form, catalog, ggk_prime_family,
                                  is_nct, phi_family)
from negcurve.symbolic_power import (_rank_mod_2, ehrhart_polynomial,
                                     graded_piece, hilbert_numerator,
                                     jet_matrix, kernel, kernel_polynomials,
                                     lemma_eu_check, nullity)
from negcurve.toric_surface import (IMPLICATIONS, divisor_square,
                                    k2_via_refinement, normal_fan,
                                    thm36_report)

from factor_oracle import factor_count
from gl2z import apply_gl2z

points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@st.composite
def polygons(draw):
    P = convex_hull(draw(st.sets(points, min_size=3, max_size=10)))
    assume(P.dim == 2)
    return P


def laurent(char, min_size=1):
    coeff = st.integers(-9, 9).filter(lambda c: c and (char == 0 or c % char))
    pts = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(pts, coeff, min_size=min_size, max_size=6).map(
        lambda d: LaurentPoly(d, char))


@given(polygons())
def test_pick_identity(P):
    B, I = pick_counts(P, lattice_points(P))
    assert area2(P) == 2 * I + B - 2


def _hilbert_numerator_reference(P, N=8):
    """(1-s)^3 times the series of dilation counts, truncated at s^N."""
    c = [0, 0, 0, 1] + [len(lattice_points(dilate(P, n))) for n in range(1, N + 1)]
    f = [c[k + 3] - 3 * c[k + 2] + 3 * c[k + 1] - c[k] for k in range(N + 1)]
    while f and f[-1] == 0:
        f.pop()
    return f


@given(polygons())
def test_hilbert_numerator_matches_dilation_counts(P):
    # the numerator of a lattice polygon has degree at most 2, so the
    # truncation at s^8 leaves a vanishing tail
    assert hilbert_numerator(P, lattice_points(P)) == _hilbert_numerator_reference(P)


@given(polygons())
def test_ehrhart_polynomial_matches_dilation_counts(P):
    # the ehrhart command prints these values as its counts
    c2, c1, c0 = ehrhart_polynomial(P, lattice_points(P))
    for n in range(1, 7):
        assert c2 * n * n + c1 * n + c0 == len(lattice_points(dilate(P, n)))


@st.composite
def point_hulls(draw):
    """Hull of 1-6 points, integral or with denominators up to 7, often collinear."""
    rational = draw(st.booleans())
    coord = st.builds(Fraction, st.integers(-20, 20) if rational else st.integers(-5, 5),
                      st.integers(1, 7) if rational else st.just(1))
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        base = draw(st.tuples(coord, coord))
        d = draw(st.tuples(coord, coord))
        ts = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        pts = [(base[0] + t * d[0], base[1] + t * d[1]) for t in ts]
    else:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k))
    return RationalPolygon(pts) if rational else IntegralPolygon(pts)


@given(point_hulls(), st.integers(1, 6))
def test_lattice_count_matches_listing(P, n):
    Q = dilate(P, n)
    assert lattice_count(Q) == len(lattice_points(Q))
    # dilate keeps P's hull list, scaled: the hull of the scaled vertices
    R = type(P)([(n * x, n * y) for x, y in P.vertices])
    assert type(Q) is type(P) and Q == R and Q.dim == R.dim == P.dim


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _brute_force_points(P):
    """(lattice points, boundary points) of P from its bounding box."""
    vs = P.vertices
    box = [(x, y)
           for x in range(floor(min(v[0] for v in vs)), ceil(max(v[0] for v in vs)) + 1)
           for y in range(floor(min(v[1] for v in vs)), ceil(max(v[1] for v in vs)) + 1)]
    if P.dim < 2:
        # on the line through both ends and lex between them; a point is
        # the segment from a vertex to itself
        a, b = vs[0], vs[-1]
        inside = [q for q in box if _cross(a, b, q) == 0 and a <= q <= b]
        return inside, inside
    sides = list(zip(vs, vs[1:] + vs[:1]))
    inside = [q for q in box if all(_cross(a, b, q) >= 0 for a, b in sides)]
    return inside, [q for q in inside if any(_cross(a, b, q) == 0 for a, b in sides)]


@settings(max_examples=100)
@given(point_hulls())
def test_lattice_points_match_brute_force(P):
    inside, boundary = _brute_force_points(P)
    assert lattice_points(P) == inside
    assert pick_counts(P, inside) == (len(boundary), len(inside) - len(boundary))


def _sqrt_sum_leq(a1, a2, a):
    """Exact test of sqrt(a1) + sqrt(a2) <= sqrt(a) for nonnegative integers."""
    s = a - a1 - a2
    return s >= 0 and 4 * a1 * a2 <= s * s


def test_sqrt_sum_leq():
    assert _sqrt_sum_leq(1, 1, 4)
    assert not _sqrt_sum_leq(1, 1, 3)
    assert _sqrt_sum_leq(2, 8, 18)
    assert not _sqrt_sum_leq(2, 8, 17)


@given(polygons(), polygons())
def test_brunn_minkowski(P, Q):
    total = convex_hull([(p[0] + q[0], p[1] + q[1])
                         for p in P.vertices for q in Q.vertices])
    assert _sqrt_sum_leq(area2(P), area2(Q), area2(total))


@st.composite
def poly_pairs(draw):
    char = draw(st.sampled_from((0, 2, 5)))
    return draw(laurent(char)), draw(laurent(char))


@given(poly_pairs())
def test_product_newton_polygon_is_minkowski_sum(pair):
    f, g = pair
    lhs = newton_polygon(multiply(f, g))
    rhs = convex_hull([(p[0] + q[0], p[1] + q[1])
                       for p in f.support() for q in g.support()])
    assert lhs.vertices == rhs.vertices


@given(poly_pairs())
def test_multiplicity_additive_in_products(pair):
    f, g = pair
    assert multiplicity_at_one(multiply(f, g)) \
        == multiplicity_at_one(f) + multiplicity_at_one(g)


@given(st.sets(points, min_size=1, max_size=10), st.integers(1, 3),
       st.sampled_from((0, 2, 5)))
def test_jet_kernel_round_trip(pts, r, char):
    jm = jet_matrix(pts, r, char)
    polys = kernel_polynomials(jm)
    assert len(polys) == len(kernel(jm)) == nullity(jm)
    for phi in polys:
        assert phi.char == char
        assert set(phi.support()) <= pts
        assert multiplicity_at_one(phi) >= r


@given(st.sets(points, min_size=1, max_size=10), st.sampled_from((0, 2, 3)))
def test_kernel_never_grows_with_r(pts, char):
    # the order-r jet rows are among the order-(r+1) rows on a fixed support,
    # which is what lets a scan stop a degree at its first empty kernel
    dims = [len(kernel(jet_matrix(pts, r, char))) for r in range(1, 6)]
    assert dims == sorted(dims, reverse=True)


@given(st.sets(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=30),
       st.integers(1, 8))
def test_lucas_bit_rows_have_the_mod_2_jet_rank(pts, r):
    jm = jet_matrix(pts, r, 2)
    ncols = len(jm.support)
    assert _rank_mod_2(pts, r) == ncols - len(nullspace(jm.rows, ncols, 2))


@given(st.sets(points, min_size=1, max_size=15), st.integers(1, 5),
       st.sampled_from((0, 2, 3)))
def test_graded_piece_is_the_jet_kernel(pts, r, char):
    assert graded_piece(pts, r, char) == kernel_polynomials(jet_matrix(pts, r, char))


def binomial(n, k):
    """Generalized binomial n(n-1)...(n-k+1)/k!, exact for any integer n.

    The jets of the package centre their support, so they read `math.comb`
    only; this is the oracle on the raw, uncentred support.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n >= 0:
        return comb(n, k)
    # binomial(n,k) = (-1)^k binomial(k-n-1, k) for n < 0
    return (-1) ** k * comb(k - n - 1, k)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 4) == 1
    assert binomial(3, 5) == 0
    # negative upper index: (-1)^k * C(k - n - 1, k)
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(-3, 0) == 1
    assert binomial(-2, 1) == -2


def test_binomial_pascal_spot():
    for n in range(-6, 8):
        for k in range(1, 7):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def _uncentred_rows(S, r, char):
    """Jet rows with the raw entries C(a, i) * C(b, j), negative a and b too."""
    rows = [[binomial(a, i) * binomial(b, j) for a, b in S]
            for i in range(r) for j in range(r - i)]
    return [[e % char for e in row] for row in rows] if char else rows


@given(st.sets(points, min_size=1, max_size=10), st.integers(1, 3),
       st.sampled_from((0, 2, 3)),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_jet_matrix_translation_invariant(pts, r, char, shift):
    # multiplying by v^alpha w^beta moves the support and nothing else
    T = [(a + shift[0], b + shift[1]) for a, b in pts]
    jm, jt = jet_matrix(pts, r, char), jet_matrix(T, r, char)
    assert jt.rows == jm.rows
    assert kernel(jt) == kernel(jm)
    # the raw entries, before centring, give the same kernel
    assert kernel(jm) == nullspace(_uncentred_rows(jm.support, r, char),
                                   len(pts), char)


def _multiplicity_reference(phi):
    """Order of vanishing from the raw jets, on the uncentred support."""
    def jet(i, j):
        val = sum(c * binomial(a, i) * binomial(b, j)
                  for (a, b), c in phi.terms.items())
        return val % phi.char if phi.char else val

    s = 0
    while all(jet(i, s - i) == 0 for i in range(s + 1)):
        s += 1
    return s


@given(poly_pairs(), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(1, 6))
def test_multiplicity_matches_raw_jets(pair, alpha, beta, den):
    f, g = pair
    scale = 1 if f.char else Fraction(1, den)
    phi = unit_multiply(multiply(f, g), scale, alpha, beta)
    m = _multiplicity_reference(phi)
    # any lower bound the caller knows gives the same multiplicity
    assert multiplicity_at_one(phi) == multiplicity_at_one(phi, m) == m
    assert multiplicity_at_one(phi, m // 2) == m


@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.sampled_from((2, 3, 5, 7)))
def test_modular_rank_never_exceeds_rational(rows, p):
    assert rank_mod_p(rows, p) <= rational_rank(rows)


def _kernel_gauss_jordan(rows, ncols, p):
    """Reference kernel by Gauss-Jordan, first nonzero entry scaled to 1.

    Over F_p for a prime p, over Q in Fractions for p = 0.
    """
    field = (lambda x: x % p) if p else Fraction
    inverse = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / x)
    rows = [[field(x) for x in row] for row in rows]
    pr = 0
    pivots = []
    for pc in range(ncols):
        pivot = None
        for i in range(pr, len(rows)):
            if rows[i][pc]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = inverse(rows[pr][pc])
        rows[pr] = [field(x * inv) for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [field(a - f * b) for a, b in zip(rows[i], rows[pr])]
        pivots.append((pr, pc))
        pr += 1
        if pr == len(rows):
            break
    pivot_cols = [pc for _, pc in pivots]
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [field(0)] * ncols
        vec[f] = field(1)
        for pr, pc in pivots:
            vec[pc] = field(-rows[pr][f])
        inv = inverse(next(x for x in vec if x))
        basis.append([field(x * inv) for x in vec])
    return basis


@st.composite
def int_matrices(draw):
    ncols = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(st.integers(-30, 30), min_size=ncols,
                                  max_size=ncols), max_size=6)), ncols


@given(int_matrices(), st.sampled_from((0, 2, 3, 5, 7, 634227673)))
@example(([[2, 0, 0], [0, 1, 0], [0, -1, 1]], 3), 0)
def test_mod_p_kernel_matches_gauss_jordan(case, p):
    # p = 0 is the rational kernel, lifted from F_p, and `rational_rank`
    # reads its size; in the example the third row has no entry in the
    # first pivot's column, so it is left as it is there, and takes an
    # update at the second pivot
    rows, ncols = case
    basis = nullspace(rows, ncols, p)
    assert basis == _kernel_gauss_jordan(rows, ncols, p)
    rank = rank_mod_p(rows, p) if p else rational_rank(rows)
    assert rank == ncols - len(basis)


def _echelon_list_oracle(rows, ncols, p):
    """(rows, pivots) of the list-based elimination over F_p that packed rows
    replaced: entries reduced to [0, p) first, and each row below the pivot
    updated entry by entry, (a - f*b) % p."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for pc in range(ncols):
        pr = len(pivots)
        if pr == len(rows):
            break
        pivot = next((i for i in range(pr, len(rows)) if rows[i][pc]), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        tail = rows[pr][pc:]
        inv = pow(tail[0], -1, p)
        for ri in rows[pr + 1:]:
            f = ri[pc]
            if f:
                f = f * inv % p
                ri[pc:] = [(a - f * b) % p for a, b in zip(ri[pc:], tail)]
        pivots.append((pr, pc))
    return rows, pivots


# small primes, the 30-bit primes of the char-0 lift, and one above 2^64,
# whose residues take two 64-bit words of a slot
ECHELON_PRIMES = (2, 3, 5, 7) + exact_arith._PRIMES + (2 ** 64 + 13,)


@st.composite
def fp_matrices(draw):
    """(rows, ncols, p): 0 to 8 rows and columns; residues, unreduced
    entries of either sign up to 2^80, and rows of all p - 1."""
    p = draw(st.sampled_from(ECHELON_PRIMES))
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = (st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))
             | st.integers(-2 ** 80, 2 ** 80) | st.integers(2 ** 64, 2 ** 80))
    row = st.lists(entry, min_size=n, max_size=n) | st.just([p - 1] * n)
    return draw(st.lists(row, min_size=m, max_size=m)), n, p


def _stacked_updates(p, n):
    """n - 1 rows, n columns: the last row takes an update adding (p - 1)^2
    to its last slot at each of the first n - 2 pivots, while its slot of
    column n - 2 still holds an entry to be read."""
    rows = [[int(j == k) for j in range(n - 1)] + [p - 1] for k in range(n - 2)]
    return rows + [[1] * n], n, p


@settings(max_examples=300)
@given(fp_matrices())
@example(([], 3, 5))
@example(([[], []], 0, 7))
@example(_stacked_updates(exact_arith._PRIMES[1], 17))
@example(_stacked_updates(exact_arith._PRIMES[1], 19))
@example(_stacked_updates(2 ** 64 + 13, 6))
def test_packed_echelon_matches_list_oracle(case):
    rows, ncols, p = case
    given_rows = [list(row) for row in rows]
    packed, pivots = exact_arith._echelon(rows, ncols, p)
    assert rows == given_rows  # the input is left as it is
    oracle, oracle_pivots = _echelon_list_oracle(rows, ncols, p)
    assert pivots == oracle_pivots
    assert len(packed) == len(rows)
    assert all(len(row) == ncols and all(0 <= x < p for x in row) for row in packed)
    assert exact_arith._kernel_from_ref(packed, ncols, pivots, p) \
        == exact_arith._kernel_from_ref(oracle, ncols, oracle_pivots, p)


@st.composite
def kernel_matrices(draw):
    """Integer matrices, wide, tall or square, of full or deficient rank,
    with small entries and entries of up to 45 bits."""
    entry = st.integers(-9, 9) | st.integers(-2 ** 45, 2 ** 45)

    def matrix(m, n):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=m, max_size=m))

    m, n, k = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    if k >= min(m, n):
        return matrix(m, n), n
    # rank at most k: the product of an m x k and a k x n matrix
    A, B = matrix(m, k), matrix(k, n)
    return [[sum(row[t] * B[t][j] for t in range(k)) for j in range(n)]
            for row in A], n


def _nullspace_with_primes(primes, rows, ncols):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_arith, "_PRIMES", primes)
        return nullspace(rows, ncols)


@given(kernel_matrices())
@example(([[3, 2 ** 40 + 1]], 2))
@example(([[2 ** 45 + 3, 2 ** 44 + 7, 2 ** 43 + 5],
           [2 ** 42 + 11, 2 ** 45 + 13, 2 ** 41 + 17]], 3))
@example(([[2, 0, 0], [0, 1, 0], [0, -1, 1]], 3))
def test_lifted_kernel_matches_gauss_jordan(case):
    # the lift must give the Gauss-Jordan kernel over Q whatever primes
    # start the stream: none, so it starts below 2^30, or 2 and 3, which
    # are unlucky for many matrices
    rows, ncols = case
    reference = _kernel_gauss_jordan(rows, ncols, 0)
    lifted = nullspace(rows, ncols)
    assert lifted == reference
    assert all(isinstance(x, Fraction) for vec in lifted for x in vec)
    assert _nullspace_with_primes((), rows, ncols) == reference
    assert _nullspace_with_primes((2, 3), rows, ncols) == reference


def test_stream_lifts_a_kernel_beyond_the_primes(eliminations):
    # a seeded 10 x 12 matrix of 60-bit entries: its kernel holds ratios of
    # 10 x 10 minors of about 600 bits, so the lift reads dozens of primes
    # of the stream past _PRIMES, and must end at the kernel over Q
    rng = random.Random(20211)
    rows = [[rng.randrange(-2 ** 60, 2 ** 60) for _ in range(12)] for _ in range(10)]
    reference = _kernel_gauss_jordan(rows, 12, 0)
    assert len(reference) == 2
    assert nullspace(rows, 12) == reference
    assert len(eliminations) > 2 * len(exact_arith._PRIMES)
    assert eliminations[:len(exact_arith._PRIMES)] == list(exact_arith._PRIMES)
    for primes in ((), (2, 3)):
        assert _nullspace_with_primes(primes, rows, 12) == reference


@given(st.lists(st.integers(0, 3), max_size=9).map(sorted), st.integers(0, 10))
def test_distinct_combinations_match_filtered(items, size):
    seen = set()
    expected = []
    for idx in combinations(range(len(items)), size):
        key = tuple(items[i] for i in idx)
        if key not in seen:
            seen.add(key)
            expected.append(idx)
    assert list(_distinct_combinations(items, size)) == expected


@st.composite
def fp_products(draw):
    """(p, dense coefficients lowest first): a scalar times a power of t times
    random factors, each repeated up to p + 1 times (at most 3 for the large
    prime), so that the p-th-root step of the squarefree split runs."""
    p = draw(st.sampled_from((2, 3, 5, 7, 1073741789)))
    f = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        g.append(draw(st.integers(1, p - 1)))
        for _ in range(draw(st.integers(1, p + 1 if p < 10 else 3))):
            prod = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    prod[i + j] = (prod[i + j] + a * b) % p
            f = prod
    return p, [0] * draw(st.integers(0, 3)) + f


@settings(max_examples=60)
@given(fp_products())
def test_univariate_factors_match_sympy(case):
    p, f = case
    terms = {(e, 0): c for e, c in enumerate(f) if c}
    factors = _univariate_factors(LaurentPoly(terms, p), len(f), count())
    t = sympy.Symbol("t")
    _, facs = sympy.Poly.from_dict({(e,): c for (e, _), c in terms.items()},
                                   t, modulus=p).factor_list()
    expected = []
    for g, mult in facs:
        d = {e: int(c) % p for (e,), c in g.as_dict().items()}
        if len(d) > 1:  # t itself is dropped
            expected += [tuple(sorted(d.items()))] * mult
    assert sorted(factors) == sorted(expected)
    assert all(g[-1][1] == 1 for g in factors)
    # the factors, the scalar and the t-power multiply back to the input
    low = min(e for e, _ in terms)
    prod = _dense(((low, f[-1]),))
    for g in factors:
        prod = _pmul(prod, _dense(g), p)
    assert prod == f


@st.composite
def origin_polys(draw):
    """(p, s, g): g over F_p with least a and least b both 0, a-spread <= s."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(0, 6))
    pts = st.tuples(st.integers(0, s), st.integers(0, 4))
    terms = draw(st.dictionaries(pts, st.integers(1, p - 1), min_size=1, max_size=8))
    a0 = min(a for a, _ in terms)
    b0 = min(b for _, b in terms)
    return p, s, LaurentPoly({(a - a0, b - b0): c for (a, b), c in terms.items()}, p)


@given(origin_polys())
def test_decode_reads_a_factor_image_exactly(case):
    # factor_mod_p's candidates: the image g(t, t^M) / t^a1 of a factor g at
    # the origin, a1 its least a at b = 0, with M = 2s + 1 past twice g's
    # a-spread, decodes to v^-a1 g itself, not another unit multiple
    p, s, g = case
    M = 2 * s + 1
    a1 = min(a for a, b in g.terms if b == 0)
    f = [0] * (max(a - a1 + M * b for a, b in g.terms) + 1)
    for (a, b), c in g.terms.items():
        f[a - a1 + M * b] = c
    assert _decode(f, M, p) == unit_multiply(g, 1, -a1, 0)


@settings(max_examples=15)
@given(laurent(0, min_size=2), laurent(0, min_size=2))
def test_certify_finds_planted_factors(f, g):
    phi = multiply(f, g)
    cert = certify(phi)
    assert cert.verdict == "Factored" and len(cert.factors) >= 2
    prod = cert.unit
    for h in cert.factors:
        prod = multiply(prod, h)
    assert prod == phi


@settings(max_examples=30)
@given(laurent(0, min_size=2))
def test_certify_char0_is_never_inconclusive(phi):
    assert certify(phi).verdict != "Inconclusive"


GL2Z = (((1, 2), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((-1, 0), (0, 1)))


@settings(max_examples=20)
@given(laurent(0, min_size=2), st.sampled_from(GL2Z),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5))
@example(LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1}), GL2Z[0], 0, 0, 1)
def test_certify_invariant_under_symmetries(phi, m, alpha, beta, c):
    base = certify(phi)
    for psi in (apply_gl2z(phi, m), unit_multiply(phi, c, alpha, beta)):
        cert = certify(psi)
        assert cert.verdict == base.verdict
        assert len(cert.factors) == len(base.factors)


# irreducible negative-class inputs, each read in char 0, 2 and 3: φ₃′ (an
# indecomposable polygon), the r = 4 class that reads IrreducibleByRigidity,
# and, per characteristic, generators of 1-dimensional jet kernels of
# orders 4 and 5 on random polygons (decomposable polygons)
PHI3P = "-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3"
R4 = "-1 - v + 5vw^2 + 5v^2*w^3 - 10v^2*w^4 - v^2*w^5 - v^3*w^5 + 5v^3*w^7 - v^4*w^10"
PLANTED = {
    0: [PHI3P, R4, "w^4 - 5v^2*w^3 + v^3*w^3 + v^4*w + 10v^4*w^2 - 5v^5*w "
        "- 5v^5*w^2 + v^6*w^2 + v^7"],
    2: [PHI3P, R4,
        "vw^3 + vw^4 + vw^5 + v^2*w^3 + v^2*w^4 + v^5*w^2 + v^6*w + v^6*w^2"],
    3: [PHI3P, R4, "v^2*w^3 + v^3*w + v^3*w^3 + v^4*w^2 + v^4*w^3 + v^4*w^4 "
        "+ v^5*w^2 + v^5*w^4 + v^6*w^5",
        "w + 2w^2 + 2vw^2 + 2v^2*w^3 + 2v^3*w^3 + v^4*w^3 + v^5*w^3 + v^6*w^3 "
        "+ 2v^6*w^4 + v^6*w^5 + v^7*w^5 + 2v^7*w^6"],
}


@st.composite
def kernel_elements(draw, char):
    """A nonzero combination of a jet-kernel basis on a polygon in [0, 4]^2,
    or a planted irreducible input."""
    if draw(st.integers(0, 3)) == 0:
        return parse(draw(st.sampled_from(PLANTED[char])), char)
    box = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = lattice_points(convex_hull(draw(st.sets(box, min_size=2, max_size=6))))
    basis = graded_piece(pts, draw(st.integers(1, 4)), char)
    assume(basis)
    phi = LaurentPoly({}, char)
    for b in basis:
        c = draw(st.integers(-2, 2))
        if c and (char == 0 or c % char):
            phi = phi + unit_multiply(b, c)
    assume(phi)
    return phi


@st.composite
def negative_class_polys(draw):
    """One or two kernel elements multiplied, at char 0, 2 or 3, kept when
    twice the area is below the square of the multiplicity at (1, 1)."""
    char = draw(st.sampled_from((0, 2, 3)))
    phi = draw(kernel_elements(char))
    if draw(st.booleans()):
        phi = multiply(phi, draw(kernel_elements(char)))
    assume(len(phi.terms) > 1)
    assume(area2(newton_polygon(phi)) < multiplicity_at_one(phi) ** 2)
    return phi


def _planted(test):
    for char, texts in PLANTED.items():
        for text in texts:
            test = example(parse(text, char))(test)
    return test


@settings(max_examples=60)
@given(negative_class_polys())
@_planted
def test_certify_factors_negative_class_as_the_factorizers_do(phi):
    # the factorizers, called directly, are the oracle: certify reads
    # Factored on a negative-class input exactly when sympy's factor_list
    # over ZZ (char 0) or factor_mod_p (char p) finds more than one factor.
    # A square such as R4^2 mod 2 runs factor_mod_p through its whole
    # budget; at 2^10 tickets an oracle call stays short, and a spent one
    # is skipped
    with mock.patch.object(irreducibility, "_BUDGET", 2 ** 10):
        count = factor_count(phi)
    assume(count is not None)
    verdict = certify(phi).verdict
    assert (verdict == "Factored") == (count > 1), to_text(phi)
    assert verdict != "Inconclusive"


@st.composite
def collinear_polys(draw):
    """Terms at multiples of one direction: single points, primitive and
    longer or gapped segments, at char 0, 2 and 5."""
    char = draw(st.sampled_from((0, 2, 5)))
    base = draw(points)
    d = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -2))))
    ks = draw(st.sets(st.integers(0, 4), min_size=1, max_size=4))
    coeff = st.integers(-9, 9).filter(lambda c: c and (char == 0 or c % char))
    return LaurentPoly({(base[0] + k * d[0], base[1] + k * d[1]): draw(coeff)
                        for k in ks}, char)


@settings(max_examples=150)
@given(collinear_polys(), st.sampled_from(GL2Z), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from((1, -1, 3)))
def test_segment_canonical_form_invariant(phi, m, alpha, beta, c):
    rep = canonical_form(phi, 1)
    assert canonical_form(apply_gl2z(phi, m), 1) == rep
    assert canonical_form(unit_multiply(phi, c, alpha, beta), 1) == rep


@st.composite
def line_reductions(draw):
    r = draw(st.integers(1, 3))
    base = draw(points)
    d = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))))
    on = [(base[0] + k * d[0], base[1] + k * d[1]) for k in range(r)]
    off = {p for p in draw(st.sets(points, max_size=8))
           if d[0] * (p[1] - base[1]) != d[1] * (p[0] - base[0])}
    line = (base, (base[0] + d[0], base[1] + d[1]))
    return set(on) | off, line, r


@settings(max_examples=100)
@given(line_reductions())
def test_line_reduction_preserves_nullity(case):
    S, line, r = case
    n1, n2 = lemma_eu_check(S, line, r)
    assert n1 == n2


@given(st.integers(-20, 20), st.integers(1, 12))
def test_pascal_rule(a, k):
    assert binomial(a, k) == binomial(a - 1, k - 1) + binomial(a - 1, k)


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_smith_form_invariants(rows, rng):
    diag, U, V = smith_normal_form(rows)
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
    prod = _mat_mul(_mat_mul(U, rows), V)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            assert x == (diag[i] if i == j and i < len(diag) else 0)
    shuffled = [row[:] for row in rows]
    rng.shuffle(shuffled)
    assert smith_normal_form(shuffled)[0] == diag


@given(polygons())
def test_normalize_preserves_lattice_invariants(P):
    r = 1
    while r * r <= area2(P):
        r += 1
    Q, maps = normalized_maps(P, r)
    assert area2(Q) == area2(P)
    assert pick_counts(Q, lattice_points(Q)) == pick_counts(P, lattice_points(P))
    m = _most_collinear(P)
    pts = lattice_points(Q)
    assert collinear_exceeds(pts, m - 1) and not collinear_exceeds(pts, m)
    for f in maps:
        assert convex_hull([f.apply(v) for v in P.vertices]) == Q
    for v in Q.vertices:
        assert omega_contains(v, r)


def _most_collinear(P):
    """The least k such that no line holds more than k lattice points of P."""
    pts = lattice_points(P)
    k = 0
    while collinear_exceeds(pts, k):
        k += 1
    return k


def _max_collinear_reference(pts):
    """Most points of pts on one line through two of them, by cross products."""
    best = min(len(pts), 2)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            on = sum(1 for s in pts
                     if (q[0] - p[0]) * (s[1] - p[1]) == (q[1] - p[1]) * (s[0] - p[0]))
            best = max(best, on)
    return best


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
               min_size=1, max_size=6))
def test_collinear_exceeds_matches_brute_force(vertices):
    P = convex_hull(vertices)
    pts = lattice_points(P)
    most = _max_collinear_reference(pts)
    for k in range(len(pts) + 1):
        assert collinear_exceeds(pts, k) == (most > k)


def _collinear_exceeds_pair_scan(pts, k):
    """The pair scan `collinear_exceeds` ran before it read residues: from
    each point of the lex-sorted pts, the later points per primitive
    direction, stopped at the first line past k."""
    if len(pts) <= k:
        return False
    if k < 2:
        return True
    for i, (xi, yi) in enumerate(pts[:-1]):
        dirs = {}
        for x, y in pts[i + 1:]:
            g = gcd(x - xi, y - yi)
            d = ((x - xi) // g, (y - yi) // g)
            dirs[d] = dirs.get(d, 1) + 1
            if dirs[d] > k:
                return True
    return False


@given(point_hulls(), st.integers(1, 4), st.integers(0, 9))
def test_collinear_exceeds_matches_pair_scan(P, n, k):
    # rational hulls and their dilates: the residue test needs only that
    # the points are all the lattice points of a convex set
    pts = lattice_points(dilate(P, n))
    assert collinear_exceeds(pts, k) == _collinear_exceeds_pair_scan(pts, k)


@given(polygons())
def test_selfintersection_matches_refinement(P):
    fan = normal_fan(P)
    assert divisor_square(fan, (1,) * len(fan.rays)) == k2_via_refinement(fan)


@functools.lru_cache(maxsize=1)
def _nct_pool():
    pool = [(phi_family(r), r) for r in range(1, 5)]
    pool += [(ggk_prime_family(r), r) for r in range(3, 7)]
    pool += [(rep, 2) for char in (0, 5) for rep, _ in catalog(2, char)]
    return pool


def _closure():
    reach = {p: {q for s, q in IMPLICATIONS if s == p} for p in range(1, 12)}
    changed = True
    while changed:
        changed = False
        for p in reach:
            grown = set().union(*(reach[q] for q in reach[p])) | reach[p]
            if grown != reach[p]:
                reach[p] = grown
                changed = True
    return reach


def test_condition_diagram_consistent_on_pool():
    reach = _closure()
    assert 9 in reach[4] and 9 in reach[7]
    violations = []
    for phi, r in _nct_pool():
        if r < 2:
            continue  # the diagram only speaks about r >= 2
        rep = thm36_report(phi, r)
        for p, targets in reach.items():
            if rep.conditions[p][0] is not True:
                continue
            for q in targets:
                if rep.conditions[q][0] is False:
                    violations.append((to_text(phi), p, q))
    assert violations == []


def test_pool_members_are_ncts():
    for phi, r in _nct_pool():
        rep = is_nct(phi, r)
        assert rep.accepted
        assert rep.multiplicity == multiplicity_at_one(phi) == r
        assert rep.area2 == area2(newton_polygon(phi)) < r * r
