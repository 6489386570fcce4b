from fractions import Fraction

import pytest
import sympy

from negcurve import exact_arith
from negcurve.exact_arith import (
    det2,
    is_prime,
    nullspace,
    parse_rat,
    rank_mod_p,
    rat_str,
    rational_rank,
    smith_normal_form,
)


def det_int(rows):
    """Cofactor-expansion determinant, test-side oracle for small matrices."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]], 2) == []
    assert nullspace([[0, 0, 0], [0, 0, 0]], 3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[]], 0) == []


def test_nullspace_rational():
    vecs = nullspace([[1, 1, 1, 1]], 4)
    assert vecs == [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]]
    assert all(isinstance(x, Fraction) for v in vecs for x in v)
    assert nullspace([[1, 2], [2, 4]], 2) == [[1, Fraction(-1, 2)]]
    # every basis vector actually lies in the kernel
    M = [[2, 3, 5], [7, 11, 13], [9, 14, 18]]
    basis = nullspace(M, 3)
    assert len(basis) == 1
    for v in basis:
        for row in M:
            assert sum(c * x for c, x in zip(row, v)) == 0


def test_nullspace_mod_p():
    assert nullspace([[1, 1, 1]], 3, 2) == [[1, 1, 0], [1, 0, 1]]
    # x + 2y = 0 over F_5 has kernel spanned by (1, 2)
    assert nullspace([[1, 2]], 2, 5) == [[1, 2]]
    # entries are reduced mod p first: 7x + 3y = 0 over F_5 is 2x - 2y = 0
    assert nullspace([[7, 3]], 2, 5) == [[1, 1]]
    # the rank drops mod 3 but not over Q
    assert nullspace([[1, 2], [2, 1]], 2) == []
    assert nullspace([[1, 2], [2, 1]], 2, 3) == [[1, 1]]


def test_nullspace_lift_combines_primes_then_falls_back(eliminations):
    big = 2 ** 40 + 1
    # the kernel vector (-big/3, 1) needs about 84 bits of modulus: three
    # primes by CRT, and no elimination over Q
    assert nullspace([[3, big]], 2) == [[1, Fraction(-3, big)]]
    assert eliminations == list(exact_arith._PRIMES[:3])
    # with 45-bit entries the kernel holds ratios of 90-bit minors, beyond
    # what the primes reconstruct, so Bareiss decides after all of them
    eliminations.clear()
    (x0, x1, x2), (y0, y1, y2) = M = [[2 ** 45 + 3, 2 ** 44 + 7, 2 ** 43 + 5],
                                      [2 ** 42 + 11, 2 ** 45 + 13, 2 ** 41 + 17]]
    cross = [x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0]
    assert nullspace(M, 3) == [[Fraction(c, cross[0]) for c in cross]]
    assert eliminations == list(exact_arith._PRIMES) + [0]


def test_nullspace_lift_prefers_earlier_pivots(monkeypatch, eliminations):
    # mod 3 the row (3, 1) has its pivot in column 1, not 0: the lift drops
    # that prime's residues for those of 5, and CRT with 7 reconstructs -1/3
    monkeypatch.setattr(exact_arith, "_PRIMES", (3, 5, 7))
    assert nullspace([[3, 1]], 2) == [[1, -3]]
    assert eliminations == [3, 5, 7]
    # a prime whose rank is higher replaces the residues, and full column
    # rank proves the kernel empty
    eliminations.clear()
    assert nullspace([[1, 2], [2, 1]], 2) == []
    assert eliminations == [3, 5]


def test_rank_mod_p():
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7) == 3
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert rank_mod_p([[1, 2], [2, 5]], 2) == 2


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2], [2, 5]]) == 2
    assert rational_rank([[0, 0], [0, 0]]) == 0


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_smith_normal_form_diag():
    M = [[2, -1], [-2, -1], [0, 1]]
    d, U, V = smith_normal_form(M)
    assert d == [1, 2]
    prod = _mat_mul(_mat_mul(U, M), V)
    assert prod == [[1, 0], [0, 2], [0, 0]]
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1

    d, _, _ = smith_normal_form([[1, 0], [0, 1], [-1, -1]])
    assert d == [1, 1]

    d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert d == [1, 6]

    M = [[4, 6], [2, 8]]
    d, U, V = smith_normal_form(M)
    assert d == [2, 10]
    prod = _mat_mul(_mat_mul(U, M), V)
    assert prod == [[2, 0], [0, 10]]


def test_smith_normal_form_divisibility():
    M = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
    d, U, V = smith_normal_form(M)
    for i in range(len(d) - 1):
        if d[i + 1] != 0:
            assert d[i + 1] % d[i] == 0
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    prod = _mat_mul(_mat_mul(U, M), V)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            assert x == (d[i] if i == j and i < len(d) else 0)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-5, 1)) == "-5"
    assert rat_str(7) == "7"
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-12") == Fraction(-12)


def test_det2():
    assert det2((2, 1), (1, 2)) == 3
    assert det2((1, 0), (0, 1)) == 1
    assert det2((2, 4), (1, 2)) == 0


def test_is_prime_matches_sympy():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n) != sympy.isprime(n)] == []
    # a Carmichael number, a strong pseudoprime to 2, 3, 5 and 7, a Mersenne prime
    assert [is_prime(n) for n in (561, 3215031751, 2 ** 61 - 1)] == [False, False, True]


def test_is_prime_needs_all_thirteen_bases(monkeypatch):
    # strong pseudoprimes to the bases 2..23 and 2..37 (psi_9 and psi_12)
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    monkeypatch.setattr(exact_arith, "_MR_BASES", exact_arith._MR_BASES[:12])
    assert is_prime(318665857834031151167461)


def test_is_prime_refuses_past_its_bound():
    assert is_prime(exact_arith._MR_LIMIT - 2) is sympy.isprime(exact_arith._MR_LIMIT - 2)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
