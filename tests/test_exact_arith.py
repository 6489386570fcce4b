import random
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


def test_nullspace_lift_combines_primes_then_streams_more(eliminations):
    big = 2 ** 40 + 1
    # the kernel vector (-big/3, 1) needs about 84 bits of modulus: three
    # primes by CRT
    assert nullspace([[3, big]], 2) == [[1, Fraction(-3, big)]]
    assert eliminations == list(exact_arith._PRIMES[:3])
    # with 45-bit entries the kernel holds ratios of 90-bit minors, beyond
    # what the primes of _PRIMES reconstruct, so the stream goes on to the
    # two largest primes below 2^30 that _PRIMES lacks; the cross product
    # is the reference over Q
    eliminations.clear()
    (x0, x1, x2), (y0, y1, y2) = M = [[2 ** 45 + 3, 2 ** 44 + 7, 2 ** 43 + 5],
                                      [2 ** 42 + 11, 2 ** 45 + 13, 2 ** 41 + 17]]
    cross = [x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0]
    assert nullspace(M, 3) == [[Fraction(c, cross[0]) for c in cross]]
    assert eliminations == list(exact_arith._PRIMES) + [1073741723, 1073741719]
    assert rational_rank(M) == 2


def test_prime_stream_follows_primes_with_the_primes_below_2_30():
    stream = exact_arith._primes()
    head = [next(stream) for _ in range(len(exact_arith._PRIMES) + 3)]
    # 1073741789, 1073741783 and 1073741741 are the largest primes below
    # 2^30, and _PRIMES holds them; the stream skips them the second time
    assert head == list(exact_arith._PRIMES) + [1073741723, 1073741719, 1073741717]
    assert all(is_prime(p) for p in head)
    assert not any(is_prime(n) for n in range(1073741790, 2 ** 30))


def test_lift_beyond_the_stream_is_a_value_error(monkeypatch):
    # a stream that ends before the modulus reaches the kernel's minors ends
    # in ValueError, not in a basis that was not checked
    monkeypatch.setattr(exact_arith, "_primes", lambda: iter((3, 5, 7)))
    with pytest.raises(ValueError, match="2\\^30"):
        nullspace([[3, 2 ** 40 + 1]], 2)


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


def test_packed_rows_are_little_endian_slot_sums():
    # _pack reads array items as little-endian words: on a host where they
    # are not, this fails, where the eliminations would be silently wrong
    rng = random.Random(0)
    for words, p in enumerate((1073741789, 2 ** 61 - 1, 2 ** 89 - 1), 1):
        for n in (0, 1, 2, 9):
            vals = [rng.getrandbits(rng.randint(0, 64 * words)) for _ in range(n)]
            assert exact_arith._pack(vals, words) == sum(
                v << 64 * words * k for k, v in enumerate(vals))
        # one row over p takes slots of `words` words; its first nonzero
        # entry makes it a pivot row, unpacked from the form packed on entry
        assert -(-(2 * (p - 1) ** 2 + p).bit_length() // 64) == words
        for ncols in (1, 2, 7):
            for lead in range(ncols):
                row = [0] * lead + [rng.randrange(1, p)] + [
                    rng.randrange(-p * p, p * p) for _ in range(ncols - lead - 1)]
                assert exact_arith._echelon([row], ncols, p) == (
                    [[x % p for x in row]], [(0, lead)])


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
