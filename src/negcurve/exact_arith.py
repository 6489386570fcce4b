"""Exact linear algebra on plain integer rows, over Q or a prime field F_p.

No floating point anywhere: rationals are `fractions.Fraction`, prime fields
are ints in [0, p).  Every elimination runs over F_p, in `_echelon`, which
updates a row below the pivot by one big-int multiply-add on a packed row,
one int of fixed-width slots with column 0 on top.  The multiplier and the
pivot row's slots are reduced, and a row takes at most min(rows, cols)
updates, so a slot holding (min(rows, cols) + 1)(p - 1)^2 + p never carries.
Each column's slot, 0 mod p below the pivot, is cut off there, so the slots
left of the current column are exactly 0 and a row shifted right is its
entry in that column.  Pivoting is deterministic (first nonzero in row-major
order), so kernel bases are reproducible across runs.

A kernel over Q is lifted from kernels mod the primes of `_primes()`, one
elimination each: the 30-bit primes of `_PRIMES`, then the other primes
below 2^30 in descending order.  Full column rank mod a prime proves the
kernel empty.  Otherwise the residues of the mod-p basis, combined by CRT
across primes, are rationally reconstructed (Wang, Guy and Davenport, SIGSAM
Bull. 16, 1982) or, for an integral vector, read as least absolute residues,
and the vectors are returned only when each one satisfies row . v == 0 over
Z on the input rows.  rank mod p is at most rank over Q, so verified
vectors, one ending at each free column mod p, are a basis over Q with the
same free columns.  The stream ends: a prime is unlucky, with a lower rank
or later pivot columns than over Q, only when it divides one of finitely
many nonzero minors, and `_lifted_kernel` never prefers it to a lucky one;
and each basis entry is a ratio of minors within a Hadamard bound H, which
Wang's reconstruction recovers once the lucky primes multiply past 2 H^2.
The primes below 2^30 multiply to about 2^(1.5e9); a matrix whose minors
outlast them makes `_lifted_kernel` raise ValueError.
"""

from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

# 30-bit primes, so that each residue is one Python digit; the char-0 kernel
# lift eliminates mod the first and adds the others only when it must
_PRIMES = (634227673, 1073741789, 1073741783, 1073741741)

# a strong probable prime to the first 13 primes is prime below psi_13, the
# limit (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class CharMismatch(ValueError):
    """Raised when arithmetic would mix characteristics."""


def is_prime(n):
    """Whether n is prime: trial division by the 13 bases, then strong
    probable-prime tests to each.  Exact below psi_13; ValueError from it on."""
    if n >= _MR_LIMIT:
        raise ValueError("primality is decided exactly only below %d" % _MR_LIMIT)
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        # a witnesses n composite unless a^d = 1 or a^(d 2^i) = -1, i < s
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 2 ** i, n) for i in range(s)):
            return False
    return True


def _residue(value, p):
    """Reduce an int or Fraction to a residue in [0, p)."""
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise CharMismatch("denominator %d not invertible mod %d" % (value.denominator, p))
        return value.numerator * pow(value.denominator, -1, p) % p
    return value % p


def _pack(vals, words):
    """Residues, last column first, as one int of slots of `words` words; the
    array items are read as little-endian words, as on x86-64 and arm64."""
    if words == 1:
        return int.from_bytes(array("Q", vals), "little")
    a = array("Q", bytes(8 * words * len(vals)))
    for j in range(-(-max(vals, default=0).bit_length() // 64)):
        a[j::words] = array("Q", [v >> 64 * j & 0xFFFFFFFFFFFFFFFF for v in vals])
    return int.from_bytes(a, "little")


def _echelon(int_rows, ncols, p):
    """(rows, pivots): a row echelon form of int_rows over F_p and its
    pivots (row, col).

    The rows are new lists of residues in [0, p), zero rows last.  Every
    row is packed once, on entry, and unpacked when it becomes a pivot row.
    """
    n = len(int_rows)
    words = -(-((min(n, ncols) + 1) * (p - 1) ** 2 + p).bit_length() // 64)
    state = [_pack([x % p for x in reversed(row)], words) for row in int_rows]
    pivots, shift = [], 64 * words * ncols
    for pc in range(ncols):
        pr, shift = len(pivots), shift - 64 * words
        low, piv, tail = (1 << shift) - 1, None, None
        for i in range(pr, n):
            x = state[i]
            f = x >> shift
            if not f:
                continue
            x, f = x & low, f % p
            if piv is None and f:
                a = array("Q", x.to_bytes(shift // 8, "little"))  # right of pc
                vals = a[words - 1::words]
                for j in range(words - 2, -1, -1):
                    vals = [(u << 64) + w for u, w in zip(vals, a[j::words])]
                x = [0] * pc + [f] + [u % p for u in reversed(vals)]
                state[i], state[pr], piv = state[pr], x, x
                pivots.append((pr, pc))
                continue
            if f:
                if tail is None:
                    tail, inv = _pack(piv[:pc:-1], words), pow(piv[pc], -1, p)
                x += (p - f) * inv % p * tail
            state[i] = x
    return state[:len(pivots)] + [[0] * ncols for _ in range(n - len(pivots))], pivots


def _kernel_from_ref(rows, ncols, pivots, p):
    """Kernel basis over F_p from a row echelon form.

    One vector of residues per free column f, in ascending order, with 1 at
    f and 0 at the other free columns and right of f.
    """
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [0] * ncols
        vec[f] = 1
        solved = []
        for pr, pc in reversed(pivots):
            # the row vanishes left of pc; right of it only f and the
            # pivot columns already solved can be nonzero in vec
            row = rows[pr]
            s = row[f] + sum(row[c] * vec[c] for c in solved)
            vec[pc] = -s * pow(row[pc], -1, p) % p
            solved.append(pc)
        basis.append(vec)
    return basis


def _monic(vec, p=0):
    """vec scaled so that its first nonzero entry is 1, over Q or F_p."""
    lead = next(x for x in vec if x)
    if p:
        inv = pow(lead, -1, p)
        return [x * inv % p for x in vec]
    return [x / lead for x in vec]


def _rational(u, m):
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), or None.

    Wang's reconstruction: the extended Euclidean algorithm on (m, u),
    stopped at the first remainder within the bound.
    """
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _in_kernel(int_rows, vec):
    """row . vec == 0 over Z for every row, denominators cleared."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    return not any(sum(map(mul, row, ints)) for row in int_rows)


def _lift(int_rows, vec, m):
    """A kernel vector over Q that is vec mod m up to scale, or None.

    Two candidates are tried, each checked over Z: the rational
    reconstruction of every entry, then, when the first nonzero entry is a
    unit mod m, the least absolute residues of vec scaled so that entry is
    1, which lifts an integral vector with entries up to m/2, beyond the
    balanced bound of the first.
    """
    q = [_rational(x, m) for x in vec]
    if None not in q and _in_kernel(int_rows, q):
        return q
    if gcd(next(x for x in vec if x), m) == 1:
        q = [Fraction(x - m if 2 * x > m else x) for x in _monic(vec, m)]
        if _in_kernel(int_rows, q):
            return q
    return None


def _primes():
    """`_PRIMES`, then the other primes below 2^30 in descending order."""
    yield from _PRIMES
    yield from (n for n in range(2 ** 30 - 1, 1, -1)
                if n not in _PRIMES and is_prime(n))


def _lifted_kernel(int_rows, ncols):
    """The kernel basis over Q, one vector per free column up to scale as
    `_kernel_from_ref` gives it mod p, lifted from the primes of `_primes()`.

    A prime whose (rank, pivot columns) differ from those kept so far
    replaces the kept residues when its rank is higher, or its rank is
    equal and its pivot columns come first, and is skipped otherwise: the
    i-th pivot column over Q is never right of the i-th mod p.
    """
    kept = None
    for p in _primes():
        rows, pivots = _echelon(int_rows, ncols, p)
        if len(pivots) == ncols:
            return []
        key = (-len(pivots), [pc for _, pc in pivots])
        vecs = _kernel_from_ref(rows, ncols, pivots, p)
        if kept is None or key < kept:
            kept, m, residues = key, p, vecs
        elif key == kept:
            inv = pow(m, -1, p)
            residues = [[x + m * ((y - x) * inv % p) for x, y in zip(u, v)]
                        for u, v in zip(residues, vecs)]
            m *= p
        else:
            continue
        basis = [_lift(int_rows, vec, m) for vec in residues]
        if None not in basis:
            return basis
    raise ValueError("kernel entries beyond the primes below 2^30")


def nullspace(int_rows, ncols, char=0):
    """Exact basis of the right kernel of an integer matrix, over Q or F_char.

    One vector per free column, in ascending order, scaled so its first
    nonzero entry is 1: Fractions over Q, residues in [0, char) over F_char.
    Over F_char it comes from one elimination; over Q it is lifted from
    eliminations mod primes and checked over Z (`_lifted_kernel`).
    """
    if char:
        rows, pivots = _echelon(int_rows, ncols, char)
        basis = _kernel_from_ref(rows, ncols, pivots, char)
    else:
        basis = _lifted_kernel(int_rows, ncols)
    return [_monic(vec, char) for vec in basis]


# no package module calls the two rank helpers; perfbench/tracer.py wraps
# them by name in WRAPPED
def rank_mod_p(int_rows, p):
    """Rank of an integer matrix reduced mod p."""
    return len(_echelon(int_rows, len(int_rows[0]) if int_rows else 0, p)[1])


def rational_rank(int_rows):
    """Rank over Q of an integer matrix: its columns less its kernel's."""
    ncols = len(int_rows[0]) if int_rows else 0
    return ncols - len(_lifted_kernel(int_rows, ncols))


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(int_rows):
    """Smith normal form with recorded transforms.

    Returns (diag, U, V) with U*M*V diagonal, diag[i] | diag[i+1], U and V
    unimodular.  diag has length min(rows, cols); trailing zeros allowed.
    """
    A = [list(r) for r in int_rows]
    n = len(A)
    m = len(A[0]) if n else 0
    U = _identity(n)
    V = _identity(m)

    def row_op(i, j, q):  # row_i -= q*row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, m):
        # locate a nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            reduced = True
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:  # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        reduced = False
            if reduced and all(A[i][t] == 0 for i in range(t + 1, n)) \
                    and all(A[t][j] == 0 for j in range(t + 1, m)):
                break
        # divisibility: pivot must divide every remaining entry
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % A[t][t]:
                    row_op(t, i, -1)  # fold row i into row t, restart block
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    diag = []
    for i in range(min(n, m)):
        d = A[i][i]
        if d < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
            d = -d
        diag.append(d)
    return diag, U, V


def rat_str(x):
    """Serialize an exact rational as "num/den" (or "num" when integral)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rat(s):
    """Parse "num/den" / "num" strings (ints pass through) to Fraction."""
    try:
        return Fraction(s if isinstance(s, int) else str(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def det2(u, v):
    """Determinant of the 2x2 matrix with rows u, v."""
    return u[0] * v[1] - u[1] * v[0]
