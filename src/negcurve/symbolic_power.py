"""Graded pieces of symbolic powers as kernels of jet matrices.

A Laurent polynomial supported on S lies in (v-1, w-1)^r exactly when the
r(r+1)/2 jet entries of order below r vanish; each is a linear form in the
coefficients.  The entries are taken on the centred support, the one whose
bounding box starts at (0, 0): C(a - a0, i) * C(b - b0, j) at the support
point (a, b), from `laurent_poly.centred_binomials`.  Centring multiplies
by the unit v^-a0 w^-b0, which maps jets by an integer unipotent triangular
matrix, so the row space, every rank and the normalised kernel basis are
those of the uncentred system, while the entries stay small.  The support
is a plain sorted tuple of points.

The dimension of the degree-d piece is |dP| minus the rank of that system.
`kernel` asks `nullspace`, which in char 0 lifts the basis from
eliminations mod the stream of primes `exact_arith._primes()`, the primes of
`_PRIMES` first, and checks it over Z, and `nullity` counts that basis.
Ehrhart counting of the dilations gives the other side of the ledger.

`graded_piece` first tries a proof mod 2.  By Lucas' theorem C(x, i) is odd
exactly when i & x == i, so the centred mod-2 row (i, j) is A_i & B_j, where
A_i, B_j mask the columns whose x, y hold i, j bitwise.  Rank over F_2 is at
most rank over Q: full column rank proves the char-0 kernel empty, and in
char 2 these are the jet rows.
"""

from collections import namedtuple
from fractions import Fraction

from .exact_arith import nullspace
from .lattice_geom import area2, pick_counts
from .laurent_poly import LaurentPoly, centred_binomials


JetMatrix = namedtuple("JetMatrix", "char support rows")


def jet_matrix(points, r, char=0):
    """Rows (i, j) with i+j < r; entry C(a-a0, i)*C(b-b0, j) at column (a, b).

    The columns are the points, deduplicated and sorted lex, kept as the
    support.  (a0, b0) is the least corner of their bounding box, so the
    entries are those of the centred support, from `centred_binomials`;
    the columns keep the labels of the points.
    """
    if r < 1:
        raise ValueError("jet order must be at least 1")
    S = tuple(sorted(set(points)))
    ca, cb = centred_binomials(S, r)
    rows = []
    for i in range(r):
        for j in range(r - i):
            row = [x[i] * y[j] for x, y in zip(ca, cb)]
            rows.append([e % char for e in row] if char else row)
    return JetMatrix(char, S, rows)


def kernel(jm):
    """Kernel basis as plain coefficient vectors, one per basis element."""
    return nullspace(jm.rows, len(jm.support), jm.char)


def kernel_polynomials(jm):
    """Kernel vectors reinterpreted as Laurent polynomials on the support."""
    out = []
    for vec in kernel(jm):
        out.append(LaurentPoly(
            {pt: c for pt, c in zip(jm.support, vec) if c}, jm.char))
    return out


def _rank_mod_2(points, r):
    """Rank of the order-r jet rows mod 2 on the distinct points: XOR
    elimination of the Lucas bit rows A_i & B_j, keyed by leading bit."""
    S = sorted(set(points))
    masks = []
    for ax in (0, 1):
        cols, lo = {}, min((p[ax] for p in S), default=0)
        for k, p in enumerate(S):
            cols[p[ax] - lo] = cols.get(p[ax] - lo, 0) | 1 << k
        masks.append([sum(m for x, m in cols.items() if i & x == i) for i in range(r)])
    pivots = {}
    for row in (a & b for i, a in enumerate(masks[0]) for b in masks[1][:r - i]):
        while row and len(pivots) < len(S):
            row ^= pivots.setdefault(row.bit_length(), row)
    return len(pivots)


def graded_piece(points, r, char=0):
    """`kernel_polynomials(jet_matrix(points, r, char))`, with no jet matrix
    built when, in char 0 or 2, the Lucas bit rows have full column rank."""
    n = len(set(points))
    if char in (0, 2) and 0 < n <= r * (r + 1) // 2 and _rank_mod_2(points, r) == n:
        return []
    return kernel_polynomials(jet_matrix(points, r, char))


def nullity(jm):
    """Dimension of the kernel: the size of `kernel`'s basis."""
    return len(kernel(jm))


def lemma_eu_reduce(S, line, r):
    """Drop the r points of S on the given line (two lattice points).

    The remaining points, sorted, carry the order-(r-1) system; the
    dimension equality backing this reduction is a characteristic-0
    statement.
    """
    (x1, y1), (x2, y2) = line
    if (x1, y1) == (x2, y2):
        raise ValueError("line needs two distinct points")
    S = set(S)
    on = {p for p in S
          if (x2 - x1) * (p[1] - y1) == (y2 - y1) * (p[0] - x1)}
    if len(on) != r:
        raise ValueError("line meets the support in %d points, not %d"
                         % (len(on), r))
    return tuple(sorted(S - on))


def lemma_eu_check(S, line, r, char=0):
    """Nullity before and after reducing; the pair agrees in char 0."""
    S2 = lemma_eu_reduce(S, line, r)
    n1 = nullity(jet_matrix(S, r, char))
    n2 = len(S2) if r == 1 else nullity(jet_matrix(S2, r - 1, char))
    return n1, n2


def ehrhart_polynomial(P, pts):
    """Coefficients (area, B/2, 1) of the count of n*P lattice points.

    P is a lattice polygon of dimension 2, which the caller checks, and pts
    are its lattice points, as `pick_counts` takes them.
    """
    B = pick_counts(P, pts)[0]
    return (Fraction(area2(P), 2), Fraction(B, 2), Fraction(1))


def hilbert_numerator(P, pts):
    """Numerator f with sum_n L(n) s^n = f(s) / (1-s)^3, from Pick's counts.

    For a lattice polygon of dimension 2 (the caller checks it) with lattice
    points pts, B on the boundary and I inside, it is
    1 + (B + I - 3) s + I s^2, trailing zero coefficients dropped.
    """
    B, I = pick_counts(P, pts)
    f = [1, B + I - 3, I]
    while f[-1] == 0:
        f.pop()
    return f
