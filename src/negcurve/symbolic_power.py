"""Graded pieces of symbolic powers as kernels of jet matrices.

A Laurent polynomial supported on S lies in (v-1, w-1)^r exactly when the
r(r+1)/2 jet entries of order below r vanish; each is a linear form in the
coefficients.  The entries are taken on the centred support, the one whose
bounding box starts at (0, 0): C(a - a0, i) * C(b - b0, j) at the support
point (a, b).  Centring multiplies by the unit v^-a0 w^-b0, which maps jets
by an integer unipotent triangular matrix, so the row space, every rank and
the normalised kernel basis are those of the uncentred system, while the
entries stay small.  The dimension of the degree-d piece is |dP| minus the
rank of that system; in char 0 a rank modulo one prime settles it whenever
it is full, before any rational elimination.  Ehrhart counting of the
dilations gives the other side of the ledger.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import binomial, nullspace, rank_mod_p, rational_rank
from .lattice_geom import IntegralPolygon, area2, dilate, lattice_points, pick_counts
from .laurent_poly import LaurentPoly

# the 30-bit prime of the modular rank prefilter
_PRIME = 634227673


class Support:
    """Lattice points in a fixed lex order, the column index set."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(sorted({(int(x), int(y)) for x, y in points}))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, Support) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Support(%r)" % (list(self.points),)


@dataclass
class JetMatrix:
    char: int
    support: Support
    rows: list


def _binomial_rows(values, r):
    """[C(x, 0), ..., C(x, r-1)] for each x, one table per distinct value."""
    table = {x: [binomial(x, i) for i in range(r)] for x in set(values)}
    return [table[x] for x in values]


def jet_matrix(S, r, char=0):
    """Rows (i, j) with i+j < r; entry C(a-a0, i)*C(b-b0, j) at column (a, b).

    (a0, b0) is the least corner of the support's bounding box, so the
    entries are those of the centred support, read from one binomial table
    per column; the columns keep the labels of S.
    """
    if r < 1:
        raise ValueError("jet order must be at least 1")
    if not isinstance(S, Support):
        S = Support(S)
    a0 = min((a for a, _ in S.points), default=0)
    b0 = min((b for _, b in S.points), default=0)
    ca = _binomial_rows([a - a0 for a, _ in S.points], r)
    cb = _binomial_rows([b - b0 for _, b in S.points], r)
    rows = []
    for i in range(r):
        for j in range(r - i):
            row = [x[i] * y[j] for x, y in zip(ca, cb)]
            rows.append([e % char for e in row] if char else row)
    return JetMatrix(char, S, rows)


def kernel(jm):
    """Kernel basis as plain coefficient vectors, one per basis element.

    In char 0 the prefilter prime showing full column rank settles an empty
    kernel without any rational elimination: rank can only drop mod p, so
    reaching the ceiling is conclusive over Q.  Otherwise the exact path
    decides.
    """
    n = len(jm.support)
    if not jm.char and len(jm.rows) >= n and modular_nullity(jm) == 0:
        return []
    return nullspace(jm.rows, n, jm.char)


def kernel_polynomials(jm):
    """Kernel vectors reinterpreted as Laurent polynomials on the support."""
    out = []
    for vec in kernel(jm):
        out.append(LaurentPoly(
            {pt: c for pt, c in zip(jm.support.points, vec) if c}, jm.char))
    return out


def modular_nullity(jm):
    """|S| less the rank mod the characteristic, or mod the prefilter prime.

    Exact in char p.  In char 0 it bounds the nullity over Q from above,
    since rank can only drop mod p.
    """
    return len(jm.support) - rank_mod_p(jm.rows, jm.char or _PRIME)


def nullity(jm):
    """Dimension of the kernel, |S| less the rank; no basis is built.

    A modular rank that reaches min(rows, |S|) is the rank over Q too, so
    only a deficient one in char 0 falls back to the rational rank.
    """
    n = len(jm.support)
    null_p = modular_nullity(jm)
    if jm.char or null_p == max(n - len(jm.rows), 0):
        return null_p
    return n - rational_rank(jm.rows)


def lemma_eu_reduce(S, line, r):
    """Drop the r support points on the given line (two lattice points).

    The resulting support carries the order-(r-1) system; the dimension
    equality backing this reduction is a characteristic-0 statement.
    """
    (x1, y1), (x2, y2) = line
    if (x1, y1) == (x2, y2):
        raise ValueError("line needs two distinct points")
    on = [p for p in S.points
          if (x2 - x1) * (p[1] - y1) == (y2 - y1) * (p[0] - x1)]
    if len(on) != r:
        raise ValueError("line meets the support in %d points, not %d"
                         % (len(on), r))
    return Support(set(S.points) - set(on))


def lemma_eu_check(S, line, r, char=0):
    """Nullity before and after reducing; the pair agrees in char 0."""
    S2 = lemma_eu_reduce(S, line, r)
    n1 = nullity(jet_matrix(S, r, char))
    n2 = len(S2) if r == 1 else nullity(jet_matrix(S2, r - 1, char))
    return n1, n2


def ehrhart_polynomial(P):
    """Coefficients (area, B/2, 1) of the count of n*P lattice points."""
    if not isinstance(P, IntegralPolygon):
        raise ValueError("need an integral polygon")
    A = area2(P)
    if A == 0:
        raise ValueError("polygon is degenerate")
    return (Fraction(A, 2), Fraction(pick_counts(P)[0], 2), Fraction(1))


def hilbert_numerator(P, N=8):
    """Numerator f with sum_n L(n) s^n = f(s) / (1-s)^3, from direct counts.

    The true numerator of a polygon has degree 2, so the default window
    leaves plenty of slack; a nonzero final coefficient means N was too
    small to see the tail vanish.
    """
    if not isinstance(P, IntegralPolygon):
        raise ValueError("need an integral polygon")
    if area2(P) == 0:
        raise ValueError("polygon is degenerate")
    counts = [1] + [len(lattice_points(dilate(P, n))) for n in range(1, N + 1)]
    f = []
    for k in range(N + 1):
        v = counts[k]
        for i, sign in ((1, -3), (2, 3), (3, -1)):
            if k - i >= 0:
                v += sign * counts[k - i]
        f.append(v)
    if f[-1] != 0:
        raise ValueError("truncation too small")
    while f and f[-1] == 0:
        f.pop()
    return f
