"""Herzog's presentation data for p_{a,b,c} and the rational triangle it cuts out.

For pairwise coprime weights the kernel of k[x,y,z] -> k[l^a, l^b, l^c] is
generated by the 2x2 minors of a matrix whose exponents (s2, s3, t1, t3, u1,
u2) satisfy the linear identities below.  Those exponents pin down a rational
triangle of area 1/(2abc) whose dilations count the graded pieces of the
semigroup ring, and its normal fan is the toric model everything downstream
lives on.

One construction, `_presentation`, gives the data from the least multiple
of c that is a sum s3*a + t3*b of positive parts; `_holds` checks every
identity, and the weights are permuted where it finds none.
"""

from collections import namedtuple
from itertools import permutations
from math import gcd

from .exact_arith import rat_str
from .lattice_geom import area2, halfplane_polygon


HerzogData = namedtuple(
    "HerzogData", "a b c s s2 s3 t t1 t3 u u1 u2 i0 j0 permutation")


def _holds(a, b, c, s, s2, s3, t, t1, t3, u, u1, u2):
    """All of the presentation identities, plus the positivity we rely on."""
    return (s == s2 + s3 and t == t1 + t3 and u == u1 + u2
            and s * a == t1 * b + u1 * c
            and t * b == s2 * a + u2 * c
            and u * c == s3 * a + t3 * b
            and a == t * u - t3 * u2
            and b == s2 * u + s3 * u2
            and s3 > 0 and t3 > 0 and u > 0
            and min(s2, t1, u1, u2) >= 0)


def _presentation(a, b, c):
    # u is the least multiple of c with n*c = s3*a + t3*b, s3 and t3 both
    # positive; n*c - a - b >= (a-1)(b-1) is always representable, hence the
    # cap.  Each n has one least s3 >= 1 with s3*a = n*c (mod b), and t3 >= 1
    # holds there or at no s3, since s3 + b takes a from t3.
    inv = pow(a, -1, b)
    for n in range(1, a * b // c + 3):
        s3 = (n * c * inv - 1) % b + 1
        if n * c - s3 * a >= b:
            u = n
            break
    else:
        return None
    # every decomposition of u*c, t3 ascending.  Then a == t*u - t3*u2 and
    # b == s2*u + s3*u2 give t and s2 for each u2 in [0, u], and the other
    # exponents follow from the sums.
    u_decs = [(x, (u * c - x * a) // b)
              for x in reversed(range(s3, (u * c - b) // a + 1, b))]
    for s3, t3 in u_decs:
        for u2 in range(u + 1):
            if (a + t3 * u2) % u or (b - s3 * u2) % u:
                continue
            t = (a + t3 * u2) // u
            s2 = (b - s3 * u2) // u
            t1 = t - t3
            if t1 < 0 or s2 < 0:
                continue
            cand = (s2 + s3, s2, s3, t, t1, t3, u, u - u2, u2)
            if _holds(a, b, c, *cand):
                return cand
    return None


def _check_weights(a, b, c):
    """Raise ValueError unless (a, b, c) are pairwise coprime positive ints."""
    for w in (a, b, c):
        if not isinstance(w, int) or w < 1:
            raise ValueError("weights must be positive integers")
    if gcd(a, b) > 1 or gcd(b, c) > 1 or gcd(a, c) > 1:
        raise ValueError("weights must be pairwise coprime")


def herzog_data(a, b, c):
    """Presentation data for the weights (a, b, c), permuting them if needed."""
    _check_weights(a, b, c)
    triple = (a, b, c)
    for perm in permutations(range(3)):
        pa, pb, pc = (triple[i] for i in perm)
        found = _presentation(pa, pb, pc)
        if found is not None:
            s, s2, s3, t, t1, t3, u, u1, u2 = found
            i0 = pow(pa, -1, pb) if pb > 1 else 0
            j0 = (1 - i0 * pa) // pb
            return HerzogData(pa, pb, pc, s, s2, s3, t, t1, t3, u, u1, u2,
                              i0, j0, perm)
    raise ValueError("no permutation admits presentation data")


def triangle(data):
    """The rational triangle cut out by the three presentation half-planes."""
    d = data
    return halfplane_polygon([
        ((d.s2, d.s3), -d.i0),
        ((-d.t, d.t3), -d.j0),
        ((d.u2, -d.u), 0),
    ])


def herzog_to_json(data):
    """JSON-ready report of the data and the triangle vertices."""
    doc = data._asdict()
    doc["permutation"] = list(data.permutation)
    P = triangle(data)
    doc["triangle"] = [[rat_str(x), rat_str(y)] for x, y in P.vertices]
    doc["area2"] = rat_str(area2(P))
    return doc
