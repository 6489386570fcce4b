"""Exact 2D lattice and rational convex geometry.

Points are plain (x, y) tuples of ints (lattice) or Fractions (rational).
Polygons store a minimal counterclockwise vertex list plus a dimension flag
(0 point, 1 segment, 2 polygon); degenerate hulls are first-class values and
the operations that need dimension 2 raise DegeneratePolygonError.

Lattice counting uses only integers: every polygon, segment or point becomes
integer half-planes nx*x + ny*y >= c, scanned column by column.  Fractions
appear only in rational vertices and in the exact bounds of inward_normals.
"""

from fractions import Fraction
from math import gcd, lcm

from .exact_arith import det2, parse_rat


class DegeneratePolygonError(ValueError):
    """Operation needs a 2-dimensional polygon."""


class EmptyRegionError(ValueError):
    """Half-plane intersection is empty."""


class UnboundedRegionError(ValueError):
    """Half-plane intersection is unbounded."""


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points):
    """Monotone chain; returns (ccw vertex list, dim), collinear points dropped."""
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return pts, 0
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    if len(lower) == 2 and len(upper) == 2:
        return [pts[0], pts[-1]], 1
    verts = lower[:-1] + upper[:-1]
    i = min(range(len(verts)), key=lambda k: verts[k])
    return verts[i:] + verts[:i], 2


class Polygon:
    """Shared guts of IntegralPolygon and RationalPolygon."""

    __slots__ = ("vertices", "dim")

    def __init__(self, points):
        verts, dim = _hull_vertices(list(points))
        self.vertices = tuple(tuple(p) for p in verts)
        self.dim = dim

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.dim == other.dim \
            and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, list(self.vertices))


class IntegralPolygon(Polygon):
    def __init__(self, points):
        pts = [(int(x), int(y)) for x, y in points]
        for (x, y), (ox, oy) in zip(pts, points):
            if x != ox or y != oy:
                raise ValueError("non-integral vertex %s" % ((ox, oy),))
        super().__init__(pts)


class RationalPolygon(Polygon):
    def __init__(self, points):
        super().__init__([(Fraction(x), Fraction(y)) for x, y in points])


def convex_hull(points):
    """Hull of a set of lattice points, as an IntegralPolygon."""
    return IntegralPolygon(points)


def area2(P):
    """Twice the (positive) area; 0 for degenerate polygons."""
    if P.dim < 2:
        return 0
    vs = P.vertices
    s = 0
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        s += x0 * y1 - x1 * y0
    return s


def edges(P):
    if P.dim < 2:
        raise DegeneratePolygonError("polygon has dimension %d" % P.dim)
    vs = P.vertices
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _primitive(v):
    """Primitive integer vector parallel to v (v integer or rational, nonzero)."""
    x, y = v
    den = lcm(x.denominator, y.denominator)
    a = x.numerator * (den // x.denominator)
    b = y.numerator * (den // y.denominator)
    g = gcd(a, b)
    return (a // g, b // g)


def inward_normals(P):
    """[(normal, bound)] with the polygon equal to {x : <x,n> >= bound}.

    Normals are primitive integer vectors; bounds are exact rationals.
    """
    out = []
    for (a, b) in edges(P):
        d = (b[0] - a[0], b[1] - a[1])
        n = _primitive((-d[1], d[0]))
        out.append((n, n[0] * a[0] + n[1] * a[1]))
    return out


def _ceil(x):
    return -((-x.numerator) // x.denominator)


def _floor(x):
    return x.numerator // x.denominator


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _halfplanes(P):
    """Integer triples (nx, ny, c): the lattice points of P are exactly the
    integer solutions of nx*x + ny*y >= c for every triple."""
    if P.dim == 2:
        return [(n[0], n[1], _ceil(bound)) for n, bound in inward_normals(P)]
    a, b = P.vertices[0], P.vertices[-1]
    if P.dim == 1:
        # the line through a and b taken both ways, capped at a and at b
        n = _primitive((a[1] - b[1], b[0] - a[0]))
        s = _primitive((b[0] - a[0], b[1] - a[1]))
    else:
        # a point: both coordinates pinned from above and below
        n, s = (1, 0), (0, 1)
    na = n[0] * a[0] + n[1] * a[1]
    sa, sb = s[0] * a[0] + s[1] * a[1], s[0] * b[0] + s[1] * b[1]
    return [(n[0], n[1], _ceil(na)), (-n[0], -n[1], -_floor(na)),
            (s[0], s[1], _ceil(sa)), (-s[0], -s[1], -_floor(sb))]


def lattice_points(P):
    """All lattice points of P, sorted lex."""
    lower, upper, sides = [], [], []
    for nx, ny, c in _halfplanes(P):
        if ny > 0:
            lower.append((nx, ny, c))
        elif ny < 0:
            upper.append((nx, -ny, c))
        else:
            sides.append((nx, c))
    xs = [v[0] for v in P.vertices]
    out = []
    # one column per integer x, bottom to top, so the list comes out lex
    for x in range(_ceil(min(xs)), _floor(max(xs)) + 1):
        if any(nx * x < c for nx, c in sides):
            continue
        lo = max(-((nx * x - c) // ny) for nx, ny, c in lower)
        hi = min((nx * x - c) // ny for nx, ny, c in upper)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def pick_counts(P, pts):
    """(B, I): boundary and interior counts of pts, the lattice points of P
    (B = all if dim < 2)."""
    if P.dim < 2:
        return len(pts), 0
    normals = inward_normals(P)
    B = sum(1 for x, y in pts
            if any(n[0] * x + n[1] * y == bound for n, bound in normals))
    return B, len(pts) - B


def dilate(P, d):
    """Vertices scaled by the positive integer d."""
    if d <= 0:
        raise ValueError("dilation factor must be positive")
    cls = IntegralPolygon if isinstance(P, IntegralPolygon) else RationalPolygon
    return cls([(d * x, d * y) for x, y in P.vertices])


def _angle_key(v):
    """Total order on nonzero integer directions: angle in [0, 2pi) from (1,0)."""
    x, y = v
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    return (half, 0 if y == 0 else 1, Fraction(-x, y) if y else Fraction(0))


def halfplane_polygon(constraints):
    """Intersection of half-planes {x : <x, n> >= bound} as a RationalPolygon.

    Raises UnboundedRegionError / EmptyRegionError; a bounded region of lower
    dimension comes back as a degenerate polygon.
    """
    cons = [((Fraction(n[0]), Fraction(n[1])), Fraction(b)) for n, b in constraints]
    if any(n == (0, 0) for n, _ in cons):
        raise ValueError("zero normal vector")
    dirs = sorted(set(_primitive(n) for n, _ in cons), key=_angle_key)
    if len(dirs) < 3:
        raise UnboundedRegionError("normals do not positively span the plane")
    for i in range(len(dirs)):
        if det2(dirs[i], dirs[(i + 1) % len(dirs)]) <= 0:
            raise UnboundedRegionError("normals do not positively span the plane")
    candidates = set()
    m = len(cons)
    for i in range(m):
        (ni, bi) = cons[i]
        for j in range(i + 1, m):
            (nj, bj) = cons[j]
            D = ni[0] * nj[1] - ni[1] * nj[0]
            if D == 0:
                continue
            x = (bi * nj[1] - bj * ni[1]) / D
            y = (ni[0] * bj - nj[0] * bi) / D
            if all(n[0] * x + n[1] * y >= b for n, b in cons):
                candidates.add((x, y))
    if not candidates:
        raise EmptyRegionError("no feasible vertex")
    return RationalPolygon(candidates)


def collinear_exceeds(pts, k):
    """True when some affine line holds more than k of the lex-sorted points.

    The points are a polygon's `lattice_points`.  The scan stops at the first
    line past k.  A polygon whose lines all stay within k has few lattice
    points, on the order of k^2, so only small inputs are scanned in full.
    """
    if len(pts) <= k:
        return False
    if k < 2:
        return True  # one point, or two, always lie on a line
    for i, (xi, yi) in enumerate(pts[:-1]):
        # pts ascend in lex order, so the directions to later points are
        # lex-positive and each line is counted from its least point
        dirs = {}
        for x, y in pts[i + 1:]:
            g = gcd(x - xi, y - yi)
            d = ((x - xi) // g, (y - yi) // g)
            n = dirs.get(d, 1) + 1
            if n > k:
                return True
            dirs[d] = n
    return False


class UnimodularAffineMap:
    """p -> p*M + t with M in GL(2, Z), acting on exponent row vectors."""

    __slots__ = ("m", "t")

    def __init__(self, m, t=(0, 0)):
        self.m = ((int(m[0][0]), int(m[0][1])), (int(m[1][0]), int(m[1][1])))
        self.t = (int(t[0]), int(t[1]))
        if abs(det2(*self.m)) != 1:
            raise ValueError("matrix is not unimodular")

    def apply(self, p):
        x, y = p
        return (x * self.m[0][0] + y * self.m[1][0] + self.t[0],
                x * self.m[0][1] + y * self.m[1][1] + self.t[1])


def omega_contains(pt, r):
    """Exact membership in the bounding region Omega for multiplicity r.

    Omega is the hull of (0,0), (sqrt2 r^2, 0), ((sqrt2+1) r^2, r^2), (0, r^2);
    the irrational edge is tested via the squared comparison.
    """
    x, y = pt
    r2 = r * r
    if x < 0 or y < 0 or y > r2:
        return False
    if x <= y:
        return True
    return (x - y) ** 2 <= 2 * r2 * r2


def _centred(m, V):
    """The map p -> (p - V)*m, which takes V to the origin."""
    return UnimodularAffineMap(m, (-(V[0] * m[0][0] + V[1] * m[1][0]),
                                   -(V[0] * m[0][1] + V[1] * m[1][1])))


def _edge_map(V, W):
    """Map taking V to the origin and the primitive direction of W - V to (1, 0).

    With W == V there is no direction, and the map is the translation by -V.
    """
    if V == W:
        return _centred(((1, 0), (0, 1)), V)
    e = _primitive((W[0] - V[0], W[1] - V[1]))
    g, fx, fy = _ext_gcd(e[0], e[1])
    if g != 1:
        raise RuntimeError("edge direction %s is not primitive" % (e,))
    # e*m = (1, 0): m inverts the unimodular matrix with rows e, (-fy, fx)
    return _centred(((fx, -e[1]), (fy, e[0])), V)


def _base_maps(P):
    """All 2n (vertex, adjacent edge) normalizing maps for a 2-dim polygon."""
    vs = P.vertices
    n = len(vs)
    maps = []
    for i in range(n):
        V = vs[i]
        for other, third in ((vs[(i + 1) % n], vs[(i - 1) % n]),
                             (vs[(i - 1) % n], vs[(i + 1) % n])):
            f = _edge_map(V, other)
            m0, dm = f.m, f.apply(third)
            if dm[1] < 0:
                m0 = ((m0[0][0], -m0[0][1]), (m0[1][0], -m0[1][1]))
                dm = (dm[0], -dm[1])
            a2, b2 = _primitive(dm)
            k = -(a2 // b2)
            # the shear (x, y) -> (x + k*y, y) puts the third vertex at 0 <= x/y < 1
            maps.append(_centred(((m0[0][0] + m0[0][1] * k, m0[0][1]),
                                 (m0[1][0] + m0[1][1] * k, m0[1][1])), V))
    return maps


def normalized_maps(P, r):
    """(canonical polygon, all base maps achieving it), for area2(P) < r^2."""
    if P.dim < 2:
        raise DegeneratePolygonError("normalize needs a 2-dimensional polygon")
    if not area2(P) < r * r:
        raise ValueError("normalize needs area2 < r^2")
    best = None
    winners = []
    for f in _base_maps(P):
        # a unimodular map keeps the vertex cycle, and one of determinant -1
        # reverses it: the image's ccw list from its lex-min vertex is the
        # hull's, with no hull built
        vs = [f.apply(v) for v in P.vertices]
        if det2(*f.m) < 0:
            vs.reverse()
        i = vs.index(min(vs))
        vs = tuple(vs[i:] + vs[:i])
        if not all(omega_contains(v, r) for v in vs):
            raise RuntimeError("base position %s escapes Omega" % (vs,))
        if best is None or vs < best:
            best = vs
            winners = [f]
        elif vs == best:
            winners.append(f)
    return IntegralPolygon(best), winners


def _walk(edge_vectors):
    """Close an edge-vector multiset into a polygon (translated to lex-min 0)."""
    vecs = sorted(edge_vectors, key=_angle_key)
    pts = [(0, 0)]
    for v in vecs:
        pts.append((pts[-1][0] + v[0], pts[-1][1] + v[1]))
    if pts[-1] != (0, 0):
        raise RuntimeError("edge multiset does not close up")
    base = min(pts)
    return IntegralPolygon([(x - base[0], y - base[1]) for x, y in pts[:-1]])


def minkowski_decompositions(P):
    """All splittings P = Q1 + Q2 up to swap and translation.

    Enumerates per-direction counts of the primitive edge multiset; each valid
    zero-sum proper sub-multiset closes into one summand, the complement into
    the other.  Empty list means Minkowski-indecomposable.
    """
    if P.dim < 2:
        raise DegeneratePolygonError("decomposition needs a 2-dimensional polygon")
    prim = []
    counts = []
    for (a, b) in edges(P):
        d = (b[0] - a[0], b[1] - a[1])
        g = gcd(abs(d[0]), abs(d[1]))
        prim.append((d[0] // g, d[1] // g))
        counts.append(g)
    m = len(prim)
    found = {}
    stack = [(0, 0, 0, [])]
    while stack:
        i, sx, sy, chosen = stack.pop()
        if i == m:
            if (sx, sy) != (0, 0):
                continue
            t = chosen
            if all(c == 0 for c in t) or all(c == g for c, g in zip(t, counts)):
                continue
            e1 = [v for v, c in zip(prim, t) for _ in range(c)]
            e2 = [v for v, c, g in zip(prim, t, counts) for _ in range(g - c)]
            q1, q2 = _walk(e1), _walk(e2)
            key = frozenset((q1.vertices, q2.vertices))
            found.setdefault(key, (q1, q2))
            continue
        # remaining edges bound how far the partial sum can still travel
        rx = sum(abs(prim[j][0]) * counts[j] for j in range(i, m))
        ry = sum(abs(prim[j][1]) * counts[j] for j in range(i, m))
        if abs(sx) > rx or abs(sy) > ry:
            continue
        for c in range(counts[i] + 1):
            stack.append((i + 1, sx + c * prim[i][0], sy + c * prim[i][1], chosen + [c]))
    return [found[k] for k in sorted(found, key=lambda fs: sorted(fs))]


def polygon_from_json(doc):
    try:
        verts = [(parse_rat(x), parse_rat(y)) for x, y in doc["vertices"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("bad polygon JSON: %s" % exc) from None
    if all(v[0].denominator == 1 and v[1].denominator == 1 for v in verts):
        return IntegralPolygon([(int(x), int(y)) for x, y in verts])
    return RationalPolygon(verts)
