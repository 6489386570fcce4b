"""Verification, families, canonical forms, and small-r classification of ncts."""

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .irreducibility import IrreducibilityCertificate, cert_to_json, certify
from .lattice_geom import (
    DegeneratePolygonError,
    IntegralPolygon,
    _edge_map,
    area2,
    collinear_exceeds,
    convex_hull,
    lattice_points,
    normalized_maps,
    pick_counts,
)
from .laurent_poly import (
    LaurentPoly,
    integer_terms,
    monomial,
    multiplicity_at_one,
    multiply,
    newton_polygon,
    parse,
    serialize,
)
from .symbolic_power import graded_piece, jet_matrix, nullity


class NctReport(namedtuple("NctReport", "r area2 B I lattice_count "
                                        "multiplicity certificate checks")):
    """Outcome of the sanity battery for a candidate r-nct."""

    __slots__ = ()

    @property
    def accepted(self):
        return all(ok for _, ok in self.checks)

    @property
    def status(self):
        return "accepted" if self.accepted else "rejected"


def is_nct(phi, r, most=None, least=0):
    """Run every defining check on phi at multiplicity r.

    The caller knows `most` >= the nullity of the jet kernel on the Newton
    polygon's lattice points and `least` <= phi's multiplicity.  No jet
    matrix is built when `most` meets the lower bound from phi and the
    column count, or when that bound is 2 or more.
    """
    if not phi:
        raise ValueError("zero polynomial")
    if r < 1:
        raise ValueError("r must be positive")
    P = newton_polygon(phi)
    pts = lattice_points(P)
    if len(phi.terms) == 1:
        cert = IrreducibilityCertificate("Inconclusive", "unit input")
    else:
        cert = certify(phi)
    B, I = pick_counts(P, pts)
    A = area2(P)
    mult = multiplicity_at_one(phi, least)
    # with no certificate (see `certify`) the multiplicity or area check fails
    checks = [("multiplicity", mult == r)]
    if cert is not None:
        checks.append(("irreducible", cert.verdict != "Factored"))
    checks += [
        ("area", A < r * r),
        ("lattice_count", len(pts) <= r * (r + 1) // 2 + 1),
    ]
    if r >= 2:
        checks.append(("collinear", not collinear_exceeds(pts, r)))
    # a lower bound: mult >= r puts phi itself in the kernel, and the
    # r(r+1)/2 jet rows leave at least |pts| - r(r+1)/2 free columns
    null = max(1 if mult >= r else 0, len(pts) - r * (r + 1) // 2)
    if null < 2 and null != most:
        null = nullity(jet_matrix(pts, r, phi.char))
    checks.append(("kernel", null == 1))
    return NctReport(r, A, B, I, len(pts), mult, cert, checks)


def nct_to_json(report):
    cert = report.certificate
    return {
        "r": report.r,
        "area2": report.area2,
        "B": report.B,
        "I": report.I,
        "lattice_count": report.lattice_count,
        "multiplicity": report.multiplicity,
        "status": report.status,
        "certificate": None if cert is None else cert_to_json(cert),
        "checks": [[name, bool(ok)] for name, ok in report.checks],
    }


def phi_family(r):
    """Family over the (1, 2, 3) triple: phi_1 = vw - 1, then a two-term recursion."""
    if r < 1:
        raise ValueError("r must be positive")
    cur = parse("vw - 1")
    vm1 = parse("v - 1")
    wm1 = parse("w - 1")
    for k in range(2, r + 1):
        tail = monomial(1, 0)
        for _ in range(k):
            tail = multiply(tail, wm1)
        sign = 1 if k % 2 else -1
        cur = -multiply(cur, vm1) + sign * tail
    return cur


def _ggk_vertices(r):
    if r % 2:
        return [(-1, -1), (r - 1, 0), ((r - 1) // 2, r - 1), ((r - 3) // 2, r - 2)]
    return [(-1, -1), (r - 1, 0), (r // 2, r - 2), ((r - 2) // 2, r - 1)]


def ggk_prime_family(r):
    """Jet-kernel generator on the tetragon with a vertex at (-1, -1), char 0."""
    if r < 3:
        raise ValueError("the family starts at r = 3")
    P = convex_hull(_ggk_vertices(r))
    if len(P.vertices) != 4:
        raise RuntimeError("tetragon degenerated at r = %d" % r)
    pts = lattice_points(P)
    if len(pts) != r * (r + 1) // 2 + 1:
        raise RuntimeError("lattice count %d is off at r = %d" % (len(pts), r))
    basis = graded_piece(pts, r)
    if len(basis) != 1:
        raise RuntimeError("jet kernel dimension is not 1 at r = %d" % r)
    psi = basis[0]
    # nonzero vertex coefficients pin the newton polygon to the full tetragon
    for v in P.vertices:
        if not psi.terms.get(v):
            raise RuntimeError("vertex coefficient vanishes at %s" % (v,))
    # integer coefficients with content 1, negative at the least support point
    ints = integer_terms(psi)
    return LaurentPoly(ints) * (-1 if ints[min(ints)] > 0 else 1)


def _image_key(phi, f):
    """`_rep_key` of phi with its exponents mapped by f, scaled to
    coefficient -1 at the least support point, with no polynomial built."""
    terms = sorted((f.apply(e), c) for e, c in phi.terms.items())
    p, c0 = phi.char, terms[0][1]
    unit = -pow(c0, -1, p) if p else Fraction(-1) / c0
    return (tuple(e for e, _ in terms),
            tuple(c * unit % p if p else c * unit for _, c in terms))


def _rep_key(phi):
    sup = phi.support()
    return tuple(sup), tuple(phi.terms[e] for e in sup)


def canonical_form(phi, r):
    """Least (support, coefficients) representative of the equivalence class."""
    if not phi:
        raise ValueError("zero polynomial")
    P = newton_polygon(phi)
    if P.dim < 2:
        if r >= 2:
            raise DegeneratePolygonError("no canonical form on a segment for r >= 2")
        # either endpoint to the origin, the segment along the x-axis
        V, W = P.vertices[0], P.vertices[-1]
        maps = [_edge_map(V, W), _edge_map(W, V)]
    else:
        _, maps = normalized_maps(P, r)
    return LaurentPoly(dict(zip(*min(_image_key(phi, f) for f in maps))), phi.char)


def _normalized_polygons(r):
    """(P, its lattice points) for each convex lattice polygon P in base
    position inside Omega, r-pruned."""
    r2 = r * r
    bound = r * (r + 1) // 2 + 1
    # the rows 1 <= y < r2 of Omega run over 0 <= x <= y + isqrt(2 r^4)
    slack = isqrt(2 * r2 * r2)
    out = []

    # Every emitted chain turns left at each vertex, the closing turns at
    # v_n (origin strictly left of the last edge) and v_0 (v_n above the
    # base) included, with edge directions ascending in [0, 2pi): a strictly
    # convex ccw polygon.  There v_0 lies strictly left of every edge
    # v_{k-1} v_k with k >= 2, so a chain whose new edge v_k w fails
    # det2(v_k, w) > 0 has no emitted extension and is pruned.  A chain that
    # survives is its own hull: twice its area is the shoelace sum A2 of
    # det2(v_k, w), and its boundary count is S, the gcds of its edges, plus
    # the closing edge's, so Pick gives its lattice count before any point
    # is listed.  Points are listed only for a chain that closes: a line
    # past r points stays in the hull of every extension, so the collinear
    # cut there rejects what a cut on the open chain would have pruned.
    # (r >= 2 here: Omega has no row at r = 1.)
    def rec(chain, ek, A2, S):
        a, b = chain[-1]
        if A2 >= r2 or (A2 + S + gcd(a, b) + 2) // 2 > bound:
            return
        if b > a >= 0:
            P = IntegralPolygon(chain)
            pts = lattice_points(P)
            if not collinear_exceeds(pts, r):
                out.append((P, pts))
        # v_k = (a, b) has b >= 1, so each condition on w = (x, y) is linear
        # in x along a row: the origin strictly left of the new edge,
        # a*y - b*x > 0, with the area below r2, a*y - b*x < r2 - A2; and a
        # left turn after ek, det2(ek, w - v_k) = c - q*x > 0, which follows
        # ek in angle unless it passes direction (1, 0), so a downward ek
        # keeps y < b
        p, q = ek
        for y in range(1, b if q < 0 else r2):
            c = p * (y - b) + q * a
            lo = max(0, (a * y - r2 + A2) // b + 1)
            hi = min(y + slack, (a * y - 1) // b)
            if q > 0:
                hi = min(hi, (c - 1) // q)
            elif q < 0:
                lo = max(lo, c // q + 1)
            elif c <= 0:
                continue
            for x in range(lo, hi + 1):
                e = (x - a, y - b)
                rec(chain + [(x, y)], e, A2 + a * y - b * x, S + gcd(*e))

    # base edge (0,0)-(a,0) carries a+1 collinear lattice points
    for a in range(1, max(2, r)):
        for y in range(1, r2):
            for x in range(y + slack + 1):
                rec([(0, 0), (a, 0), (x, y)], (x - a, y), a * y, a + gcd(x - a, y))
    return out


def _kernel_generators(r, char):
    """The lone generator of each 1-dimensional jet kernel on the r-pruned pool."""
    if r == 1:
        # only the primitive segment fits the 2-point budget; no polygon has area2 < 1
        supports = [[(0, 0), (1, 0)]]
    else:
        supports = (pts for _, pts in _normalized_polygons(r))
    psis = []
    for pts in supports:
        # a class generator spans its jet kernel
        basis = graded_piece(pts, r, char)
        if len(basis) == 1:
            psis.append(basis[0])
    return psis


def catalog(r, char=0, experimental=False):
    """Canonical representatives with reports, exhaustively for r <= 2 (3 and 4 gated)."""
    if r < 1:
        raise ValueError("r must be positive")
    if r > 4:
        raise ValueError("no enumeration beyond r = 4")
    if r >= 3 and not experimental:
        raise ValueError("r = %d needs --experimental" % r)
    # each canonical form is checked once, and a rejected one keeps None
    entries = {}
    for psi in _kernel_generators(r, char):
        rep = canonical_form(psi, r)
        key = _rep_key(rep)
        if key not in entries:
            report = is_nct(rep, r)
            entries[key] = (rep, report) if report.accepted else None
    return [entries[k] for k in sorted(entries) if entries[k]]


def catalog_to_json(r, char=0, experimental=False):
    return {
        "r": r,
        "char": char,
        "classes": [
            {"representative": serialize(rep), "report": nct_to_json(report)}
            for rep, report in catalog(r, char, experimental)
        ],
    }
