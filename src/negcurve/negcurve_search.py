"""Search for negative curves in symbolic powers of the three-variable primes.

`walk` yields one `Cell` record per (r, d) cell of the region; `scan` and the
`search` command's ledger both read that one stream.
"""

from collections import namedtuple
from math import isqrt

from .herzog_semigroup import _check_weights, herzog_data, triangle
from .irreducibility import rigid_factor
from .lattice_geom import convex_hull, dilate, inward_normals, lattice_points, pick_counts
from .laurent_poly import integer_terms, serialize
from .nct_catalog import is_nct, nct_to_json
from .symbolic_power import graded_piece, jet_matrix


def is_negative_pair(a, b, c, r, d):
    """d/r below sqrt(abc), compared exactly."""
    return d * d < a * b * c * r * r


class NegativeCurveReport(namedtuple("NegativeCurveReport", "triple char r d "
                                    "phi checks nct genus nullity")):
    """A candidate curve in the d-th graded piece of the r-th symbolic power."""

    __slots__ = ()

    @property
    def accepted(self):
        return all(ok for _, ok in self.checks)

    @property
    def status(self):
        return "accepted" if self.accepted else "rejected"


def negcurve_to_json(report):
    return {
        "triple": list(report.triple),
        "char": report.char,
        "r": report.r,
        "d": report.d,
        "phi": serialize(report.phi),
        "status": report.status,
        "checks": [[name, bool(ok)] for name, ok in report.checks],
        "nct": nct_to_json(report.nct),
        "genus": report.genus,
        "nullity": report.nullity,
    }


def _genus(pts, r):
    """Interior lattice count of the hull of pts, less r(r-1)/2.

    pts are the lattice points of a polygon, so they are those of their hull.
    """
    return pick_counts(convex_hull(pts), pts)[1] - r * (r - 1) // 2


def _report(triple, char, r, d, phi, dP, pts):
    """The curve checks on phi, the lone generator of its cell's kernel."""
    a, b, c = triple
    ints = integer_terms(phi)  # phi is in p^(r): its jets below order r vanish
    jm = jet_matrix(ints, r, phi.char)
    jets = (sum(e * ints[pt] for e, pt in zip(row, jm.support)) for row in jm.rows)
    member = not any(j % phi.char if phi.char else j for j in jets)
    # the Newton polygon lies in dP, so its jet kernel embeds in the one on
    # pts: its nullity is at most that kernel's, which is 1
    nct = is_nct(phi, r, 1, r if member else 0)
    # the support lies in dP, so a support point on an edge's line is on the edge
    edge_ok = all(any(n[0] * x + n[1] * y == bound for x, y in phi.terms)
                  for n, bound in inward_normals(dP))
    checks = [
        ("irreducible", nct.certificate.verdict != "Factored"),
        ("edge_touching", edge_ok),
        ("jet_membership", member),
        ("area", is_negative_pair(a, b, c, r, d)),
    ]
    return NegativeCurveReport(triple, char, r, d, phi, checks, nct,
                               _genus(pts, r), 1)


Cell = namedtuple("Cell", "r d why nullity report")


def _cell(triple, char, r, d, dP, pts):
    """The visited `Cell` at (r, d), dP holding the lattice points pts.

    It carries the kernel dimension, and a report when the kernel's lone
    generator passes the curve checks; a generator with a rigid split (a
    factorization here: see `rigid_factor`) fails the irreducibility check
    without one.
    """
    basis = graded_piece(pts, r, char)
    hit = None
    if len(basis) == 1 and rigid_factor(basis[0]) is None:
        report = _report(triple, char, r, d, basis[0], dP, pts)
        if report.accepted:
            hit = report
    return Cell(r, d, "visited", len(basis), hit)


def find(a, b, c, char, r, d):
    """The cell's lone kernel generator at (r, d), when it passes the four
    curve conditions; a cell of larger nullity holds no curve."""
    dP = dilate(triangle(herzog_data(a, b, c)), d)
    pts = lattice_points(dP)
    report = _cell((a, b, c), char, r, d, dP, pts).report if pts else None
    return None if report is None else (report.phi, report)


def cell_region(a, b, c, r_max, d_filter=None):
    """Pairs (r, ds) for r up to r_max: the ascending d with d^2 < abc r^2.

    A generator; the weights are checked before the first pair.
    """
    _check_weights(a, b, c)
    if r_max < 1:
        raise ValueError("r_max must be positive")
    abc = a * b * c
    for r in range(1, r_max + 1):
        ds = range(1, isqrt(abc * r * r - 1) + 1)
        if d_filter is not None:
            ds = sorted(d for d in d_filter if d in ds)
        yield r, ds


def region_size(a, b, c, r_max, d_filter=None):
    """The number of cells in `cell_region`; unfiltered, one isqrt per r."""
    return sum(len(ds) for _, ds in cell_region(a, b, c, r_max, d_filter))


def walk(a, b, c, char, r_max, d_filter=None):
    """One `Cell` per cell of `cell_region`, in the order the walk takes.

    The walk is r-major: for r = 1, ..., r_max it walks the region's
    degrees from the top.  Two facts settle cells without computing them,
    in every characteristic.  The support is the lattice points of dT
    whatever r is, and the order-r jet rows are a subset of the order-(r+1)
    rows, so an empty kernel at (r, d) proves every (r', d) with r' >= r
    empty.  p^(r) is an ideal of a domain, so a monomial of degree s in
    {a, b, c} embeds [p^(r)]_d in [p^(r)]_{d+s}: an empty kernel at
    (r, d+s), walked earlier at the same r, proves (r, d) empty.  The walk
    keeps each degree known empty from some r on; a degree outside the
    region caps nothing.

    The walk ends at its first hit.  An irreducible, edge-touching phi
    with mult m >= r0 and d0^2 < abc r0^2, accepted at (r0, d0), cuts out
    a curve C of class d0 H - m E.  Every region cell (r, d) has
    d/r < sqrt(abc), as (r0, d0) has, so d d0 < abc r r0 <= abc r m and
    (dH - rE).C = d d0/abc - rm < 0: C is a component of V(g) for every g
    in the cell (Cutkosky, J. reine angew. Math. 416, 1991; Kurano and
    Matsuoka, J. Algebra 322, 2009).  Over a
    non-closed field each Galois conjugate component of C is negative too,
    so phi divides g.  An accepted g, irreducible, is then a constant times
    phi, of degree d0: a hit is the lone generator of its cell, and a
    region holds hits in one degree only.  So past the first hit the walk
    goes on in d0 alone, until its kernel is empty (phi is a hit again at
    each r <= m), and every other cell is "past the hit".

    `why` is "visited", "after empty" (an earlier r of d had an empty
    kernel), "capped" (a higher degree proved it empty), "no points" (dT
    was built and has no lattice point) or "past the hit".  Only a visited
    cell has a `nullity`, its kernel dimension, and a `report`, when
    accepted.
    """
    triple = (a, b, c)
    region = list(cell_region(a, b, c, r_max, d_filter))
    T = triangle(herzog_data(a, b, c))
    settled = {}  # degree -> the why of its cells from here on
    hit = None  # the degree of the first hit
    for r, ds in region:
        for d in reversed(ds):
            if hit is not None and d != hit:
                yield Cell(r, d, "past the hit", None, None)
                continue
            why = settled.get(d)
            if why in (None, "after empty") and (
                    d + a in settled or d + b in settled or d + c in settled):
                why = settled[d] = "capped"
            if why is None:
                dP = dilate(T, d)
                pts = lattice_points(dP)
                if not pts:
                    why = settled[d] = "no points"
            if why is not None:
                yield Cell(r, d, why, None, None)
                continue
            cell = _cell(triple, char, r, d, dP, pts)
            yield cell
            if not cell.nullity:
                settled[d] = "after empty"
            elif cell.report is not None:
                hit = d


def scan(a, b, c, char, r_max, d_filter=None):
    """The accepted cells of `walk` as (r, d, report): one degree, by r."""
    return [(cell.r, cell.d, cell.report)
            for cell in walk(a, b, c, char, r_max, d_filter)
            if cell.report is not None]
