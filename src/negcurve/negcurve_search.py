"""Search for negative curves in symbolic powers of the three-variable primes.

`walk` yields one `Cell` record per (r, d) cell of the region; `scan` and the
`search` command's ledger both read that one stream.
"""

from collections import namedtuple
from math import isqrt

from .herzog_semigroup import _check_weights, herzog_data, triangle
from .lattice_geom import convex_hull, dilate, inward_normals, lattice_points, pick_counts
from .laurent_poly import serialize
from .nct_catalog import _splits, is_nct, nct_to_json, report_status
from .symbolic_power import jet_matrix, kernel_polynomials


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
        return report_status(self.accepted, self.nct.certificate)


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
    # the Newton polygon lies in dP, so its jet kernel embeds in the one on
    # pts: its nullity is at most that kernel's, which is 1
    nct = is_nct(phi, r, 1)
    # the support lies in dP, so a support point on an edge's line is on the edge
    edge_ok = all(any(n[0] * x + n[1] * y == bound for x, y in phi.terms)
                  for n, bound in inward_normals(dP))
    checks = [
        ("irreducible", nct.certificate.verdict != "Factored"),
        ("edge_touching", edge_ok),
        ("jet_membership", nct.multiplicity >= r),
        ("area", is_negative_pair(a, b, c, r, d)),
    ]
    return NegativeCurveReport(triple, char, r, d, phi, checks, nct,
                               _genus(pts, r), 1)


Cell = namedtuple("Cell", "r d why nullity report")


def _degree_cells(triple, char, T, d, lo, cap):
    """Visited cells of degree d for lo <= r < cap, as `Cell` records, and
    the least r at which d is then known to be empty.

    The support is the lattice points of dT whatever r is, and the order-r
    jet rows are a subset of the order-(r+1) rows, so the kernel can only
    shrink as r grows: the walk stops at the first r with an empty kernel,
    in every characteristic, and that r is returned.  A degree without
    lattice points returns 0; a walk that keeps a kernel up to the cap
    returns the cap.  Nothing is built when lo >= cap.
    """
    if lo >= cap:
        return [], cap
    dP = dilate(T, d)
    pts = lattice_points(dP)
    if not pts:
        return [], 0
    # A cell of nullity >= 2 holds no hit.  An irreducible, edge-touching phi
    # with mult >= r and d^2 < abc r^2 cuts out a curve C of class dH - mE,
    # m >= r, and every g in the cell has (dH - rE).C = d^2/abc - rm < 0, so
    # C is a component of V(g) (Cutkosky, J. reine angew. Math. 416, 1991;
    # Kurano and Matsuoka, J. Algebra 322, 2009).  Over a non-closed field
    # each Galois conjugate component of C is negative too, so phi divides g,
    # and g, of the same degree, is a constant times phi.  A hit is thus the
    # lone generator of its cell, and a split one would fail the
    # irreducibility check (see `_splits`).
    cells = []
    for r in range(lo, cap):
        basis = kernel_polynomials(jet_matrix(pts, r, char))
        hit = None
        if len(basis) == 1 and not _splits(basis[0]):
            report = _report(triple, char, r, d, basis[0], dP, pts)
            if report.accepted:
                hit = report
        cells.append(Cell(r, d, "visited", len(basis), hit))
        if not basis:
            return cells, r
    return cells, cap


def find(a, b, c, char, r, d):
    """The cell's lone kernel generator at (r, d), when it passes the four
    curve conditions; a cell of larger nullity holds no curve."""
    cells, _ = _degree_cells((a, b, c), char, triangle(herzog_data(a, b, c)),
                             d, r, r + 1)
    report = cells[0].report if cells else None
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

    Degrees are walked from the top, each over r from its least r in the
    region (`_degree_cells`).  p^(r) is an ideal of a domain, so a monomial
    of degree s in {a, b, c} embeds [p^(r)]_d in [p^(r)]_{d+s}: an empty
    kernel at (r, d+s) proves (r, d) empty, in every characteristic, and so
    by the r-monotone stop is every (r', d) with r' >= r.  stop[d] is the
    least r at which d is known to be empty, and d walks only below its cap
    min(stop[d+a], stop[d+b], stop[d+c]); r_max + 1 stands for none, and a
    degree outside the region caps nothing.

    `why` is "visited", "after empty" (an earlier r of d had an empty
    kernel), "capped" (a higher degree proved it empty) or "no points" (dT
    was built and has no lattice point).  Only a visited cell has a
    `nullity`, its kernel dimension, and a `report`, when accepted.
    """
    least_r = {}
    for r, ds in cell_region(a, b, c, r_max, d_filter):
        for d in ds:
            least_r.setdefault(d, r)
    T = triangle(herzog_data(a, b, c))
    stop = {}
    for d in sorted(least_r, reverse=True):
        lo = least_r[d]
        cap = min(stop.get(d + s, r_max + 1) for s in (a, b, c))
        cells, stop[d] = _degree_cells((a, b, c), char, T, d, lo, cap)
        yield from cells
        for r in range(lo + len(cells), r_max + 1):
            if lo < cap and stop[d] == 0:
                why = "no points"
            else:
                why = "capped" if r >= cap else "after empty"
            yield Cell(r, d, why, None, None)


def scan(a, b, c, char, r_max, d_filter=None):
    """The accepted cells of `walk` as (r, d, report), sorted by (r, d)."""
    return sorted((cell.r, cell.d, cell.report)
                  for cell in walk(a, b, c, char, r_max, d_filter)
                  if cell.report is not None)
