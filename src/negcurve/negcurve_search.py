"""Search for negative curves in symbolic powers of the three-variable primes."""

from dataclasses import dataclass
from functools import partial
from math import isqrt

from .herzog_semigroup import _check_weights, herzog_data, triangle
from .lattice_geom import convex_hull, dilate, inward_normals, lattice_points, pick_counts
from .laurent_poly import serialize
from .nct_catalog import is_nct, nct_to_json, report_status
from .symbolic_power import jet_matrix, kernel_polynomials


def is_negative_pair(a, b, c, r, d):
    """d/r below sqrt(abc), compared exactly."""
    return d * d < a * b * c * r * r


@dataclass
class NegativeCurveReport:
    """A candidate curve in the d-th graded piece of the r-th symbolic power."""

    triple: tuple
    char: int
    r: int
    d: int
    phi: object
    checks: list
    nct: object
    genus: int
    nullity: int

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
    """Interior lattice count of the hull of pts, less r(r-1)/2."""
    return pick_counts(convex_hull(pts))[1] - r * (r - 1) // 2


def _report(triple, char, r, d, phi, dP, pts, nullity):
    a, b, c = triple
    nct = is_nct(phi, r)
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
                               _genus(pts, r), nullity)


def _degree_cells(triple, char, T, degree):
    """Visited cells (r, report or None) of degree = (d, rs), r ascending.

    The support is the lattice points of dT whatever r is, and the order-r
    jet rows are a subset of the order-(r+1) rows, so the kernel can only
    shrink as r grows: the walk stops at the first r with an empty kernel,
    in every characteristic.  A degree with no lattice points visits none.
    """
    d, rs = degree
    dP = dilate(T, d)
    pts = lattice_points(dP)
    if not pts:
        return []
    cells = []
    for r in rs:
        # the kernel runs the one-prime modular prefilter before any rational one
        basis = kernel_polynomials(jet_matrix(pts, r, char))
        hit = None
        for phi in basis:
            report = _report(triple, char, r, d, phi, dP, pts, len(basis))
            if report.accepted:
                hit = report
                break
        cells.append((r, hit))
        if not basis:
            break
    return cells


def find(a, b, c, char, r, d):
    """First kernel generator at (r, d) passing the four curve conditions."""
    cells = _degree_cells((a, b, c), char, triangle(herzog_data(a, b, c)), (d, [r]))
    report = cells[0][1] if cells else None
    return None if report is None else (report.phi, report)


def cell_region(a, b, c, r_max, d_filter=None):
    """Pairs (r, ds) for r up to r_max: the ascending d with d^2 < abc r^2.

    A generator, so that counting a large region holds one pair at a time.
    The weights are checked before the first pair.
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


def imap_jobs(fn, items, jobs):
    """fn over items, in order, across `jobs` worker processes when jobs > 1."""
    if not jobs or jobs < 2:
        yield from map(fn, items)
        return
    from multiprocessing import Pool

    with Pool(jobs) as pool:
        yield from pool.imap(fn, items)


def scan(a, b, c, char, r_max, d_filter=None, jobs=None, progress=None):
    """All hits with r up to r_max and d below the negativity threshold.

    Degree-major: each degree of the region builds its lattice points once
    and walks r upward to its first empty kernel (`_degree_cells`); `jobs`
    workers split the degrees.  Hits come back sorted by (r, d).
    `progress(r, d)` is called once per visited cell.  A degree with lattice
    points visits at least its least r, so the degrees it never names are
    the ones without lattice points.
    """
    rs_of = {}
    for r, ds in cell_region(a, b, c, r_max, d_filter):
        for d in ds:
            rs_of.setdefault(d, []).append(r)
    degrees = sorted(rs_of.items())
    walk = partial(_degree_cells, (a, b, c), char, triangle(herzog_data(a, b, c)))
    out = []
    for (d, _), cells in zip(degrees, imap_jobs(walk, degrees, jobs)):
        for r, report in cells:
            if progress:
                progress(r, d)
            if report is not None:
                out.append((r, d, report))
    return sorted(out, key=lambda hit: hit[:2])
