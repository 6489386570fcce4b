"""The (8,15,43) curve at r=9, d=645: pentagon, lattice data, condition report."""

import time

from negcurve.lattice_geom import lattice_points, pick_counts
from negcurve.laurent_poly import newton_polygon, to_text
from negcurve.negcurve_search import find
from negcurve.toric_surface import CONDITION_TEXT, thm36_report


def main():
    t0 = time.monotonic()
    out = find(8, 15, 43, 0, 9, 645)
    assert out is not None, "no curve at (r,d)=(9,645)"
    phi, rep = out
    print("found in %.1fs, status: %s" % (time.monotonic() - t0, rep.status))
    print("terms:", len(phi.terms), " polynomial:", to_text(phi)[:72], "...")

    P = newton_polygon(phi)
    pts = lattice_points(P)
    B, I = pick_counts(P, pts)
    print("Newton polygon vertices:", P.vertices)
    print("lattice points %d, boundary %d, interior %d" % (len(pts), B, I))
    assert len(P.vertices) == 5 and (B, I) == (9, 36)

    report = thm36_report(phi, 9)
    for k in sorted(report.conditions):
        val, how = report.conditions[k]
        print("  (%d) %-5s %-18s %s" % (k, val, how, CONDITION_TEXT[k]))
    assert report.conditions[3][0] is False
    assert report.conditions[7][0] is True and report.conditions[9][0] is True
    print("ok")


if __name__ == "__main__":
    main()
