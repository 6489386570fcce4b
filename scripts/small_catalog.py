"""Enumerate the nct classes up to equivalence: r <= 2, or up to r = 3 or 4
with --r3 or --r4.

r <= 2 is exhaustive; r = 3 and 4 run the experimental enumeration, which
lists the classes it finds and claims no full count.
"""

import sys
import time

from negcurve.laurent_poly import to_text
from negcurve.nct_catalog import classify, is_nct


def main():
    rmax = 4 if "--r4" in sys.argv else 3 if "--r3" in sys.argv else 2
    for r in range(1, rmax + 1):
        t0 = time.monotonic()
        reps = classify(r, experimental=(r >= 3))
        print("r=%d: %d class%s (%.1fs)"
              % (r, len(reps), "" if len(reps) == 1 else "es",
                 time.monotonic() - t0))
        for phi in reps:
            rep = is_nct(phi, r)
            print("  %-60s area2=%d B=%d I=%d" %
                  (to_text(phi), rep.area2, rep.B, rep.I))
    if rmax < 3:
        print("(pass --r3 or --r4 for the r=3 or r=4 enumeration)")


if __name__ == "__main__":
    main()
