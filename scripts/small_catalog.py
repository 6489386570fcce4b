"""Enumerate all nct classes for r <= 3 up to equivalence."""

import sys
import time

from negcurve.laurent_poly import to_text
from negcurve.nct_catalog import classify, is_nct


def main():
    rmax = 3 if "--r3" in sys.argv else 2
    for r in range(1, rmax + 1):
        t0 = time.monotonic()
        reps = classify(r, experimental=(r == 3))
        print("r=%d: %d class%s (%.1fs)"
              % (r, len(reps), "" if len(reps) == 1 else "es",
                 time.monotonic() - t0))
        for phi in reps:
            rep = is_nct(phi, r)
            print("  %-60s area2=%d B=%d I=%d" %
                  (to_text(phi), rep.area2, rep.B, rep.I))
    if rmax < 3:
        print("(pass --r3 for the r=3 enumeration)")


if __name__ == "__main__":
    main()
