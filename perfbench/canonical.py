"""Canonical forms of search hits, computed by the checkout's package.

    python3 perfbench/canonical.py QUERY_FILE

QUERY_FILE holds a JSON list of [phi_json, r] pairs; standard output gets
the JSON list of their serialized canonical forms, in the same order.
"""

import json
import sys

from negcurve.laurent_poly import from_json, serialize
from negcurve.nct_catalog import canonical_form


def main():
    with open(sys.argv[1]) as fh:
        queries = json.load(fh)
    print(json.dumps([serialize(canonical_form(from_json(phi), r)) for phi, r in queries]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
