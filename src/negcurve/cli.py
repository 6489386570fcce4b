"""Command-line front end; every pipeline, JSON or text reports."""

import argparse
import importlib.util
import json
import sys
from collections import Counter
from math import gcd

from .exact_arith import is_prime, rat_str
from .lattice_geom import (
    IntegralPolygon,
    dilate,
    lattice_points,
    pick_counts,
    polygon_from_json,
)
from .laurent_poly import ParseError, from_json, newton_polygon, parse, serialize


def _lazy(name):
    """Module `name` of the package, run when an attribute is first read, so
    a command runs only the modules it reads; yet every module is in
    sys.modules once cli is imported, where perfbench/tracer.py wraps it."""
    name = "%s.%s" % (__package__, name)
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


herzog_semigroup, irreducibility, nct_catalog, negcurve_search, symbolic_power, \
    toric_surface = map(_lazy, ("herzog_semigroup", "irreducibility", "nct_catalog",
                                "negcurve_search", "symbolic_power", "toric_surface"))

SCAN_CELL_BUDGET = 500
# ggk's jet matrix has r(r+1)/2 rows and one column more: 1830 x 1831 at
# r = 60 takes seconds, and 20100 x 20101 at r = 200 ran out of memory
GGK_R_MAX = 60


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for diagram contradictions
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _integer(text, what):
    # argparse names the type function in its own message for a ValueError
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%s must be an integer" % what) from None


def _char(text):
    """0 or a prime, below the bound where `is_prime` stops being exact."""
    value = _integer(text, "characteristic")
    try:
        if value and not is_prime(value):
            raise argparse.ArgumentTypeError("characteristic must be 0 or a prime")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _at_least_1(text, what):
    value = _integer(text, what)
    if value < 1:
        raise argparse.ArgumentTypeError("%s must be at least 1" % what)
    return value


def _jobs(text):
    """A worker count, at least 1; no command reads it."""
    return _at_least_1(text, "worker count")


def _dilation(text):
    return _at_least_1(text, "dilation factor")


def _degrees(text):
    """A comma-separated set of degrees, each at least 1."""
    return {_at_least_1(x, "degree") for x in text.split(",")}


def _rays(text):
    """Distinct primitive rays x,y separated by spaces or semicolons."""
    rays = []
    for ray in text.replace(";", " ").split():
        coords = ray.split(",")
        if len(coords) != 2:
            raise argparse.ArgumentTypeError("ray %r must be two integers x,y" % ray)
        rays.append(tuple(_integer(x, "each coordinate of ray %r" % ray)
                          for x in coords))
    if not rays or len(set(rays)) < len(rays) or any(gcd(*v) != 1 for v in rays):
        raise argparse.ArgumentTypeError(
            "need at least one ray; each primitive (no zero ray) and none repeated")
    return rays


def _load_poly(path, char):
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        phi = from_json(json.loads(text))
        if char and phi.char == 0:
            phi = phi.reduce_mod(char)
        elif phi.char != char:
            raise ValueError("file is at char %d, requested %d" % (phi.char, char))
        return phi
    return parse(text, char)


def _text_lines(doc, indent=0):
    pad = "  " * indent
    out = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, dict) or (isinstance(v, list) and v
                                       and isinstance(v[0], (dict, list))):
                out.append("%s%s:" % (pad, k))
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append("%s%s: %s" % (pad, k, v))
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                out.append("%s-" % pad)
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append("%s%s" % (pad, v))
    else:
        out.append("%s%s" % (pad, doc))
    return out


def _emit(doc, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(_text_lines(doc)))


def cmd_herzog(args):
    return herzog_semigroup.herzog_to_json(herzog_semigroup.herzog_data(args.a, args.b, args.c))


def cmd_search(args):
    cells = negcurve_search.region_size(args.a, args.b, args.c, args.rmax, args.d)
    if cells > SCAN_CELL_BUDGET and not args.long:
        raise ValueError("%d cells to scan; pass --long to run it" % cells)
    tally = Counter()
    empty_degrees = set()  # degrees built without a lattice point
    hits = []
    for cell in negcurve_search.walk(args.a, args.b, args.c, args.char, args.rmax, args.d):
        tally[cell.why] += 1
        if cell.why == "no points":
            empty_degrees.add(cell.d)
        elif cell.why == "visited" and tally[cell.why] % 25 == 1:
            print("scan %d visited of %d cells (r=%d d=%d)"
                  % (tally[cell.why], cells, cell.r, cell.d), file=sys.stderr)
        if cell.report is not None:
            hits.append(cell)
    print("scan done: %d cells in region, %d visited, %d skipped after an "
          "empty kernel, %d skipped by a higher degree, %d cells in %d "
          "degree%s without lattice points"
          % (cells, tally["visited"], tally["after empty"], tally["capped"],
             tally["no points"], len(empty_degrees),
             "" if len(empty_degrees) == 1 else "s"), file=sys.stderr)
    return {
        "triple": [args.a, args.b, args.c],
        "char": args.char,
        "rmax": args.rmax,
        "hits": [negcurve_search.negcurve_to_json(cell.report) for cell in sorted(hits)],
    }


def cmd_check_nct(args):
    phi = _load_poly(args.file, args.char)
    return nct_catalog.nct_to_json(nct_catalog.is_nct(phi, args.r))


def cmd_thm36(args):
    phi = _load_poly(args.file, args.char)
    return toric_surface.thm36_to_json(toric_surface.thm36_report(phi, args.r))


def cmd_classify(args):
    return nct_catalog.catalog_to_json(args.r, args.char, experimental=args.experimental)


def cmd_ggk(args):
    if args.r > GGK_R_MAX:
        n = args.r * (args.r + 1) // 2
        raise ValueError("r = %d needs a %d x %d jet matrix; ggk stops at r = %d"
                         % (args.r, n, n + 1, GGK_R_MAX))
    g = nct_catalog.ggk_prime_family(args.r)
    P = newton_polygon(g)
    pts = lattice_points(P)
    B, I = pick_counts(P, pts)
    return {
        "r": args.r,
        "polynomial": serialize(g),
        "vertices": [list(v) for v in P.vertices],
        "lattice_count": len(pts),
        "B": B,
        "I": I,
    }


def cmd_ehrhart(args):
    with open(args.file) as fh:
        P = polygon_from_json(json.load(fh))
    pts = lattice_points(P)
    ns = range(1, args.dilate + 1)
    doc = {"vertices": [[rat_str(x), rat_str(y)] for x, y in P.vertices]}
    if isinstance(P, IntegralPolygon) and P.dim == 2:
        c2, c1, c0 = symbolic_power.ehrhart_polynomial(P, pts)
        # the polynomial counts each dilate without listing its points; its
        # coefficients (area, B/2, 1) are integers once doubled
        k2, k1, k0 = (int(2 * c) for c in (c2, c1, c0))
        doc["counts"] = [((k2 * n + k1) * n + k0) // 2 for n in ns]
        doc["ehrhart"] = [rat_str(c2), rat_str(c1), rat_str(c0)]
        doc["hilbert_numerator"] = symbolic_power.hilbert_numerator(P, pts)
    else:
        doc["counts"] = [len(pts) if n == 1 else len(lattice_points(dilate(P, n)))
                         for n in ns]
        doc["ehrhart"] = None
        doc["hilbert_numerator"] = None
        doc["note"] = "quasi-polynomial counting only for this polygon"
    return doc


def cmd_classgroup(args):
    cg = toric_surface.class_group(args.rays)
    return {
        "free_rank": cg.free_rank,
        "torsion": cg.torsion,
        "grading_matrix": cg.grading_matrix,
        "classes": [list(cg.class_of(j)) for j in range(len(args.rays))],
    }


def _build_parser():
    top = _Parser(prog="negcurve",
                  description="negative curves on blown-up toric surfaces")
    top.add_argument("--format", choices=("json", "text"), default="json")
    # every command runs in one process; --jobs stays a checked, unused
    # option because perfbench/run.py passes --jobs 1 to every command
    top.add_argument("--jobs", type=_jobs, default=None,
                     help="accepted and ignored: every command runs in one process")
    # --format is accepted after any subcommand too; an absent one must not
    # clobber the value parsed at the top level, hence SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("herzog", help="presentation data and triangle")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=cmd_herzog)

    p = add_parser("search", help="scan (r, d) cells for negative curves")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--char", type=_char, default=0)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--d", type=_degrees, help="comma-separated degree filter")
    p.add_argument("--long", action="store_true")
    p.set_defaults(func=cmd_search)

    p = add_parser("check-nct", help="run the nct battery on a polynomial file")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--char", type=_char, default=0)
    p.set_defaults(func=cmd_check_nct)

    p = add_parser("thm36", help="condition diagram for an nct")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--char", type=_char, default=0)
    p.set_defaults(func=cmd_thm36)

    p = add_parser("classify", help="canonical classes at small r")
    p.add_argument("--r", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--char", type=_char, default=0)
    p.add_argument("--experimental", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = add_parser("ggk", help="tetragon kernel family member")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_ggk)

    p = add_parser("ehrhart", help="counting data for a polygon file")
    p.add_argument("file")
    p.add_argument("--dilate", type=_dilation, default=5)
    p.set_defaults(func=cmd_ehrhart)

    p = add_parser("classgroup", help="divisor class group from rays")
    p.add_argument("rays", metavar="RAYS", type=_rays,
                   help='all rays in one string: "2,-1 -2,-1 0,1"')
    p.set_defaults(func=cmd_classgroup)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except toric_surface.DiagramContradiction as exc:  # looked up only for other errors
        print("contradiction: %s" % exc, file=sys.stderr)
        return 2
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
