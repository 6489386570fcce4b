"""Timing wrappers around the package's public functions, and span arithmetic.

A traced child process calls `install()` after importing `negcurve.cli` and
before running `negcurve.cli.main`.  Every module attribute in the package
that *is* one of the wrapped functions is replaced by one timing wrapper, so
bindings made with `from .x import y` are covered too.  Each call records a
span (name, start, end, parent) in memory; `dump()` writes them, with the
count hooks' totals, when the process ends.  A count hook's own work is
recorded as a `trace.hooks` span, a child of the caller's span, so no
wrapped function's self time includes it.

The arithmetic on spans (`self_times`, `layer_metrics`) runs in the
benchmark's parent process and in the tests; it imports nothing from the
package.
"""

import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs, in the order their metrics are reported
WRAPPED = (
    ("cli", "main"),
    ("negcurve_search", "scan"),
    ("negcurve_search", "find"),
    ("nct_catalog", "catalog"),
    ("nct_catalog", "is_nct"),
    ("nct_catalog", "canonical_form"),
    ("irreducibility", "certify"),
    ("irreducibility", "factor_mod_p"),
    ("symbolic_power", "jet_matrix"),
    ("symbolic_power", "nullity"),
    ("symbolic_power", "kernel_polynomials"),
    ("exact_arith", "rank_mod_p"),
    ("exact_arith", "rational_rank"),
    ("exact_arith", "nullspace"),
    ("laurent_poly", "multiplicity_at_one"),
    ("lattice_geom", "dilate"),
    ("lattice_geom", "lattice_points"),
    ("lattice_geom", "normalized_maps"),
    ("herzog_semigroup", "herzog_data"),
    ("herzog_semigroup", "triangle"),
    ("toric_surface", "thm36_report"),
)

VERDICTS = ("IrreduciblePolytope", "IrreducibleModP", "Factored", "Inconclusive")

PACKAGE = "negcurve"

HOOK_SPAN = "trace.hooks"  # time spent in count hooks


def span_name(module, func):
    return "%s.%s" % (module, func)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


# count hooks: (args, result, counts) -> None, run after the span is closed,
# timed as a HOOK_SPAN span

def _jet_matrix_counts(args, jm, counts):
    counts["symbolic_power.jet_matrix.entries"] += len(jm.rows) * len(jm.support)
    bits = 0
    for row in jm.rows:
        if row:
            bits = max(bits, max(max(row), -min(row)).bit_length())
    counts["symbolic_power.jet_matrix.max_entry_bits"] = max(
        counts["symbolic_power.jet_matrix.max_entry_bits"], bits)


def _nullity_counts(args, value, counts):
    if value > 0:
        counts["symbolic_power.nullity.positive"] += 1
    if args[0].char == 0:
        counts["symbolic_power.nullity.char0_calls"] += 1


def _find_counts(args, hit, counts):
    if hit is not None:
        counts["negcurve_search.find.hits"] += 1


def _lattice_points_counts(args, pts, counts):
    counts["lattice_geom.lattice_points.points"] += len(pts)


def _certify_counts(args, cert, counts):
    counts["irreducibility.certify.verdict." + cert.verdict] += 1


HOOKS = {
    "symbolic_power.jet_matrix": _jet_matrix_counts,
    "symbolic_power.nullity": _nullity_counts,
    "negcurve_search.find": _find_counts,
    "lattice_geom.lattice_points": _lattice_points_counts,
    "irreducibility.certify": _certify_counts,
}


class Tracer:
    """Spans and counts of one process, kept in memory until `dump`."""

    def __init__(self, workload):
        self.workload = workload
        self.names = [span_name(m, f) for m, f in WRAPPED] + [HOOK_SPAN]
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counts = Counter()
        self.restore = []  # (module object, attribute, original)

    def wrap(self, index, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = HOOKS.get(self.names[index])
        hook_index = self.names.index(HOOK_SPAN)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            me = len(spans)
            spans.append(span)
            stack.append(me)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span = [hook_index, clock(), 0.0, stack[-1] if stack else -1]
                hook(args, result, counts)
                span[2] = clock()
                spans.append(span)
            return result

        return traced

    def install(self):
        """Replace every binding of each wrapped function in the package."""
        modules = _package_modules()
        for index, (mod, func) in enumerate(WRAPPED):
            original = getattr(sys.modules["%s.%s" % (PACKAGE, mod)], func)
            wrapper = self.wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.restore):
            setattr(module, attr, original)
        self.restore = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "names": self.names,
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    `spans` holds [name, start, end, parent] records with parent an index into
    the list or -1.  Children are clipped to their parent's interval.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            s, e = max(spans[j][1], start), min(spans[j][2], end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _hook_time_within(names, spans):
    """Per span, the time its descendant count hooks took."""
    hooked = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if names[name] == HOOK_SPAN:
            while parent >= 0:
                hooked[parent] += end - start
                parent = spans[parent][3]
    return hooked


def layer_metrics(traces):
    """Per-layer metrics summed over the traces of one pass's processes.

    Returns (metrics, covered_s) where covered_s is the sum of the wrapped
    functions' self times, the part of the pass's wall time that their own
    code covers.  The count hooks' time is `trace.hooks_s`, outside it.
    """
    names = [span_name(m, f) for m, f in WRAPPED]
    calls = Counter()
    self_s = Counter()
    counts = Counter()
    cell_ms = []
    fallback = 0
    max_bits = 0
    for trace in traces:
        local = trace["names"]
        spans = trace["spans"]
        counts.update(trace["counts"])
        max_bits = max(max_bits, trace["counts"].get(
            "symbolic_power.jet_matrix.max_entry_bits", 0))
        hooked = _hook_time_within(local, spans)
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name = local[span[0]]
            calls[name] += 1
            self_s[name] += own
            if name == "negcurve_search.find":
                cell_ms.append((span[2] - span[1] - hooked[i]) * 1000.0)
            elif name == "exact_arith.rational_rank":
                parent = span[3]
                while parent >= 0 and local[spans[parent][0]] != "symbolic_power.nullity":
                    parent = spans[parent][3]
                if parent >= 0:
                    fallback += 1
    metrics = {}
    for name in names:
        metrics[name + ".calls"] = calls[name]
        metrics[name + ".self_s"] = self_s[name]
    char0 = counts["symbolic_power.nullity.char0_calls"]
    finds = calls["negcurve_search.find"]
    metrics.update({
        "symbolic_power.jet_matrix.entries": counts["symbolic_power.jet_matrix.entries"],
        "symbolic_power.jet_matrix.max_entry_bits": max_bits,
        "symbolic_power.nullity.positive": counts["symbolic_power.nullity.positive"],
        "symbolic_power.nullity.rational_fallback_ratio": fallback / char0 if char0 else 0.0,
        "negcurve_search.find.hit_ratio":
            counts["negcurve_search.find.hits"] / finds if finds else 0.0,
        "negcurve_search.find.cell_ms_p50": _percentile(cell_ms, 50) if cell_ms else 0.0,
        "negcurve_search.find.cell_ms_p99": _percentile(cell_ms, 99) if cell_ms else 0.0,
        "lattice_geom.lattice_points.points": counts["lattice_geom.lattice_points.points"],
    })
    for verdict in VERDICTS:
        key = "irreducibility.certify.verdict." + verdict
        metrics[key] = counts[key]
    metrics["trace.hooks_s"] = self_s[HOOK_SPAN]
    return metrics, sum(self_s[name] for name in names)
