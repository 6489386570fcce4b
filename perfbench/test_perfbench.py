"""Tests of the benchmark itself: span arithmetic, wrapper coverage, checks.

    python3 -m pytest perfbench
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())

# a small char-2 scan (204 cells, about a second) that finds the (3, 100) hit
TINY = run.Workload("tiny", (9, 10, 13), ("--char", "2", "--rmax", "3"))
TINY_REFERENCE = REFERENCE["scan-9-10-13-c2"]


# ---------------------------------------------------------------- self time

def test_self_times_nested_and_overlapping():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["c", 6.0, 8.0, 0],  # overlaps b: the union counts once
        ["late", 20.0, 25.0, -1],
        ["spill", 24.0, 27.0, 5],  # clipped to its parent
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0, 4.0, 3.0])


def test_self_times_add_up_to_root_durations():
    spans = [["r", 0.0, 9.0, -1], ["x", 1.0, 5.0, 0], ["y", 2.0, 4.0, 1],
             ["z", 6.0, 8.5, 0], ["r2", 10.0, 11.5, -1]]
    assert sum(tracer.self_times(spans)) == pytest.approx(9.0 + 1.5)


def test_layer_metrics_sums_over_processes():
    names = [tracer.span_name(m, f) for m, f in tracer.WRAPPED]
    find = names.index("negcurve_search.find")
    nullity = names.index("symbolic_power.nullity")
    rational = names.index("exact_arith.rational_rank")
    one = {"names": names, "counts": {"symbolic_power.nullity.char0_calls": 2,
                                      "symbolic_power.jet_matrix.max_entry_bits": 7},
           "spans": [[find, 0.0, 1.0, -1], [nullity, 0.1, 0.5, 0],
                     [rational, 0.2, 0.3, 1], [nullity, 0.6, 0.7, 0]]}
    two = {"names": names, "counts": {"symbolic_power.jet_matrix.max_entry_bits": 9},
           "spans": [[find, 0.0, 0.002, -1]]}
    metrics, covered = tracer.layer_metrics([one, two])
    assert metrics["negcurve_search.find.calls"] == 2
    assert metrics["negcurve_search.find.self_s"] == pytest.approx(0.5 + 0.002)
    assert metrics["symbolic_power.nullity.self_s"] == pytest.approx(0.4)
    assert metrics["symbolic_power.nullity.rational_fallback_ratio"] == 0.5
    assert metrics["symbolic_power.jet_matrix.max_entry_bits"] == 9
    assert metrics["negcurve_search.find.cell_ms_p50"] == pytest.approx(2.0)
    assert metrics["negcurve_search.find.cell_ms_p99"] == pytest.approx(1000.0)
    assert covered == pytest.approx(1.002)


def test_hook_time_is_kept_out_of_every_program_span():
    names = [tracer.span_name(m, f) for m, f in tracer.WRAPPED] + [tracer.HOOK_SPAN]
    find = names.index("negcurve_search.find")
    jet = names.index("symbolic_power.jet_matrix")
    hook = names.index(tracer.HOOK_SPAN)
    # find [0, 1] calls jet_matrix [0.1, 0.3], whose hook runs [0.3, 0.7] in find
    spans = [[find, 0.0, 1.0, -1], [jet, 0.1, 0.3, 0], [hook, 0.3, 0.7, 0],
             [hook, 1.0, 1.25, -1]]
    metrics, covered = tracer.layer_metrics([{"names": names, "spans": spans, "counts": {}}])
    assert metrics["negcurve_search.find.self_s"] == pytest.approx(0.4)
    assert metrics["negcurve_search.find.cell_ms_p50"] == pytest.approx(600.0)
    assert metrics["trace.hooks_s"] == pytest.approx(0.65)
    assert covered == pytest.approx(0.6)


def test_wrapper_times_its_hook_as_a_hook_span(monkeypatch):
    def slow_hook(args, result, counts):
        time.sleep(0.05)

    monkeypatch.setitem(tracer.HOOKS, "symbolic_power.jet_matrix", slow_hook)
    monkeypatch.setitem(tracer.HOOKS, "negcurve_search.find", slow_hook)
    t = tracer.Tracer("test")
    jet = t.wrap(t.names.index("symbolic_power.jet_matrix"), lambda: None)
    find = t.wrap(t.names.index("negcurve_search.find"), lambda: jet())
    find()
    metrics, covered = tracer.layer_metrics(
        [{"names": t.names, "spans": t.spans, "counts": {}}])
    assert metrics["trace.hooks_s"] >= 0.1
    assert metrics["negcurve_search.find.self_s"] < 0.02
    assert metrics["negcurve_search.find.cell_ms_p50"] < 20.0
    assert covered < 0.02


# ---------------------------------------------------------------- wrappers

def _bindings(originals):
    """(module, attribute) pairs in the package bound to one of `originals`."""
    ids = {id(fn) for fn in originals}
    return [(name, attr) for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == tracer.PACKAGE
            for attr, value in vars(module).items() if id(value) in ids]


def test_every_binding_of_each_wrapped_function_is_replaced():
    sys.path.insert(0, str(run.SRC))
    import negcurve.cli  # noqa: F401

    package = run.SRC / "negcurve"
    for path in package.glob("*.py"):
        if path.stem != "__init__":
            # a module the command line never imports would go unwrapped
            assert "negcurve." + path.stem in sys.modules, path.stem
    originals = [getattr(sys.modules["negcurve." + m], f) for m, f in tracer.WRAPPED]
    before = _bindings(originals)
    t = tracer.Tracer("test")
    t.install()
    try:
        assert _bindings(originals) == []
        # `from .symbolic_power import jet_matrix` elsewhere is covered too
        import negcurve.negcurve_search as search
        import negcurve.symbolic_power as sp

        assert search.jet_matrix is sp.jet_matrix
        assert sp.jet_matrix.__wrapped__ is originals[
            tracer.WRAPPED.index(("symbolic_power", "jet_matrix"))]
        assert len(t.restore) >= len(before) > len(tracer.WRAPPED)
    finally:
        t.uninstall()
    assert sorted(_bindings(originals)) == sorted(before)


# ---------------------------------------------------------------- checks

def _search_stdout(r, d, status, phi):
    return json.dumps({"hits": [{"r": r, "d": d, "status": status, "phi": phi}]})


def _checked(stdout, ref):
    """Problems of a search output, its hits' canonical forms taken as given."""
    pas = run.Pass((8, 15, 43))
    pas.problems, pas.hits = run.check_search(stdout, ref)
    run.check_canonical([pas], ref, lambda queries: [phi for phi, _ in queries])
    return pas.problems


def test_search_check_accepts_the_reference_and_refuses_tampering():
    ref = REFERENCE["scan-8-15-43"]
    phi = ref["canonical_form"]
    assert _checked(_search_stdout(9, 645, "accepted", phi), ref) == []
    assert _checked(_search_stdout(9, 646, "accepted", phi), ref)
    assert _checked(_search_stdout(9, 645, "conditionally accepted", phi), ref)
    bad = json.loads(json.dumps(phi))
    bad["terms"][0]["c"] = "1"
    assert _checked(_search_stdout(9, 645, "accepted", bad), ref)
    assert _checked(json.dumps({"hits": []}), ref)
    assert _checked("not json", ref)


def test_classify_check_refuses_a_changed_digest():
    out = json.dumps({"classes": [{}, {}]}) + "\n"
    ref = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "classes": 2}
    assert run.check_classify(out, ref) == []
    assert run.check_classify(out.replace("{}", "{ }", 1), ref)


def test_tampered_hit_counts_as_failed():
    tampered = dict(TINY_REFERENCE, hits=[[3, 101]])
    _, _, record = run.run_workload(TINY, 0, 0, False, tampered)
    assert record["attempted"] >= 1
    passes = [p for p in record["passes"]]
    assert passes and not any(p["ok"] for p in passes)
    assert record["failed"] >= len(passes)

    e2e, _, record = run.run_workload(TINY, 0, 0, False, TINY_REFERENCE)
    assert record["failed"] == 0
    assert set(e2e) == set(run.END_TO_END) and all(v > 0 for v in e2e.values())


def test_two_traced_passes_repeat_every_count():
    def counts():
        _, layers, record = run.run_workload(TINY, 0, 0, True, TINY_REFERENCE)
        assert record["failed"] == 0
        return {k: v for k, v in layers.items()
                if run.layer_unit(k) in ("count", "bits", "ratio")}

    first, second = counts(), counts()
    assert first == second
    assert first["negcurve_search.find.calls"] == 204
    assert first["irreducibility.certify.calls"] >= 1


# ---------------------------------------------------------------- contract

def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_seed_sets_the_weight_orders():
    scan = run.WORKLOADS["scan-8-15-43"]
    plans = {tuple(scan.plan(seed)) for seed in range(40)}
    assert len(plans) == 6  # two parity classes times three starting orders
    for plan in plans:
        for place in range(3):
            assert sorted(order[place] for order in plan) == [8, 15, 43]
    assert scan.plan(7) == scan.plan(7)
    c2 = run.WORKLOADS["scan-9-10-13-c2"]
    assert sorted(c2.plan(1)) == sorted(c2.plan(2)) and len(c2.plan(1)) == 12
    assert run.WORKLOADS["find-5-33-49"].plan(1) == run.WORKLOADS["find-5-33-49"].plan(2)
