import hashlib
import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys
import time

import pytest

import negcurve
from negcurve import exact_arith
from negcurve.cli import main
from negcurve.exact_arith import rat_str
from negcurve.herzog_semigroup import herzog_data, triangle
from negcurve.negcurve_search import negcurve_to_json, scan

PHI2_DOC = {"char": 0, "terms": [
    {"a": 0, "b": 0, "c": "-1"}, {"a": 1, "b": 1, "c": "3"},
    {"a": 2, "b": 1, "c": "-1"}, {"a": 1, "b": 2, "c": "-1"}]}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_herzog_command(capsys):
    rc, out, _ = run(capsys, "herzog", "9", "10", "13")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["s2"], doc["s3"], doc["t1"], doc["t3"], doc["u1"], doc["u2"]) \
        == (3, 1, 1, 3, 2, 1)
    assert doc["area2"] == "1/1170"


def test_search_command(capsys):
    rc, out, err = run(capsys, "search", "9", "10", "13", "--char", "2",
                       "--rmax", "3")
    assert rc == 0
    doc = json.loads(out)
    assert [(h["r"], h["d"]) for h in doc["hits"]] == [(3, 100)]
    assert "scan" in err  # progress stays on stderr


def test_search_walk_accounting(capsys):
    rc, out, err = run(capsys, "search", "9", "10", "13", "--char", "2",
                       "--rmax", "3")
    assert rc == 0
    # stdout is the hits alone; the walk's accounting goes to stderr
    hits = [negcurve_to_json(rep) for _, _, rep in scan(9, 10, 13, 2, 3)]
    assert out == json.dumps({"triple": [9, 10, 13], "char": 2, "rmax": 3,
                              "hits": hits}, indent=2) + "\n"
    # a progress line at every 25th visited cell, r by r and degrees from
    # the top; the walk ends at the hit (3, 100), and the five reasons
    # account for each cell once: 20 + 0 + 83 + 2 + 99 = 204, d = 34 the
    # one degree built without lattice points
    assert err.splitlines() == [
        "scan 1 visited of 204 cells (r=1 d=33)",
        "scan done: 204 cells in region, 20 visited, "
        "0 skipped after an empty kernel, "
        "83 skipped by a higher degree, "
        "2 cells in 1 degree without lattice points, "
        "99 past the hit"]
    # the top-level --jobs is accepted and changes nothing
    _, out2, _ = run(capsys, "--jobs", "2", "search", "9", "10", "13", "--char",
                     "2", "--rmax", "3")
    assert out2 == out


# a command loads neither sympy nor the introspection that dataclasses pulls in
UNWANTED_LOADED = ("import sys, negcurve.cli; %s; print([m for m in "
                   "('sympy', 'dataclasses', 'inspect') if m in sys.modules])")


def _child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(pathlib.Path(negcurve.__file__).parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("call", [
    "pass",
    "negcurve.cli.main(['--jobs', '1', 'search', '8', '15', '43', "
    "'--rmax', '9', '--d', '645'])",
    # every reducible candidate is a lone generator with a rigid split
    "assert negcurve.cli.main(['--jobs', '1', 'search', '13', '19', '20', "
    "'--rmax', '6', '--long']) == 0",
    # every catalog form is negative-class: the rigid split, not sympy,
    # decides it
    "assert negcurve.cli.main(['classify', '--r', '2']) == 0",
    "assert negcurve.cli.main(['classify', '--r', '3', '--experimental']) == 0",
    "assert negcurve.cli.main(['classify', '--r', '4', '--experimental']) == 0",
    # certify factors nothing: outside the negative class no certificate
    "assert negcurve.cli.main(['check-nct', SEGMENT, '--r', '1']) == 0",
    "assert negcurve.cli.main(['check-nct', LONE, '--r', '2']) == 0",
], ids=["import", "search", "search-13-19-20", "classify-r2", "classify-r3",
        "classify-r4", "check-nct-segment", "check-nct-lone"])
def test_char0_search_never_loads_sympy(tmp_path, call):
    for name in ("SEGMENT", "LONE"):
        f = tmp_path / (name + ".txt")
        f.write_text(POLYS[name])
        call = call.replace(name, repr(str(f)))
    proc = subprocess.run([sys.executable, "-c", UNWANTED_LOADED % call],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# perfbench/tracer.py wraps the package's functions right after `import
# negcurve.cli`, looking each module up in sys.modules, so a module missing
# there would stop every traced benchmark run
def test_cli_import_registers_every_traced_module():
    perfbench = pathlib.Path(__file__).parents[1] / "perfbench"
    code = ("import sys; sys.path.insert(0, %r); import tracer, negcurve.cli; "
            "print([m for m, _ in tracer.WRAPPED if 'negcurve.' + m not in "
            "sys.modules])" % str(perfbench))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the package modules a command has run; the others are still lazy stubs
MODULES_RUN = ("import json, sys, types, negcurve.cli; "
               "assert negcurve.cli.main(%r) == 0; "
               "print(json.dumps(sorted(m[len('negcurve.'):] for m, v in "
               "sys.modules.items() if m.startswith('negcurve.') "
               "and type(v) is types.ModuleType)))")
EVERY_MODULE = {"cli", "exact_arith", "herzog_semigroup", "irreducibility",
                "lattice_geom", "laurent_poly", "nct_catalog", "negcurve_search",
                "symbolic_power", "toric_surface"}


@pytest.mark.parametrize("argv, run", [
    (["thm36", "PHI2", "--r", "2"],
     {"cli", "exact_arith", "lattice_geom", "laurent_poly", "toric_surface"}),
    (["search", "8", "15", "43", "--rmax", "9", "--d", "645"],
     EVERY_MODULE - {"toric_surface"}),
    (["classify", "--r", "3", "--experimental"],
     EVERY_MODULE - {"negcurve_search", "toric_surface", "herzog_semigroup"}),
], ids=["thm36", "search", "classify"])
def test_command_runs_only_its_modules(tmp_path, argv, run):
    phi = tmp_path / "phi2.json"
    phi.write_text(json.dumps(PHI2_DOC))
    argv = [str(phi) if a == "PHI2" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", MODULES_RUN % argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == run


PHI3P_TEXT = "-1 + 5vw - 3v^2*w + v^3*w - 2vw^2 - v^2*w^2 + v^2*w^3"


@pytest.mark.parametrize("argv", [
    # --rmax 4 factors one candidate mod 2; --rmax 3 would factor none
    ["search", "9", "10", "13", "--char", "2", "--rmax", "4", "--long"],
    ["classify", "--r", "2", "--char", "5"],
    ["check-nct", "PHI3P", "--r", "3", "--char", "2"],
], ids=["search", "classify", "check-nct"])
def test_char_p_commands_never_load_sympy(tmp_path, argv):
    phi = tmp_path / "phi3p.txt"
    phi.write_text(PHI3P_TEXT)
    argv = [str(phi) if a == "PHI3P" else a for a in argv]
    call = "assert negcurve.cli.main(%r) == 0" % argv
    proc = subprocess.run([sys.executable, "-c", UNWANTED_LOADED % call],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_search_none_found_is_success(capsys):
    rc, out, _ = run(capsys, "search", "9", "10", "13", "--rmax", "1",
                     "--d", "30")
    assert rc == 0
    assert json.loads(out)["hits"] == []


def test_check_nct_command(tmp_path, capsys):
    f = tmp_path / "phi2.json"
    f.write_text(json.dumps(PHI2_DOC))
    rc, out, _ = run(capsys, "check-nct", str(f), "--r", "2")
    assert rc == 0
    assert json.loads(out)["status"] == "accepted"


def test_check_nct_text_file(tmp_path, capsys):
    f = tmp_path / "phi.txt"
    # an editor's trailing newline, and a tab, are whitespace like a space
    for text in ("vw - 1", "vw - 1\n", "vw\t- 1\n"):
        f.write_text(text)
        rc, out, err = run(capsys, "check-nct", str(f), "--r", "1")
        assert rc == 0 and json.loads(out)["status"] == "accepted", err


def test_thm36_command(tmp_path, capsys):
    f = tmp_path / "phi2.json"
    f.write_text(json.dumps(PHI2_DOC))
    rc, out, _ = run(capsys, "thm36", str(f), "--r", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["conditions"]["9"]["status"] == "true"


def test_thm36_contradiction_exit_2(tmp_path, capsys):
    f = tmp_path / "usq.json"
    f.write_text(json.dumps({"char": 2, "terms": [
        {"a": 0, "b": 0, "c": "1"}, {"a": 1, "b": 0, "c": "1"},
        {"a": 0, "b": 1, "c": "1"}, {"a": 1, "b": 1, "c": "1"}]}))
    rc, _, err = run(capsys, "thm36", str(f), "--char", "2", "--r", "2")
    assert rc == 2 and "contradiction" in err


def test_classify_command(capsys):
    rc, out, _ = run(capsys, "classify", "--r", "1")
    assert rc == 0
    assert len(json.loads(out)["classes"]) == 1


def test_jobs_is_a_count_that_search_reads(capsys):
    # no subcommand takes --jobs; the top-level option is kept, checked and
    # ignored, for every command, since the benchmark passes --jobs 1 to all
    for bad in (["classify", "--r", "2", "--jobs", "4"],
                ["herzog", "9", "10", "13", "--jobs", "-3"],
                ["search", "9", "10", "13", "--rmax", "1", "--jobs", "1"],
                ["--jobs", "0", "search", "9", "10", "13", "--rmax", "1"]):
        with pytest.raises(SystemExit) as e:
            main(bad)
        assert e.value.code == 1
        capsys.readouterr()
    rc, out, _ = run(capsys, "--jobs", "1", "classify", "--r", "2")
    assert rc == 0
    assert out == run(capsys, "classify", "--r", "2")[1]


def test_search_help_lists_no_jobs(capsys):
    with pytest.raises(SystemExit) as e:
        main(["search", "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "--rmax" in out and "--jobs" not in out


def test_classify_r3_needs_flag(capsys):
    for r in ("3", "4"):
        rc, _, err = run(capsys, "classify", "--r", r)
        assert rc == 1 and "--experimental" in err


def test_ggk_command(capsys):
    rc, out, _ = run(capsys, "ggk", "--r", "4")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["lattice_count"], doc["B"], doc["I"]) == (11, 5, 6)


def _address_space_cap():
    # runs in the child between fork and exec, so the cap is the child's alone
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_ggk_refuses_an_r_whose_jet_matrix_cannot_fit():
    # r = 200 asks for a 20100 x 20101 jet matrix, which ran out of memory;
    # under the cap a refusal that came after the allocation fails here
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "ggk", "--r", "200"],
                          capture_output=True, text=True, env=_child_env(),
                          preexec_fn=_address_space_cap, timeout=30)
    wall = time.monotonic() - start
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert proc.stdout == ""
    assert wall < 5.0


def test_ehrhart_command(tmp_path, capsys):
    f = tmp_path / "sq.json"
    f.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    rc, out, _ = run(capsys, "ehrhart", str(f), "--dilate", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["counts"] == [4, 9, 16]
    assert doc["ehrhart"] == ["1", "2", "1"]
    assert doc["hilbert_numerator"] == [1, 1]


def test_ehrhart_counts_large_dilates_without_listing_them(tmp_path):
    # the listing of each dilate did not end within 30 s at --dilate 3000
    f = tmp_path / "tri.json"
    f.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 3]]}))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "ehrhart", str(f),
                           "--dilate", "100000"],
                          capture_output=True, text=True, env=_child_env(), timeout=30)
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)["counts"]
    assert len(counts) == 100000
    assert counts[-1] == (9 * 100000 ** 2 + 9 * 100000) // 2 + 1
    assert wall < 2.0


def test_ehrhart_counts_rational_dilates_by_columns(tmp_path):
    # a rational polygon's dilates are counted column by column, none
    # listed: the listing did not end within 60 s at --dilate 1000
    f = tmp_path / "tri.json"
    f.write_text(json.dumps({"vertices": [["0", "0"], ["3/2", "0"], ["0", "3"]]}))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "ehrhart", str(f),
                           "--dilate", "1000"],
                          capture_output=True, text=True, env=_child_env(), timeout=30)
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ehrhart"] is None and len(doc["counts"]) == 1000
    # the 1000th dilate is the lattice triangle (0,0), (1500,0), (0,3000):
    # by Pick, area 2250000 and 6000 boundary points
    assert doc["counts"][-1] == 2250000 + 6000 // 2 + 1
    assert wall < 10.0


def test_ehrhart_rational_polygon(tmp_path, capsys):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"vertices": [["0", "0"], ["1/2", "0"], ["0", "1/2"]]}))
    rc, out, _ = run(capsys, "ehrhart", str(f), "--dilate", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ehrhart"] is None and doc["counts"][1] == 3


@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 2]],  # a segment
    [[rat_str(x), rat_str(y)] for x, y in triangle(herzog_data(2, 3, 5)).vertices],
], ids=["segment", "herzog-2-3-5"])
def test_ehrhart_needs_a_lattice_polygon_of_dimension_2(tmp_path, capsys, vertices):
    # the command makes the one check; neither gets a polynomial
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"vertices": vertices}))
    rc, out, _ = run(capsys, "ehrhart", str(f), "--dilate", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ehrhart"] is None and doc["hilbert_numerator"] is None
    assert doc["note"] == "quasi-polynomial counting only for this polygon"


BAD_PHI_DOC = {"char": 0, "terms": [{"a": 0, "b": 0, "c": "1/0"},
                                     {"a": 1, "b": 1, "c": "1"}]}
HALF_EXPONENT_DOC = {"char": 0, "terms": [{"a": 0.5, "b": 0, "c": "1"},
                                          {"a": 1, "b": 1, "c": "-1"}]}
INFINITE_EXPONENT_DOC = {"char": 0, "terms": [{"a": float("inf"), "b": 0, "c": "1"}]}


@pytest.mark.parametrize("command, doc", [
    ("ehrhart", {}),
    ("ehrhart", [1, 2]),
    ("ehrhart", {"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}),
    ("check-nct", BAD_PHI_DOC),
    ("thm36", BAD_PHI_DOC),
    ("check-nct", HALF_EXPONENT_DOC),
    ("check-nct", INFINITE_EXPONENT_DOC),
], ids=["empty-object", "list", "zero-denominator-vertex",
        "check-nct-zero-denominator", "thm36-zero-denominator",
        "non-integral-exponent", "infinite-exponent"])
def test_malformed_file_is_one_error_line(tmp_path, capsys, command, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    extra = [] if command == "ehrhart" else ["--r", "1"]
    rc, out, err = run(capsys, command, str(f), *extra)
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_classgroup_command(capsys):
    rc, out, _ = run(capsys, "classgroup", "2,-1 -2,-1 0,1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["free_rank"] == 1 and doc["torsion"] == [2]
    rc, out, _ = run(capsys, "classgroup", "1,0 0,1 -1,-1")
    doc = json.loads(out)
    assert doc["free_rank"] == 1 and doc["torsion"] == []


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(capsys, "herzog", "2", "4", "6")[0] == 1
    assert run(capsys, "thm36", "/nonexistent.json", "--r", "2")[0] == 1
    # the weights are refused before the region is counted
    rc, _, err = run(capsys, "search", "0", "1", "2", "--rmax", "1")
    assert rc == 1 and "positive integers" in err
    rc, _, err = run(capsys, "search", "2", "4", "5", "--rmax", "60")
    assert rc == 1 and "pairwise coprime" in err
    poly = tmp_path / "tri.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    # is_prime is exact only below psi_13 = 3317044064679887385961981
    for bad, why in (
            (["search", "9", "10", "13", "--char", "4", "--rmax", "1"],
             "must be 0 or a prime"),
            (["search", "9", "10", "13", "--char", "3317044064679887385961981",
              "--rmax", "1"], "exactly only below 3317044064679887385961981"),
            (["ehrhart", str(poly), "--dilate", "-2"], "dilation factor must be at least 1"),
            (["search", "9", "10", "13", "--rmax", "1", "--d", "0"], "degree must be at least 1"),
            (["search", "9", "10", "13", "--rmax", "1", "--d", "30,-5"],
             "degree must be at least 1"),
            (["search", "9", "10", "13", "--rmax", "1", "--d", "x"],
             "degree must be an integer"),
            (["search", "9", "10", "13", "--rmax", "1", "--d", "30,x"],
             "degree must be an integer"),
            (["ehrhart", str(poly), "--dilate", "x"], "dilation factor must be an integer"),
            (["search", "9", "10", "13", "--rmax", "1", "--jobs", "x"],
             "unrecognized arguments: --jobs x"),
            (["--jobs", "1.5", "search", "9", "10", "13", "--rmax", "1"],
             "worker count must be an integer"),
            (["search", "9", "10", "13", "--rmax", "1", "--char", "x"],
             "characteristic must be an integer"),
            (["classify", "--r", "5", "--experimental"], "invalid choice"),
            (["classgroup", "1,2,3 0,1"], "ray '1,2,3' must be two integers x,y"),
            (["classgroup", "1 0,1"], "ray '1' must be two integers x,y"),
            (["classgroup", "a,b"], "each coordinate of ray 'a,b' must be an integer"),
            (["classgroup", "0,0 1,0 0,1"], "no zero ray"),
            (["classgroup", ""], "at least one ray"),
            (["classgroup", "1,0 1,0 0,1 -1,-1"], "none repeated"),
            (["classgroup", "1,0 2,0 0,1 -1,-1"], "each primitive"),
            (["nonsense"], "invalid choice")):
        with pytest.raises(SystemExit) as e:
            main(bad)
        assert e.value.code == 1
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if "error:" in line]
        assert len(errors) == 1 and why in errors[0]
        # no private type function is named to the user
        assert " _" not in errors[0]


def test_long_gate(capsys):
    rc, _, err = run(capsys, "search", "5", "33", "49", "--rmax", "18")
    assert rc == 1 and "--long" in err
    assert "15365 cells" in err  # sum of isqrt(8085 r^2 - 1) over r <= 18


# VmHWM is the peak of this process alone; ru_maxrss can report the peak of
# the test process that spawned it
PEAK_RSS_KB = ("import sys, negcurve.cli; rc = negcurve.cli.main(sys.argv[1:]); "
               "peak = [l for l in open('/proc/self/status') "
               "if l.startswith('VmHWM')]; print(rc, peak[0].split()[1])")


def test_long_gate_refusal_stays_small():
    # 2e6 degree ranges, about 1.1e13 cells: the refusal counts them without
    # holding them, where a built region took hundreds of MB
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_KB, "search", "2", "3",
                           "5", "--rmax", "2000000"],
                          capture_output=True, text=True, env=_child_env())
    assert "pass --long" in proc.stderr
    rc, peak_kb = proc.stdout.split()
    assert rc == "1"
    assert int(peak_kb) < 60 * 1024


def test_search_5_33_49_cell(capsys, eliminations):
    # the (18, 1617) cell: its 171 x 171 jet kernel comes from one
    # elimination mod the first prime of the char-0 lift
    rc, out, _ = run(capsys, "search", "5", "33", "49", "--rmax", "18",
                     "--d", "1617")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("574ce4a0")
    assert eliminations == [exact_arith._PRIMES[0]]


def test_search_5_33_49_stops_at_its_hit(capsys, eliminations):
    # the walk ends at the hit (18, 1617), so r up to 40 runs the
    # eliminations of r up to 18, one mod the first prime, for the same hit
    seen = {}
    for rmax in ("18", "40"):
        eliminations.clear()
        rc, out, _ = run(capsys, "search", "5", "33", "49", "--rmax", rmax,
                         "--long")
        assert rc == 0
        seen[rmax] = (json.loads(out)["hits"], list(eliminations))
    hits, primes = seen["18"]
    assert [(h["r"], h["d"]) for h in hits] == [(18, 1617)]
    assert primes == [exact_arith._PRIMES[0]]
    assert seen["40"] == seen["18"]


# polynomial files the pinned commands name: each key stands for a file
# holding its text
POLYS = {
    "PHI2": "-1 + 3*v*w - v^2*w - v*w^2",
    "SEGMENT": "v^2 + v + 1",
    "LONE": "-3w + w^2 - 3w^3 + 3vw + 3vw^2 + 3v^2*w - 3v^3 - v^3*w^2",
    "HALF": '{"vertices": [[0, 0], ["3/2", 0], [0, 3]]}',
    # (1 + v + w^2)(1 + v^2*w + w)
    "PROD": "1 + w + w^2 + w^3 + v + v*w + v^2*w + v^2*w^3 + v^3*w",
}

# stdout sha256 prefixes of commands whose output every change must keep
PINNED_STDOUT = [
    ("search 9 10 13 --char 2 --rmax 8 --long", "4469faa2"),
    ("search 8 15 43 --rmax 9 --long", "6445846a"),
    ("search 5 33 49 --rmax 18 --d 1617", "574ce4a0"),
    ("search 13 19 20 --rmax 6 --long", "d3ee5886"),
    ("search 25 29 72 --rmax 3 --long", "7d8e8efc"),
    ("--format text search 9 10 13 --rmax 2", "7d43cca8"),
    ("classify --r 2", "601abe71"),
    ("classify --r 3 --experimental", "c10dff1b"),
    ("classify --r 3 --experimental --char 2", "d5676ba9"),
    ("herzog 9 10 13", "ea70431a"),
    ("ggk --r 6", "8bb6d1e2"),
    ('classgroup "2,-1 -2,-1 0,1"', "5589eb8a"),
    ("check-nct PHI2 --r 2", "433c1ac6"),
    ("thm36 PHI2 --r 2", "9e8ca32e"),
    # outside the negative class no certificate: "certificate": null, no
    # "irreducible" check, and the multiplicity or area check rejects
    ("check-nct SEGMENT --r 1", "fded02df"),
    ("check-nct SEGMENT --r 1 --char 2", "fded02df"),
    ("check-nct LONE --r 2", "62d75ef8"),
    # LONE mod 3 is w^2 (1 - v^3), a negative-class segment: 1 - v, the
    # rigid factor, and its cofactor
    ("check-nct LONE --r 2 --char 3", "c13fcdf9"),
    # a product outside the negative class (multiplicity 0): no certificate
    ("check-nct PROD --r 2 --char 5", "d0fe6582"),
    ("search 7 11 17 --char 3 --rmax 6 --long", "1e35f480"),
    ("classify --r 3 --experimental --char 3", "75c44d02"),
    # the rigid split decides every form, one of them IrreducibleByRigidity
    ("classify --r 4 --experimental", "407f956c"),
    # a rational polygon dilated by dilate and counted by lattice_count
    ("ehrhart HALF --dilate 30", "f1ce23b5"),
]


def _pinned_argv(tmp_path, command):
    """The command's arguments, each POLYS key replaced by a file of its text."""
    files = {}
    for name, text in POLYS.items():
        files[name] = tmp_path / (name + ".txt")
        files[name].write_text(text)
    return [str(files.get(a, a)) for a in shlex.split(command)]


@pytest.mark.parametrize("command, prefix", PINNED_STDOUT,
                         ids=[command for command, _ in PINNED_STDOUT])
def test_pinned_stdout(tmp_path, capsys, command, prefix):
    rc, out, _ = run(capsys, *_pinned_argv(tmp_path, command))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:8] == prefix


# each argv of the JSON list in argv[1], run with sympy unimportable: a None
# entry in sys.modules makes `import sympy` raise ImportError
PINNED_WITHOUT_SYMPY = """
import contextlib, hashlib, io, json, sys
sys.modules["sympy"] = None
import negcurve.cli
done = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = negcurve.cli.main(argv)
    done.append([rc, hashlib.sha256(out.getvalue().encode()).hexdigest()[:8]])
print(json.dumps(done))
"""


def test_pinned_stdout_without_sympy(tmp_path):
    # sympy is no runtime dependency: every pinned command runs without it
    argvs = [_pinned_argv(tmp_path, command) for command, _ in PINNED_STDOUT]
    proc = subprocess.run([sys.executable, "-c", PINNED_WITHOUT_SYMPY,
                           json.dumps(argvs)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [0, prefix] for _, prefix in PINNED_STDOUT]


# the r = 4 class whose certificate reads IrreducibleByRigidity, and its
# image under (a, b) -> (a, 2a + b)
R4 = ("-1 - v + 5vw^2 + 5v^2*w^3 - 10v^2*w^4 - v^2*w^5 - v^3*w^5 + 5v^3*w^7 "
      "- v^4*w^10")
R4_IMAGE = ("-1 - v*w^2 + 5*v*w^4 + 5*v^2*w^7 - 10*v^2*w^8 - v^2*w^9 "
            "- v^3*w^11 + 5*v^3*w^13 - v^4*w^18")


def test_char0_certificate_is_coordinate_free(tmp_path, capsys):
    # (a, b) -> (a, 2a + b) keeps the polygon up to GL(2, Z) and the
    # multiplicity at (1, 1): it maps v^2 + v + 1, which is not
    # negative-class and gets no certificate, to 1 + v w^2 + v^2 w^4
    for r, texts, verdict in ((1, (POLYS["SEGMENT"], "1 + v*w^2 + v^2*w^4"), None),
                              (4, (R4, R4_IMAGE), "IrreducibleByRigidity")):
        outs = []
        for text in texts:
            f = tmp_path / "phi.txt"
            f.write_text(text)
            rc, out, _ = run(capsys, "check-nct", str(f), "--r", str(r))
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]
        cert = json.loads(outs[0])["certificate"]
        assert (cert and cert["verdict"]) == verdict


@pytest.mark.long
def test_check_nct_wide_segment_returns(tmp_path):
    # a wide triangle of multiplicity 0: no certificate, and no factorization
    f = tmp_path / "phi.txt"
    f.write_text("1 + v^300 + w^300")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "check-nct",
                           str(f), "--r", "2"],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "rejected"
    assert doc["certificate"] is None
    assert wall < 20.0


def test_check_nct_outside_the_negative_class_returns(tmp_path):
    # 1 + v^3000 mod 3 has multiplicity 0: the budget counted splitting
    # attempts, not the work inside one, and factoring it did not end
    f = tmp_path / "phi.txt"
    f.write_text("1 + v^3000")
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "check-nct",
                           str(f), "--r", "2", "--char", "3"],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=5)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "rejected" and doc["certificate"] is None


@pytest.mark.long
def test_search_5_33_49_runs_in_seconds():
    # r by r, the walk ends at the hit (18, 1617): it computes 88 of the
    # 73709 cells, and the rest are capped or past the hit
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli", "--jobs", "1",
                           "search", "5", "33", "49", "--rmax", "40", "--long"],
                          capture_output=True, text=True, env=_child_env())
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    hits = json.loads(proc.stdout)["hits"]
    assert [(h["r"], h["d"], h["status"]) for h in hits] == [(18, 1617, "accepted")]
    assert wall < 5.0


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "herzog", "8", "15", "43")
    _, out2, _ = run(capsys, "herzog", "8", "15", "43")
    assert out1 == out2


def test_text_format(capsys):
    rc, out, _ = run(capsys, "herzog", "9", "10", "13", "--format", "text")
    assert rc == 0
    assert "a: 9" in out and "{" not in out
    rc, out_top, _ = run(capsys, "--format", "text", "herzog", "9", "10", "13")
    assert rc == 0 and "a: 9" in out_top


def test_scripts_run():
    # each script asserts its headline numbers, so a wrong one exits nonzero
    scripts = sorted((pathlib.Path(__file__).parents[1] / "scripts").glob("*.py"))
    assert len(scripts) == 3
    for script in scripts:
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, (script.name, proc.stderr)
