"""End-to-end benchmark of the negcurve command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass spawns fresh
`negcurve.cli` processes with `--jobs 1` (see child.py), times them from
spawn to exit, takes CPU time and peak RSS from `os.wait4`, and checks
their output against `reference.json`.  Passes repeat in whole rounds
until S seconds have been measured.  With `--trace 1` one more pass runs
with timing wrappers installed (tracer.py) and the per-layer metrics are
reported instead of the end-to-end ones.  `--workload all` runs every
workload and prints both kinds.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The line before it records the machine, the inputs and every per-pass
sample behind each median.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402

PROCESS_LIMIT_S = 120.0  # one child; over it the child is killed and fails
RUN_DEADLINE_S = 165.0  # no child outlives this point of a run
ROUNDS_UNTIL_S = 80.0  # no further round of passes once it would end past this
PROBE_LIMIT_S = 10.0  # the known-defect probe is stopped here
CHECK_GRACE_S = 10.0  # the canonical-form check may run this far past the deadline
MIN_SETUP_SAMPLES = 5  # set-up probes fill up to this many import samples

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if last.startswith("cell_ms"):
        return "ms"
    if last == "max_entry_bits":
        return "bits"
    return "count"


def per_layer_names():
    names = []
    for mod, func in tracer.WRAPPED:
        names += [tracer.span_name(mod, func) + ".calls",
                  tracer.span_name(mod, func) + ".self_s"]
    names += [
        "symbolic_power.jet_matrix.entries",
        "symbolic_power.jet_matrix.max_entry_bits",
        "symbolic_power.nullity.positive",
        "symbolic_power.nullity.rational_fallback_ratio",
        "negcurve_search.find.hit_ratio",
        "negcurve_search.find.cell_ms_p50",
        "negcurve_search.find.cell_ms_p99",
        "lattice_geom.lattice_points.points",
    ]
    names += ["irreducibility.certify.verdict." + v for v in tracer.VERDICTS]
    names += ["trace.wall_s", "trace.uncovered_s", "trace.hooks_s", "trace.overhead_s",
              "probe.attempted", "probe.failed"]
    return names


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `orders` says how the seed turns the weight triple into the inputs of a
    round: "latin" runs the three orders of one parity class (each weight
    once in each place) with the class and the first order drawn from the
    seed; "all" runs all six orders in a seeded shuffle; "fixed" runs the
    triple as given and ignores the seed.  `triple` None means `classify`.
    """

    name: str
    triple: tuple = None
    args: tuple = ()
    orders: str = "fixed"
    passes: int = 1  # passes per order in one round
    thm36_r: int = None  # run thm36 on the hit's phi at this r
    probe: tuple = None  # known-defect probe, run after a traced pass

    def plan(self, seed):
        if self.triple is None:
            return [None] * self.passes
        rng = random.Random(seed)
        a, b, c = self.triple
        if self.orders == "latin":
            base = (a, b, c) if rng.randrange(2) == 0 else (a, c, b)
            start = rng.randrange(3)
            orders = [base[k:] + base[:k] for k in
                      ((start + i) % 3 for i in range(3))]
        elif self.orders == "all":
            orders = list(itertools.permutations(self.triple))
            rng.shuffle(orders)
        else:
            orders = [self.triple]
        return [o for o in orders for _ in range(self.passes)]


WORKLOADS = {w.name: w for w in (
    Workload("scan-8-15-43", (8, 15, 43), ("--rmax", "9", "--long"),
             orders="latin"),
    Workload("find-5-33-49", (5, 33, 49), ("--rmax", "18", "--d", "1617"),
             orders="fixed", thm36_r=18),
    Workload("classify-r3"),
    Workload("scan-9-10-13-c2", (9, 10, 13),
             ("--char", "2", "--rmax", "8", "--long"), orders="all", passes=2,
             probe=("search", "9", "10", "13", "--char", "2", "--rmax", "11",
                    "--d", "372")),
)}

CLASSIFY_ARGS = ("classify", "--r", "3", "--experimental")


# ---------------------------------------------------------------- checks

def check_search(stdout, reference):
    """(problems, hits) of a `search` output.  Each hit is (phi_json, r);
    its canonical form is checked later by `check_canonical`."""
    expected = [tuple(h) for h in reference["hits"]]
    try:
        doc = json.loads(stdout)
        hits = [(h["r"], h["d"]) for h in doc["hits"]]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %s" % exc], []
    if hits != expected:
        return ["hits %s, expected %s" % (hits, expected)], []
    problems = ["hit (%d, %d) status %r" % (h["r"], h["d"], h.get("status"))
                for h in doc["hits"] if h.get("status") != "accepted"]
    return problems, [(h["phi"], h["r"]) for h in doc["hits"]]


def check_canonical(passes, reference, canonical):
    """Add a problem to each pass whose hits' canonical forms differ from
    the reference; `canonical` maps [(phi_json, r)] to serialized forms."""
    queries = sorted({json.dumps(q, sort_keys=True) for p in passes for q in p.hits})
    if not queries:
        return
    try:
        forms = canonical([json.loads(q) for q in queries])
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        forms = None
        problem = "canonical form check did not run: %s" % exc
    for pas in passes:
        for q in pas.hits:
            if forms is None:
                pas.problems.append(problem)
            elif forms[queries.index(json.dumps(q, sort_keys=True))] != reference["canonical_form"]:
                pas.problems.append("canonical form differs from the reference")


def check_classify(stdout, reference):
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != reference["sha256"]:
        return ["stdout digest %s, expected %s" % (digest, reference["sha256"])]
    try:
        classes = len(json.loads(stdout)["classes"])
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %s" % exc]
    if classes != reference["classes"]:
        return ["%d classes, expected %d" % (classes, reference["classes"])]
    return []


def program_canonical(runner):
    """Canonical forms computed by the checkout's own package, in a child.

    The benchmark's own process never imports the package: a child's
    `ru_maxrss` starts from the RSS of the process it was spawned from.
    """
    def canonical(queries):
        query = runner.path("canonical.json")
        query.write_text(json.dumps(queries))
        done = subprocess.run(
            [sys.executable, str(BENCH / "canonical.py"), str(query)],
            env=runner.env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, runner.deadline + CHECK_GRACE_S - time.monotonic()))
        return json.loads(done.stdout)
    return canonical


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    argv: tuple
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float  # None when the child never finished importing
    exit_code: int
    timed_out: bool
    stdout: str
    trace: dict = None


class Runner:
    """Spawns and reaps the children of one run inside a private work dir."""

    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.count = 0
        self.dir = WORK / ("run-%d" % os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        env = dict(os.environ)
        env.pop("NEGCURVE_JOBS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        self.env = env

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, stem):
        return self.dir / ("%d-%s" % (self.count, stem))

    def spawn(self, cli_args, trace=False, limit=PROCESS_LIMIT_S):
        """Run one child to its end, or kill it at the limit."""
        self.count += 1
        mark, out, err = self.path("mark"), self.path("out"), self.path("err")
        trace_file = self.path("trace.json") if trace else None
        argv = ("--jobs", "1") + tuple(cli_args) if cli_args else ()
        cmd = [sys.executable, str(BENCH / "child.py"), str(mark),
               str(trace_file) if trace else "-", self.workload] + list(argv)
        limit = max(0.0, min(limit, self.deadline - time.monotonic()))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo,
                                    stderr=fe, env=self.env, cwd=ROOT)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], limit)
                    if not ready:
                        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    end = time.monotonic()
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(mark.read_text()) - start if mark.exists() else None
        doc = None
        if trace and trace_file.exists():
            doc = json.loads(trace_file.read_text())
        return Proc(argv, end - start, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, setup, proc.returncode,
                    not ready, out.read_text(), doc)


@dataclass
class Pass:
    item: object  # the weight order, or None for classify
    procs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    hits: list = field(default_factory=list)  # (phi_json, r) awaiting check_canonical

    @property
    def ok(self):
        return not self.problems

    @property
    def wall_s(self):
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self):
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs)

    def sample(self):
        return {"input": self.item, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.rss_mb,
                "setup_s": [p.setup_s for p in self.procs],
                "ok": self.ok, "problems": self.problems}


def _exit_problem(proc):
    if proc.timed_out:
        return "%s: time limit" % " ".join(proc.argv[2:4])
    if proc.exit_code != 0:
        return "%s: exit %d" % (" ".join(proc.argv[2:4]), proc.exit_code)
    return None


def run_pass(runner, workload, item, reference, trace=False):
    pas = Pass(item)
    if item is None:
        proc = runner.spawn(CLASSIFY_ARGS, trace)
        pas.procs.append(proc)
        problem = _exit_problem(proc)
        pas.problems = [problem] if problem else check_classify(proc.stdout, reference)
        return pas
    proc = runner.spawn(("search",) + tuple(map(str, item)) + workload.args, trace)
    pas.procs.append(proc)
    problem = _exit_problem(proc)
    if problem:
        pas.problems = [problem]
        return pas
    pas.problems, pas.hits = check_search(proc.stdout, reference)
    if pas.problems or workload.thm36_r is None:
        return pas
    phi_file = runner.path("phi.json")
    phi_file.write_text(json.dumps(json.loads(proc.stdout)["hits"][0]["phi"]))
    proc = runner.spawn(("thm36", str(phi_file), "--r", str(workload.thm36_r)), trace)
    pas.procs.append(proc)
    problem = _exit_problem(proc)
    if problem:
        pas.problems = [problem]
    return pas


# ---------------------------------------------------------------- a run

def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "sympy": sympy}


def run_workload(workload, seed, seconds, trace, reference):
    """Measure one workload; returns (end_to_end, per_layer or None, record)."""
    started = time.monotonic()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "loadavg_start": os.getloadavg()}
    if workload.orders == "fixed":
        record["seed_note"] = "this workload has no seeded input; the seed is ignored"
    runner = Runner(workload.name, started + RUN_DEADLINE_S)
    try:
        plan = workload.plan(seed)
        record["plan"] = plan
        passes = []
        round_s = 0.0
        # whole rounds until `seconds` are measured; a round that would end
        # past ROUNDS_UNTIL_S is not started, so a traced pass still fits
        while not passes or (time.monotonic() - started < seconds and
                             time.monotonic() - started + round_s < ROUNDS_UNTIL_S):
            t0 = time.monotonic()
            for item in plan:
                passes.append(run_pass(runner, workload, item, reference))
            round_s = time.monotonic() - t0
        spawned = sum(len(p.procs) for p in passes)
        probes = [runner.spawn(()) for _ in range(max(0, MIN_SETUP_SAMPLES - spawned))]
        traced = probe = None
        if trace:
            traced = run_pass(runner, workload, plan[0], reference, trace=True)
            if workload.probe:
                probe = runner.spawn(workload.probe, limit=PROBE_LIMIT_S)
        check_canonical(passes + [traced] * bool(traced), reference,
                        program_canonical(runner))
    finally:
        runner.close()

    good = [p for p in passes if p.ok] or passes
    setups = [p.setup_s for pas in passes for p in pas.procs] + [p.setup_s for p in probes]
    setups = [s for s in setups if s is not None]
    end_to_end = {
        "wall_s": statistics.median(p.wall_s for p in good),
        "cpu_s": statistics.median(p.cpu_s for p in good),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": statistics.median(p.rss_mb for p in good),
    }
    attempted = len(passes) + len(probes)
    failed = sum(not p.ok for p in passes) + sum(
        _exit_problem(p) is not None or p.setup_s is None for p in probes)
    record["passes"] = [p.sample() for p in passes]
    record["setup_probes_s"] = [p.setup_s for p in probes]

    per_layer = None
    if traced:
        attempted += 1
        failed += not traced.ok
        per_layer, covered = tracer.layer_metrics(
            [p.trace for p in traced.procs if p.trace is not None])
        same = [p.wall_s for p in passes if p.item == traced.item and p.ok]
        per_layer["trace.wall_s"] = traced.wall_s
        per_layer["trace.uncovered_s"] = traced.wall_s - covered
        per_layer["trace.overhead_s"] = (
            traced.wall_s - statistics.median(same) if same else 0.0)
        per_layer["probe.attempted"] = int(probe is not None)
        per_layer["probe.failed"] = int(probe is not None and _exit_problem(probe) is not None)
        record["traced_pass"] = traced.sample()
        if probe:
            record["probe"] = {"argv": probe.argv, "wall_s": probe.wall_s,
                               "timed_out": probe.timed_out, "exit_code": probe.exit_code}
    record["loadavg_end"] = os.getloadavg()
    record["benchmark_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["attempted"], record["failed"] = attempted, failed
    record["median_note"] = ("medians over the passes above; too few passes "
                             "per run for a high percentile")
    return end_to_end, per_layer, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negcurve" / "cli.py").is_file():
        print("perfbench: no negcurve package under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open(BENCH / "reference.json") as fh:
        references = json.load(fh)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = _machine()
    results = {}
    for name in names:
        e2e, layers, record = run_workload(
            WORKLOADS[name], args.seed, args.seconds,
            bool(args.trace) or args.workload == "all", references[name])
        record.update(machine)
        print(json.dumps({"record": record}), flush=True)
        if e2e["setup_s"] is None:
            print("perfbench: no child imported negcurve.cli", file=sys.stderr)
            return 2
        results[name] = (e2e, layers, record)

    attempted = sum(r[2]["attempted"] for r in results.values())
    failed = sum(r[2]["failed"] for r in results.values())
    every = args.workload == "all"
    metrics = {}
    for name, (e2e, layers, _) in results.items():
        chosen = []
        if every or not args.trace:
            chosen += [(k, v, END_TO_END[k]) for k, v in e2e.items()]
        if every or args.trace:
            chosen += [(k, layers[k], layer_unit(k)) for k in per_layer_names()]
        for key, value, unit in chosen:
            metrics[name + ":" + key if every else key] = {"value": value, "unit": unit}
    if every:
        for key, m in metrics.items():
            print("%-66s %-20r %s" % (key, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
