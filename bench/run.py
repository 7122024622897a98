"""End-to-end benchmark of spinlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``
and ``bench/``).  The runner drives spinlab from outside: CLI operations
run as ``python3 -m spinlab.cli`` in fresh interpreters, library
operations run in a fresh worker interpreter (``bench/child.py``).  It
repeats whole rounds of the workload's operations while the rounds are
expected to stay within S seconds (the first always runs), checks
every output with ``bench/checks.py``, and prints one JSON object as its
last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``cpu_s``, ``peak_rss_mb``).  With ``--trace 1`` each round
is run twice, untraced and then with every layer wrapped by
``bench/tracer.py``; the metrics are then the per-layer ones, plus the
tracing overhead and the share of the traced time that named spans
cover.  Outputs of the traced and untraced runs must be byte-identical.
A full record of every run, with the environment it ran in, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from child import TORUS_REFINE  # noqa: E402

HARD_LIMIT_S = 170.0
# set-up samples a run takes, one before each of its first rounds
SETUP_REPEATS = 5

# what a check raises on an output it cannot parse
MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError,
             StopIteration)

# per-layer metrics: (metric, span or counter, field, unit)
PER_LAYER = (
    ("python.startup_s", "python.startup", "median", "s"),
    ("cli.import_s", "import", "median", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
    ("dirac_torus.to_grid.calls", "dirac_torus.to_grid", "calls", "count"),
    ("dirac_torus.to_grid.self_s", "dirac_torus.to_grid", "self_s", "s"),
    ("dirac_torus.from_grid.calls", "dirac_torus.from_grid", "calls", "count"),
    ("dirac_torus.from_grid.self_s", "dirac_torus.from_grid", "self_s", "s"),
    ("dirac_torus.hess_psi.calls", "dirac_torus.hess_psi", "calls", "count"),
    ("dirac_torus.hess_psi.self_s", "dirac_torus.hess_psi", "self_s", "s"),
    ("dirac_torus.grad_psi.calls", "dirac_torus.grad_psi", "calls", "count"),
    ("dirac_torus.grad_psi.self_s", "dirac_torus.grad_psi", "self_s", "s"),
    ("dirac_torus.psi.calls", "dirac_torus.psi", "calls", "count"),
    ("dirac_torus.T_project.calls", "dirac_torus.T_project", "calls", "count"),
    ("dirac_torus.T_project.self_s", "dirac_torus.T_project", "self_s", "s"),
    ("dirac_torus.ground_state_problem.calls",
     "dirac_torus.ground_state_problem", "calls", "count"),
    ("dirac_torus.ground_state_problem.self_s",
     "dirac_torus.ground_state_problem", "self_s", "s"),
    ("dirac_torus.solve_ground_state.s", "dirac_torus.solve_ground_state",
     "s", "s"),
    ("dirac_torus.refine_ground_state.s", "dirac_torus.refine_ground_state",
     "s", "s"),
    ("reduction.beta.calls", "reduction.beta", "calls", "count"),
    ("reduction.beta.self_s", "reduction.beta", "self_s", "s"),
    ("reduction.cg.calls", "reduction.cg", "calls", "count"),
    ("reduction.cg.self_s", "reduction.cg", "self_s", "s"),
    ("reduction.nehari_project.calls", "reduction.nehari_project", "calls",
     "count"),
    ("reduction.nehari_project.self_s", "reduction.nehari_project", "self_s",
     "s"),
    ("reduction.brentq.calls", "reduction.brentq", "calls", "count"),
    ("reduction.outer_iterations", "reduction.outer_iterations", "counter",
     "count"),
    ("reduction.fiber_solves_per_outer", None, "ratio", "ratio"),
    ("asymptotics.terms.calls", "asymptotics.terms", "calls", "count"),
    ("asymptotics.terms.self_s", "asymptotics.terms", "self_s", "s"),
    ("asymptotics.engine_init.self_s", "asymptotics.engine_init", "self_s",
     "s"),
    ("asymptotics.residual_audit.s", "asymptotics.residual_audit", "s", "s"),
    ("asymptotics.energy_audit.s", "asymptotics.energy_audit", "s", "s"),
    ("quadrature.sphere_rule.self_s", "quadrature.sphere_rule", "self_s", "s"),
    ("jets.jmat_mul.calls", "jets.jmat_mul", "calls", "count"),
    ("jets.jmat_mul.self_s", "jets.jmat_mul", "self_s", "s"),
    ("curvature.metric_jet.self_s", "curvature.metric_jet", "self_s", "s"),
    ("curvature.b_jets.self_s", "curvature.b_jets", "self_s", "s"),
    ("spinor_fields.find_psi0.calls", "spinor_fields.find_psi0", "calls",
     "count"),
    ("spinor_fields.find_psi0.self_s", "spinor_fields.find_psi0", "self_s",
     "s"),
    ("clifford.build_rep.calls", "clifford.build_rep", "calls", "count"),
    ("clifford.build_rep.self_s", "clifford.build_rep", "self_s", "s"),
    ("python.exit_s", "python.exit", "median", "s"),
    ("trace.untraced_wall_s", None, "untraced", "s"),
    ("trace.traced_wall_s", None, "traced", "s"),
    ("trace.overhead_pct", None, "overhead", "%"),
    ("trace.coverage_pct", None, "coverage", "%"),
)


# ---------------------------------------------------------------------------
# workloads

class Op:
    """One operation of a round: a CLI run or the library worker."""

    def __init__(self, name, argv=None, check=None):
        self.name = name
        self.argv = argv
        self.check = check

    @property
    def is_cli(self):
        return self.argv is not None


def _torus_kernel_check(payload, out_dir):
    rows = _read_csv(out_dir, "torus_state.csv")
    return checks.check_torus(rows, payload, KERNEL_MODES, (0.0, 0.0), 1e-8,
                              kernel=True)


def _audit_check(kind):
    def check(payload, out_dir):
        rows = _read_csv(out_dir, f"{kind}_terms.csv")
        fn = checks.check_residual if kind == "residual" else checks.check_energy
        return fn(rows, m=6)
    return check


def _verify_check(kind):
    return lambda payload, out_dir: checks.check_verify(payload, kind)


SPECTRUM = (1.0, 0.7, -0.4)
# a short kernel solve (8 modes, one start, about 3 s) so that a run
# holds six to eight of them and reports their median
KERNEL_MODES = 1.5


def _ops_torus_refine(seed):
    return [Op("torus-refine")]


def _ops_torus_kernel(seed):
    return [Op("solve torus", ["solve", "torus", "--spin", "0,0",
                               "--modes", repr(KERNEL_MODES), "--starts", "1",
                               "--seed", "7"],
               _torus_kernel_check)]


# four scales over the last decade of the default grid (1e-2 to 1e-3),
# where the audits fit their slopes; all eight default scales take ~36 s
AUDIT_GRID = ["--eps-hi", "1e-2", "--eps-lo", "1e-3", "--eps-count", "4"]


def _ops_audit(seed):
    return [Op("audit residual", ["audit", "residual", "--m", "6"]
               + AUDIT_GRID, _audit_check("residual")),
            Op("audit energy", ["audit", "energy", "--m", "6"] + AUDIT_GRID,
               _audit_check("energy"))]


def _ops_cli_quick(seed):
    s = str(int(np.random.default_rng(seed).integers(0, 2 ** 31 - 1)))
    spectrum = ",".join(repr(d) for d in SPECTRUM)
    return [
        Op("verify clifford", ["verify", "clifford"], _verify_check("clifford")),
        Op("verify spinor", ["verify", "spinor", "--seed", s],
           _verify_check("spinor")),
        Op("verify curvature", ["verify", "curvature", "--seed", s],
           _verify_check("curvature")),
        Op("psi0", ["psi0", "--seed", s],
           lambda p, d: checks.check_psi0(p)),
        Op("solve toy", ["solve", "toy", "--seed", s],
           lambda p, d: checks.check_gamma(p)),
        Op("solve generic", ["solve", "generic", "--spectrum", spectrum,
                             "--seed", s],
           lambda p, d: checks.check_gamma(p, SPECTRUM)),
    ]


WORKLOADS = {
    "torus-refine": ("spinlab.dirac_torus", _ops_torus_refine),
    "torus-kernel": ("spinlab.cli", _ops_torus_kernel),
    "audit-m6": ("spinlab.cli", _ops_audit),
    "cli-quick": ("spinlab.cli", _ops_cli_quick),
}


# ---------------------------------------------------------------------------
# processes

class Spawner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")
        self.pid = None
        self.last = (0.0, 0.0)
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, argv, stdout_path, stderr_path):
        """Run argv to completion: (exit code, wall s, cpu s, rss MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            return -1, 0.0, 0.0, 0.0
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
        signal.setitimer(signal.ITIMER_REAL, remaining)
        t0 = time.perf_counter()
        try:
            self.pid = os.posix_spawn(argv[0], argv, self.env,
                                      file_actions=actions)
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.pid = None
            self.last = (t0, t1)
        code = os.waitstatus_to_exitcode(status)
        return (code, t1 - t0, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [row for row in reader]


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def measure_setup(spawner, module, work):
    """Seconds from spawning an interpreter until ``module`` is imported."""
    code = f"import {module}, time; print(repr(time.perf_counter()))"
    out = os.path.join(work, "setup.out")
    err = os.path.join(work, "setup.err")
    t0 = time.perf_counter()
    status, _, _, _ = spawner.run([sys.executable, "-c", code], out, err)
    if status != 0:
        raise RuntimeError(f"importing {module} failed: "
                           f"{_read_bytes(err).decode(errors='replace')}")
    return float(_read_bytes(out).decode()) - t0


# ---------------------------------------------------------------------------
# one round

def run_op(spawner, op, work, tag, traced):
    """Run one operation; returns a record with its outputs and checks."""
    out_dir = os.path.join(work, tag)
    os.makedirs(out_dir, exist_ok=True)
    stdout = os.path.join(out_dir, "stdout")
    stderr = os.path.join(out_dir, "stderr")
    trace_file = os.path.join(out_dir, "trace.bin") if traced else None
    if op.is_cli:
        argv = list(op.argv) + ["--out-dir", os.path.join(out_dir, "csv")]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli",
                    trace_file, "--"] + argv
        else:
            argv = [sys.executable, "-m", "spinlab.cli"] + argv
        code, wall, cpu, rss = spawner.run(argv, stdout, stderr)
        rec = {"op": op.name, "code": code, "wall_s": wall, "cpu_s": cpu,
               "rss_mb": rss, "dir": out_dir, "trace": trace_file,
               "spawn": spawner.last,
               "attempted": 1, "failed": 0, "fails": []}
        try:
            payload = json.loads(_read_bytes(stdout))
            rec["fails"] = op.check(payload, os.path.join(out_dir, "csv"))
        except MALFORMED as exc:
            rec["fails"] = [f"{op.name}: output unreadable ({exc!r})"]
        rec["failed"] = int(code != 0 or bool(rec["fails"]))
        return [rec]

    # library worker: two operations, solve then refine
    result = os.path.join(out_dir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "torus-refine",
            result] + ([trace_file] if traced else [])
    code, wall, cpu, rss = spawner.run(argv, stdout, stderr)
    rec = {"op": op.name, "code": code, "dir": out_dir, "trace": trace_file,
           "rss_mb": rss, "attempted": 2, "failed": 0, "fails": []}
    try:
        data = json.loads(_read_bytes(result))
    except (OSError, ValueError) as exc:
        rec.update(wall_s=wall, cpu_s=cpu, failed=2,
                   fails=[f"worker output unreadable ({exc!r})"])
        return [rec]
    rec.update(wall_s=data["wall_s"], cpu_s=data["cpu_s"],
               outputs=json.dumps(data["ops"], sort_keys=True),
               t0=data["t0"], t1=data["t1"])
    done = set()
    for entry in data["ops"]:
        done.add(entry["op"])
        if "error" in entry:
            rec["failed"] += 1
            rec["fails"].append(f"{entry['op']}: {entry['error']}")
            continue
        try:
            fails = checks.check_torus(entry["rows"], entry["summary"],
                                       entry["lam"], TORUS_REFINE["delta"],
                                       TORUS_REFINE["tol"], kernel=False)
        except MALFORMED as exc:
            fails = [f"output unreadable ({exc!r})"]
        if fails:
            rec["failed"] += 1
            rec["fails"].extend(f"{entry['op']}: {f}" for f in fails)
    rec["failed"] += len({"solve", "refine"} - done)
    if code != 0:
        rec["failed"] = 2
        rec["fails"].append(f"worker exited {code}")
    return [rec]


def run_round(spawner, ops, rng, work, tag, traced):
    order = rng.permutation(len(ops))
    records = []
    for k in order:
        records.extend(run_op(spawner, ops[k], work,
                              f"{tag}-{ops[k].name.replace(' ', '_')}",
                              traced))
    return records


def same_outputs(untraced, traced):
    """Messages for every operation whose output bytes differ."""
    fails = []
    for a, b in zip(sorted(untraced, key=lambda r: r["op"]),
                    sorted(traced, key=lambda r: r["op"])):
        if "outputs" in a or "outputs" in b:
            if a.get("outputs") != b.get("outputs"):
                fails.append(f"{a['op']}: traced solution differs")
            continue
        if (_read_bytes(os.path.join(a["dir"], "stdout"))
                != _read_bytes(os.path.join(b["dir"], "stdout"))):
            fails.append(f"{a['op']}: traced stdout differs")
        csv_a = os.path.join(a["dir"], "csv")
        csv_b = os.path.join(b["dir"], "csv")
        names = sorted(os.listdir(csv_a)) if os.path.isdir(csv_a) else []
        other = sorted(os.listdir(csv_b)) if os.path.isdir(csv_b) else []
        if names != other:
            fails.append(f"{a['op']}: traced CSV files differ")
            continue
        for name in names:
            if (_read_bytes(os.path.join(csv_a, name))
                    != _read_bytes(os.path.join(csv_b, name))):
                fails.append(f"{a['op']}: traced {name} differs")
    return fails


def round_total(rounds, key):
    """One round's total of ``key``, from each operation's median.

    Summing per-operation medians over the rounds of a run is less
    sensitive to a single slow operation than the median of round sums.
    """
    per_op = {}
    for records in rounds:
        for r in records:
            per_op.setdefault(r["op"], []).append(r[key])
    return sum(statistics.median(v) for v in per_op.values())


# ---------------------------------------------------------------------------
# per-layer aggregation

def layer_stats(records):
    """Merge the trace files of one traced round.

    For a CLI process two spans are added from the runner's clock (which
    is the same monotonic clock the child reads): ``python.startup``
    from spawning the interpreter to its first statement, and
    ``python.exit`` from the end of ``cli.run`` to the process being
    reaped, which is writing the trace plus interpreter teardown.
    """
    stats = {}
    counters = {}
    per_process = {"import": [], "python.startup": [], "python.exit": []}
    covered = 0.0
    for rec in records:
        if not rec.get("trace") or not os.path.exists(rec["trace"]):
            continue
        count, extra, spans = tracing.load(rec["trace"])
        per = tracing.summarize(spans)
        for name, entry in per.items():
            agg = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += entry[key]
        for key, value in count.items():
            counters[key] = counters.get(key, 0) + value
        roots = [s for s in spans if s[3] < 0]
        per_process["import"].extend(e - b for n, b, e, _ in roots
                                     if n == "import")
        if "t0" in extra:
            # library worker: operation time excludes the import
            for _, start, end, _ in roots:
                covered += max(0.0, min(end, extra["t1"])
                               - max(start, extra["t0"]))
            continue
        covered += sum(e - b for _, b, e, _ in roots)
        spawned, reaped = rec["spawn"]
        startup = extra["start"] - spawned
        teardown = reaped - max(e for _, _, e, _ in roots)
        per_process["python.startup"].append(startup)
        per_process["python.exit"].append(teardown)
        covered += startup + teardown
    return stats, counters, per_process, covered


def per_layer_metrics(pairs):
    """Metrics of the traced rounds; medians over rounds for times."""
    rows = []
    for untraced, traced in pairs:
        stats, counters, per_process, covered = layer_stats(traced)
        u_wall = sum(r["wall_s"] for r in untraced)
        t_wall = sum(r["wall_s"] for r in traced)
        rows.append((stats, counters, per_process, covered, u_wall, t_wall))

    def value(spec, row):
        _, key, field, _ = spec
        stats, counters, per_process, covered, u_wall, t_wall = row
        if field == "median":
            samples = per_process[key]
            return statistics.median(samples) if samples else 0.0
        if field == "counter":
            return counters.get(key, 0)
        if field == "ratio":
            outer = counters.get("reduction.outer_iterations", 0)
            beta = stats.get("reduction.beta", {}).get("calls", 0)
            return beta / outer if outer else 0.0
        if field == "untraced":
            return u_wall
        if field == "traced":
            return t_wall
        if field == "overhead":
            return 100.0 * (t_wall - u_wall) / u_wall
        if field == "coverage":
            return 100.0 * covered / t_wall
        return stats.get(key, {}).get(field, 0)

    metrics = {}
    for spec in PER_LAYER:
        values = [value(spec, row) for row in rows]
        med = statistics.median(values)
        if spec[3] == "count" and float(med).is_integer():
            med = int(med)
        metrics[spec[0]] = {"value": med, "unit": spec[3]}
    return metrics


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    base = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*blas*")) \
            + glob.glob(os.path.join(base, ".libs", "*blas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS")


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root):
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        p.error("seed must be nonnegative and seconds positive")
    return args


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinlab", "__init__.py")):
        print(json.dumps({"error": "run from the root of a spinlab checkout: "
                                   "src/spinlab is missing"}), file=sys.stderr)
        return 2
    module, make_ops = WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(HERE, "out")
    work = os.path.join(out_root, run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spawner = Spawner(root, started + HARD_LIMIT_S)
    env = environment(root)
    print(json.dumps({"environment": env}), flush=True)

    setup_samples = []
    rng = np.random.default_rng(args.seed)
    rounds = []
    mismatches = []
    # whole rounds: another one starts only while the rounds are expected
    # to end within the requested seconds (the first always runs); set-up
    # samples are taken between the first rounds, outside that budget
    durations = []
    while True:
        tag = f"r{len(rounds)}"
        if len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(measure_setup(spawner, module, work))
        t_round = time.monotonic()
        plain = run_round(spawner, ops, rng, work, tag, False)
        traced = None
        if args.trace:
            traced = run_round(spawner, ops, rng, work, tag + "t", True)
            mismatches.extend(same_outputs(plain, traced))
        rounds.append((plain, traced))
        durations.append(time.monotonic() - t_round)
        next_round = statistics.median(durations)
        if sum(durations) + next_round > args.seconds:
            break
        if time.monotonic() + next_round > started + HARD_LIMIT_S - 5.0:
            break

    while (len(setup_samples) < SETUP_REPEATS
           and time.monotonic() < started + HARD_LIMIT_S - 5.0):
        setup_samples.append(measure_setup(spawner, module, work))
    setup = statistics.median(setup_samples)

    records = [r for plain, traced in rounds for r in plain + (traced or [])]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    fails = [f for r in records for f in r["fails"]] + mismatches
    correct = not fails

    if args.trace:
        metrics = per_layer_metrics(rounds)
    else:
        plain_rounds = [plain for plain, _ in rounds]
        metrics = {
            "wall_s": {"value": round_total(plain_rounds, "wall_s"),
                       "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "cpu_s": {"value": round_total(plain_rounds, "cpu_s"),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                max(r["rss_mb"] for r in plain) for plain in plain_rounds),
                "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "setup_samples_s": setup_samples,
        "rounds": [[{k: v for k, v in r.items() if k not in ("outputs",)}
                    for r in plain + (traced or [])]
                   for plain, traced in rounds],
        "failures": fails, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    }
    with open(os.path.join(out_root, run_id + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    # keep the trace files of the last traced round, drop the bulky rest
    for plain, traced in rounds[:-1]:
        for r in plain + (traced or []):
            shutil.rmtree(r["dir"], ignore_errors=True)

    for msg in fails:
        print(f"check failed: {msg}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
