"""Fresh-interpreter entry points the benchmark runner spawns.

    python3 bench/child.py cli TRACE_FILE -- ARGS...
        Runs ``spinlab.cli.run(ARGS)`` with every layer traced and
        writes the spans to TRACE_FILE.  stdout, CSV files and the exit
        code are the CLI's own.

    python3 bench/child.py torus-refine OUT_FILE [TRACE_FILE]
        Solves the antiperiodic torus ground state at cutoff 3 and
        refines it to cutoff 6 through the library entry points, then
        writes both states and the timing of the calls to OUT_FILE.
        With TRACE_FILE the layers are traced as well.

The package is found through PYTHONPATH, which the runner points at the
checkout's ``src``.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

TORUS_REFINE = {"delta": (0.5, 0.5), "coarse": 3.0, "fine": 6.0,
                "tol": 1e-8, "seed": 0, "starts": 2}


def _cpu():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def traced_cli(trace_file, argv):
    start = time.perf_counter()
    tr = tracing.Tracer()
    with tr.span("import"):
        import spinlab.cli as cli
    tracing.install(tr)
    code = 1
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tr.dump(trace_file, {"start": start})
    return code


def torus_refine(out_file, trace_file=None):
    start = time.perf_counter()
    tr = tracing.Tracer() if trace_file else None
    if tr:
        with tr.span("import"):
            from spinlab import dirac_torus
        tracing.install(tr)
    else:
        from spinlab import dirac_torus
    p = TORUS_REFINE
    ops = []
    t0, c0 = time.perf_counter(), _cpu()
    state = None
    try:
        state = dirac_torus.solve_ground_state(
            p["coarse"], p["delta"], tol=p["tol"], seed=p["seed"],
            starts=p["starts"])
        ops.append({"op": "solve", "lam": p["coarse"],
                    "summary": state.summary(), "rows": state.rows()})
    except (ValueError, RuntimeError) as exc:
        ops.append({"op": "solve", "lam": p["coarse"], "error": str(exc)})
    if state is not None:
        try:
            fine = dirac_torus.refine_ground_state(state, p["fine"],
                                                   tol=p["tol"])
            ops.append({"op": "refine", "lam": p["fine"],
                        "summary": fine.summary(), "rows": fine.rows()})
        except (ValueError, RuntimeError) as exc:
            ops.append({"op": "refine", "lam": p["fine"], "error": str(exc)})
    t1, c1 = time.perf_counter(), _cpu()
    with open(out_file, "w") as fh:
        json.dump({"ops": ops, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                   "start": start, "t0": t0, "t1": t1}, fh)
    if tr:
        tr.dump(trace_file, {"start": start, "t0": t0, "t1": t1})
    return 0


def main(argv):
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return traced_cli(argv[1], argv[3:])
    if argv[:1] == ["torus-refine"] and len(argv) in (2, 3):
        return torus_refine(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
