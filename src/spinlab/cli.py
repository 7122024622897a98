"""Command line front end.

One executable, ``spinlab``, puts every verification suite, audit and
solver behind a two-level subcommand tree:

    verify   clifford | spinor | curvature
    audit    residual | energy | rayleigh
    psi0
    solve    toy | generic | torus

Each run prints a single JSON document (sorted keys) to stdout and exits
0 when every check inside the run passed, 1 when a check failed, 2 on a
usage error.  When an output directory is given (``--out-dir`` flag, or
the ``SPINLAB_OUT`` environment variable as default) tabular results are
also written there as CSV files, always with a header row.

Settings may come from a flat ``key = value`` config file (``--config``);
command line flags override file entries, which override the per-command
defaults.  ``--echo-config`` prints the canonical form of the fully
resolved configuration and exits, so an experiment can be re-run later
from its own echo.  All randomness flows through the echoed seed, and an
identical configuration gives byte-identical output.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["RunConfig", "UsageError", "run", "main"]


class UsageError(ValueError):
    """Bad flags, bad config file, or inconsistent values."""


# ---------------------------------------------------------------------------
# configuration

# key -> (type tag, constraint); constraint applies elementwise to lists.
# A key has the same type in every subcommand that takes it; which keys a
# subcommand takes, and their defaults, is its row of _COMMANDS.
_TYPES = {
    "m": ("int", "positive"),
    "m_max": ("int", "positive"),
    "dims": ("int_list", "positive"),
    "points": ("int", "positive"),
    "tensors": ("int", "positive"),
    "trials": ("int", "positive"),
    "starts": ("int", "positive"),
    "seed": ("int", "nonnegative"),
    "tol": ("float", "positive"),
    "slope_tol": ("float", "positive"),
    "eps_lo": ("float", "positive"),
    "eps_hi": ("float", "positive"),
    "eps_count": ("int", "positive"),
    "first_scale": ("float", "nonnegative"),
    "spectrum": ("float_list", None),
    "spin": ("str", None),
    "modes": ("float", "positive"),
    "out_dir": ("str", None),
}


def _cast_scalar(key, tag, raw):
    if tag == "int":
        try:
            return int(raw)
        except ValueError:
            raise UsageError(
                f"config key {key!r}: expected an integer, got {raw!r}")
    if tag == "float":
        try:
            value = float(raw)
        except ValueError:
            raise UsageError(f"config key {key!r}: expected a number, "
                             f"got {raw!r}")
        if not math.isfinite(value):
            raise UsageError(f"config key {key!r}: expected a finite number, "
                             f"got {raw!r}")
        return value
    return str(raw)


def _cast(key, raw):
    tag, constraint = _TYPES[key]
    if tag.endswith("_list"):
        base = tag[:-5]
        if isinstance(raw, str):
            parts = [p for p in raw.split(",") if p.strip() != ""]
        else:
            parts = list(raw)
        value = tuple(_cast_scalar(key, base, p) for p in parts)
        if not value:
            raise UsageError(f"config key {key!r} needs at least one entry")
        scalars = value
    else:
        value = _cast_scalar(key, tag, raw)
        scalars = (value,)
    if constraint == "positive" and any(not s > 0 for s in scalars):
        raise UsageError(f"config key {key!r} must be positive")
    if constraint == "nonnegative" and any(s < 0 for s in scalars):
        raise UsageError(f"config key {key!r} must be nonnegative")
    return value


def _format_value(key, value):
    tag = _TYPES[key][0]
    scalars = value if tag.endswith("_list") else (value,)
    return ",".join(repr(float(v)) if tag.startswith("float") else str(v)
                    for v in scalars)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one run.

    ``canonical()`` renders the flat key-value form; parsing that text
    back and rendering again reproduces it byte for byte.
    """

    subcommand: str
    values: dict

    def __post_init__(self):
        if self.subcommand not in _COMMANDS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}")
        options = _COMMANDS[self.subcommand].options
        clean = {}
        for key, raw in self.values.items():
            if key == "subcommand":
                continue
            if key != "out_dir" and key not in options:
                raise UsageError(f"unknown config key {key!r} "
                                 f"for {self.subcommand}")
            clean[key] = _cast(key, raw)
        object.__setattr__(self, "values", clean)

    @classmethod
    def from_text(cls, subcommand: str, text: str) -> "RunConfig":
        values = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise UsageError(f"config line {lineno}: expected key = value")
            key, raw = body.split("=", 1)
            key, raw = key.strip(), raw.strip()
            if key == "subcommand":
                if raw != subcommand:
                    raise UsageError(
                        f"config file is for {raw!r}, not {subcommand!r}")
                continue
            values[key] = raw
        return cls(subcommand, values)

    def merged(self, overrides: dict) -> "RunConfig":
        out = dict(self.values)
        out.update({k: v for k, v in overrides.items() if v is not None})
        return RunConfig(self.subcommand, out)

    def canonical(self) -> str:
        lines = [f"subcommand = {self.subcommand}"]
        for key in sorted(self.values):
            lines.append(f"{key} = {_format_value(key, self.values[key])}")
        return "\n".join(lines) + "\n"

    def get(self, key):
        return self.values.get(key)

    def __getitem__(self, key):
        return self.values[key]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, csv_specs); csv_specs is a
# list of (filename, header, rows).  Each imports the library modules it
# drives when it runs, so a run loads only what it uses.

def _run_verify_clifford(cfg):
    from .clifford import build_rep

    m_max, tol = cfg["m_max"], cfg["tol"]
    if m_max < 2:
        raise UsageError("m_max must be at least 2")
    results = []
    for m in range(2, m_max + 1):
        rep = build_rep(m)
        eye = np.eye(rep.N)
        anti = 0.0
        for i in range(m):
            for j in range(m):
                g = rep.gamma(i) @ rep.gamma(j) + rep.gamma(j) @ rep.gamma(i)
                anti = max(anti, float(np.abs(g + 2.0 * (i == j) * eye).max()))
        herm = max(float(np.abs(rep.gamma(i) + rep.gamma(i).conj().T).max())
                   for i in range(m))
        results.append({"m": m, "anticommutation": anti,
                        "antihermiticity": herm,
                        "ok": bool(anti <= tol and herm <= tol)})
    payload = {"check": "clifford", "m_max": m_max, "tol": tol,
               "results": results, "ok": all(r["ok"] for r in results)}
    rows = [(r["m"], r["anticommutation"], r["antihermiticity"])
            for r in results]
    return payload, [("clifford_residuals.csv",
                      ("m", "anticommutation", "antihermiticity"), rows)]


def _fd_dirac_slope(params, rng):
    """Order of the centered-difference Dirac application, expected 2."""
    from . import spinor_fields as sf

    rep = params.rep
    x = rng.standard_normal(params.m) * 0.4
    rhs = sf.psi_norm(params.m, x) ** (2.0 / (params.m - 1)) * sf.psi(params, x)
    errs = []
    for h in (1e-2, 1e-3):
        d = np.zeros(rep.N, dtype=complex)
        for j in range(params.m):
            e = np.zeros(params.m)
            e[j] = h
            d += rep.gamma(j) @ (sf.psi(params, x + e)
                                 - sf.psi(params, x - e)) / (2.0 * h)
        errs.append(float(np.linalg.norm(d - rhs)))
    return math.log(errs[0] / errs[1]) / math.log(10.0)


def _run_verify_spinor(cfg):
    from . import spinor_fields as sf

    dims, n_pts = cfg["dims"], cfg["points"]
    tol, slope_tol, seed = cfg["tol"], cfg["slope_tol"], cfg["seed"]
    if min(dims) < 2:
        raise UsageError("spinor verification needs m >= 2")
    results = []
    for m in dims:
        params = sf.make_params(m)
        rng = np.random.default_rng(seed + m)
        pts = rng.standard_normal((n_pts, m)) * 1.5
        worst = float(np.max(sf.dirac_residual(params, pts)))
        slope = _fd_dirac_slope(params, rng)
        results.append({"m": m, "max_residual": worst, "fd_slope": slope,
                        "ok": bool(worst <= tol
                                   and abs(slope - 2.0) <= slope_tol)})
    payload = {"check": "spinor", "dims": list(dims), "points": n_pts,
               "tol": tol, "slope_tol": slope_tol, "seed": seed,
               "results": results, "ok": all(r["ok"] for r in results)}
    rows = [(r["m"], r["max_residual"], r["fd_slope"]) for r in results]
    return payload, [("spinor_residuals.csv",
                      ("m", "max_residual", "fd_slope"), rows)]


def _run_verify_curvature(cfg):
    from . import curvature
    from .jets import jet_space, jmat_identity, jmat_mul

    dims, tensors, tol, seed = (cfg["dims"], cfg["tensors"], cfg["tol"],
                                cfg["seed"])
    if min(dims) < 4:
        raise UsageError("curvature verification needs m >= 4")
    results = []
    rows = []
    for m in dims:
        space = jet_space(m, 4)
        eye = jmat_identity(space, m)
        worst_bbg = worst_binv = worst_det = 0.0
        for k in range(tensors):
            rng = np.random.default_rng((seed, m, k))
            R = curvature.random_riemann(m, seed=rng)
            first = curvature.riemann_project(rng.standard_normal((m,) * 5))
            second = curvature.riemann_project(rng.standard_normal((m,) * 6))
            jets = curvature.CurvatureJets(
                m, first, 0.5 * (second + second.swapaxes(4, 5)))
            G = curvature.metric_jet(R, jets)
            B, Binv = curvature.b_jets(R, jets)
            bbg = float(np.abs(jmat_mul(space, jmat_mul(space, B, B), G)
                               - eye).max())
            binv = float(np.abs(jmat_mul(space, B, Binv) - eye).max())
            det = float(curvature.det_expansion_check(R, jets))
            rows.append((m, k, bbg, binv, det))
            worst_bbg = max(worst_bbg, bbg)
            worst_binv = max(worst_binv, binv)
            worst_det = max(worst_det, det)
        results.append({"m": m, "bbg_residual": worst_bbg,
                        "binv_residual": worst_binv,
                        "det_residual": worst_det,
                        "ok": bool(max(worst_bbg, worst_binv, worst_det)
                                   <= tol)})
    payload = {"check": "curvature", "dims": list(dims), "tensors": tensors,
               "tol": tol, "seed": seed, "results": results,
               "ok": all(r["ok"] for r in results)}
    return payload, [("curvature_residuals.csv",
                      ("m", "tensor", "bbg_residual", "binv_residual",
                       "det_residual"), rows)]


def _run_psi0(cfg):
    from . import spinor_fields as sf
    from .clifford import build_rep

    m, trials, tol, seed = cfg["m"], cfg["trials"], cfg["tol"], cfg["seed"]
    if m < 3:
        raise UsageError("psi0 search needs m >= 3")
    rep = build_rep(m)
    rng = np.random.default_rng(seed)
    worst = 0.0
    rows = []
    for k in range(trials):
        A = rng.standard_normal((m,) * 4)
        out = sf.find_psi0(rep, A, f_tol=tol)
        val = abs(sf.psi0_functional(rep, A, out))
        rows.append((k, val))
        worst = max(worst, val)
    payload = {"check": "psi0", "m": m, "trials": trials, "tol": tol,
               "seed": seed, "worst_functional": worst,
               "ok": bool(worst <= tol)}
    return payload, [("psi0_functional.csv", ("trial", "functional_abs"),
                      rows)]


@contextlib.contextmanager
def _refused():
    """A ValueError the library raises inside is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_audit(cfg):
    """The audit the subcommand names, at the configured m, seed, first
    scale and scales (the geometric grid from eps_hi down to eps_lo, else
    the audit's default), all checked as the library checks them; its
    report states the verdict."""
    from . import asymptotics

    audit = cfg.subcommand.split()[1]
    given = [k for k in ("eps_lo", "eps_hi", "eps_count") if k in cfg.values]
    # a partial grid is refused after the m and first-scale checks
    grid = (np.geomspace(cfg["eps_hi"], cfg["eps_lo"], cfg["eps_count"])
            if len(given) == 3 else None)
    with _refused():
        eps = asymptotics.check_audit_args(audit, cfg["m"],
                                           cfg["first_scale"], grid)
    if len(given) not in (0, 3):
        raise UsageError("eps grid needs eps_lo, eps_hi and eps_count")
    report = getattr(asymptotics, f"{audit}_audit")(
        cfg["m"], eps_grid=eps, seed=cfg["seed"],
        first_scale=cfg["first_scale"])
    return dict(report.summary(), seed=cfg["seed"]), [
        (f"{audit}_terms.csv", ("term", "eps", "value"), list(report.rows()))]


def _nehari_payload(cfg, problem, extra):
    """Minimize ``problem`` over its Nehari set: both solve subcommands."""
    from .reduction import minimize_nehari

    result = minimize_nehari(problem, starts=cfg["starts"], tol=cfg["tol"],
                             seed=cfg["seed"])
    return dict(result.summary(), seed=cfg["seed"],
                converged_starts=result.converged_starts,
                degenerate_starts=result.degenerate_starts,
                ok=bool(result.grad_norm <= cfg["tol"]), **extra), []


def _run_solve_toy(cfg):
    from .reduction import toy_problem

    return _nehari_payload(cfg, toy_problem(), {"problem": "toy"})


def _run_solve_generic(cfg):
    from .reduction import diagonal_quartic_problem

    spectrum = cfg.get("spectrum")
    if spectrum is None:
        raise UsageError("solve generic needs a spectrum "
                         "(--spectrum or config)")
    with _refused():
        problem = diagonal_quartic_problem(spectrum)
    return _nehari_payload(cfg, problem, {
        "problem": "generic", "spectrum": [float(d) for d in spectrum]})


def _run_solve_torus(cfg):
    from . import dirac_torus

    with _refused():
        spin = dirac_torus.SpinStructure.from_text(cfg["spin"]).astuple()
        # the library's own check of the cutoff, before any solve
        dirac_torus.build_dirac(cfg["modes"], spin)
    state = dirac_torus.solve_ground_state(
        cfg["modes"], spin, tol=cfg["tol"], seed=cfg["seed"],
        starts=cfg["starts"])
    payload = dict(state.summary(), iterations=state.iterations,
                   nehari_scale=state.nehari_scale, seed=cfg["seed"],
                   converged_starts=state.converged_starts,
                   degenerate_starts=state.degenerate_starts,
                   spin=cfg["spin"], ok=bool(state.grad_norm <= cfg["tol"]))
    return payload, [("torus_state.csv", ("mode", "block", "re", "im"),
                      state.rows())]


# ---------------------------------------------------------------------------
# the subcommand table: it generates the argparse tree (one flag per
# option, ``--`` + key with ``_`` -> ``-``), the defaults a run starts from
# and the dispatch in ``run``

class _Command(NamedTuple):
    handler: Callable
    blurb: str
    options: dict  # key -> default; None when the option has no default


def _audit(blurb, first_scale):
    """The three audits share one handler and one set of options."""
    return _Command(_run_audit, blurb, {
        "m": 6, "seed": 0, "first_scale": first_scale,
        "eps_lo": None, "eps_hi": None, "eps_count": None})


_COMMANDS = {
    "verify clifford": _Command(_run_verify_clifford, "gamma matrix contract",
                                {"m_max": 9, "tol": 1e-12}),
    "verify spinor": _Command(_run_verify_spinor, "test spinor field equation",
                              {"dims": (2, 3, 4, 5, 6, 7, 8), "points": 1000,
                               "tol": 1e-10, "slope_tol": 0.2, "seed": 0}),
    "verify curvature": _Command(_run_verify_curvature,
                                 "metric square-root jets",
                                 {"dims": (4, 5, 6), "tensors": 10,
                                  "tol": 1e-12, "seed": 0}),
    "audit residual": _audit("equation residual decay orders", 100.0),
    "audit energy": _audit("pairing decomposition terms", 10.0),
    "audit rayleigh": _audit("quotient against the flat model", 100.0),
    "psi0": _Command(_run_psi0, "algebraic kernel spinor search",
                     {"m": 5, "trials": 100, "tol": 1e-10, "seed": 0}),
    "solve toy": _Command(_run_solve_toy,
                          "two-dimensional closed-form instance",
                          {"starts": 8, "tol": 1e-10, "seed": 0}),
    "solve generic": _Command(_run_solve_generic, "diagonal quartic instance",
                              {"spectrum": None, "starts": 8, "tol": 1e-10,
                               "seed": 0}),
    "solve torus": _Command(_run_solve_torus, "spectral Dirac ground state",
                            {"spin": "0.5,0.5", "modes": 2.0, "starts": 2,
                             "tol": 1e-8, "seed": 0}),
}

# help of the first word of the two-word subcommands
_GROUPS = {"verify": "algebraic identity suites",
           "audit": "epsilon asymptotics",
           "solve": "Nehari ground states"}


class _Parser(argparse.ArgumentParser):
    """Argparse with machine-readable errors on stderr."""

    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _build_parser():
    top = _Parser(prog="spinlab",
                  description="verification suites, asymptotic audits and "
                              "ground-state solvers")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in _COMMANDS.items():
        group, _, target = name.partition(" ")
        if not target:
            p = sub.add_parser(name, help=command.blurb)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=_GROUPS[group]).add_subparsers(
                        dest="target", required=True)
            p = groups[group].add_parser(target, help=command.blurb)
        p.set_defaults(subcommand=name)
        for key in command.options:
            p.add_argument("--" + key.replace("_", "-"))
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--echo-config", action="store_true",
                       help="print the resolved canonical config and exit")
        p.add_argument("--out-dir",
                       help="directory for CSV tables (default: $SPINLAB_OUT)")
    return top


def _resolve_config(args):
    name = args.subcommand
    options = _COMMANDS[name].options
    cfg = RunConfig(name, {k: v for k, v in options.items() if v is not None})
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            # missing, unreadable, or not text (UnicodeDecodeError)
            raise UsageError(f"cannot read config file: {exc}")
        cfg = cfg.merged(RunConfig.from_text(name, text).values)
    # flags arrive as strings; RunConfig casts and checks them
    cfg = cfg.merged({key: getattr(args, key) for key in options})
    out_dir = args.out_dir or os.environ.get("SPINLAB_OUT")
    if out_dir:
        cfg = cfg.merged({"out_dir": out_dir})
    return cfg


def _strict(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def run(argv=None) -> int:
    """Parse, execute, print; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.echo_config:
            sys.stdout.write(cfg.canonical())
            return 0
        out_dir = cfg.get("out_dir")
        if out_dir:  # before any work, so a bad directory wastes none
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot use output directory: {exc}")
        payload, csv_specs = _COMMANDS[args.subcommand].handler(cfg)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        # a solver refused the data, or memory ran out: a failed run, not
        # usage; the resolved configuration lets the run be repeated
        print(json.dumps({"error": str(exc) or type(exc).__name__,
                          "ok": False, "config": cfg.canonical()}),
              file=sys.stderr)
        return 1

    if out_dir:
        for name, header, rows in csv_specs:
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
        if csv_specs:
            payload["csv"] = [name for name, _, _ in csv_specs]
    print(json.dumps(_strict(payload), sort_keys=True, indent=2,
                     allow_nan=False))
    return 0 if payload.get("ok", True) else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
