"""Command line wiring: exit codes, JSON shape, config handling, CSV."""

import itertools
import json
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from spinlab import (asymptotics, clifford, curvature, dirac_torus,
                     reduction, spinor_fields)
from spinlab.asymptotics import AUDIT_M_RANGE
from spinlab.cli import _COMMANDS, _TYPES, RunConfig, UsageError, _strict, run

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "cli-output.md"


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_strict_json(capsys, argv):
    """Run and parse stdout as RFC 8259 JSON (no Infinity or NaN)."""
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out, parse_constant=reject_constant)


class WorkStarted(BaseException):
    """A refused run reached a work entry point (not an Exception, so
    that ``run`` does not report it as a solver failure)."""


# the entry points of every subcommand's work, none of which a refused
# run may reach
WORK = [(asymptotics, "audit_inputs"), (dirac_torus, "solve_ground_state"),
        (reduction, "minimize_nehari"), (spinor_fields, "make_params"),
        (curvature, "metric_jet"), (clifford, "build_rep")]


@pytest.fixture
def no_work(monkeypatch):
    def started(*args, **kwargs):
        raise WorkStarted

    for module, name in WORK:
        monkeypatch.setattr(module, name, started)


def assert_refused(capsys, argv, error):
    """``run(argv)`` exits 2 within 2 s, with nothing on stdout and the
    document ``{"error": error}`` as its whole stderr."""
    start = time.perf_counter()
    try:
        rc = run(argv)
    except SystemExit as exc:  # the parser's own errors
        rc = exc.code
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2.0
    assert (rc, captured.out, captured.err) == (
        2, "", json.dumps({"error": error}) + "\n")


# ---------------------------------------------------------------------------
# exit codes

# solve generic has no default spectrum
DEFAULT_EXTRA = {"solve generic": ["--spectrum", "1,0.7,-0.4"]}
# runs past the defaults with a golden payload: file stem -> argv.
# test_golden_run_matches makes the first two; each of the others is
# compared by the test that already makes it, named beside it
GOLDEN_RUNS = {
    "audit_residual_m9": ["audit", "residual", "--m", "9"],
    # the benchmark's torus-kernel command
    "solve_torus_kernel": ["solve", "torus", "--spin", "0,0", "--modes",
                           "1.5", "--starts", "1", "--seed", "7"],
    # test_13_cli_runs_are_deterministic
    "solve_torus_modes8": ["solve", "torus", "--spin", "0,0", "--modes", "8",
                           "--seed", "7"],
    # test_solve_torus_mixed_structure_converges
    "solve_torus_mixed": ["solve", "torus", "--spin", "0,0.5", "--modes",
                          "3"],
}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_default_run_passes(capsys, matches_golden, name):
    # each default run against its golden payload
    rc, payload = run_strict_json(capsys, name.split()
                                  + DEFAULT_EXTRA.get(name, []))
    assert rc == 0
    assert payload["ok"] is True
    matches_golden(name.replace(" ", "_"), payload)


@pytest.mark.parametrize("stem", ["audit_residual_m9", "solve_torus_kernel"])
def test_golden_run_matches(capsys, matches_golden, stem):
    rc, payload = run_strict_json(capsys, GOLDEN_RUNS[stem])
    assert rc == 0
    matches_golden(stem, payload)


def test_verify_clifford_passes(capsys):
    rc, payload = run_json(capsys, ["verify", "clifford", "--m-max", "4"])
    assert rc == 0
    assert payload["ok"] is True
    assert [r["m"] for r in payload["results"]] == [2, 3, 4]
    assert all(r["anticommutation"] <= 1e-12 for r in payload["results"])


def test_unknown_flag_is_usage_error(capsys):
    assert_refused(capsys, ["verify", "clifford", "--bogus", "1"],
                   "unrecognized arguments: --bogus 1")


def test_missing_subcommand_is_usage_error(capsys):
    assert_refused(capsys, [], "the following arguments are required: "
                   "command")


def test_invalid_value_is_usage_error(capsys, no_work):
    assert_refused(capsys, ["psi0", "--m", "0", "--trials", "1"],
                   "config key 'm' must be positive")


def test_partial_eps_grid_is_usage_error(capsys, no_work):
    assert_refused(capsys, ["audit", "residual", "--m", "6", "--eps-lo",
                            "1e-3"],
                   "eps grid needs eps_lo, eps_hi and eps_count")


AUDIT_GRID = ["--m", "6", "--eps-hi", "1e-2", "--eps-lo", "1e-3",
              "--eps-count", "4"]


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audit_short_grid_passes(capsys, audit):
    rc, payload = run_strict_json(capsys, ["audit", audit] + AUDIT_GRID)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["eps"] == pytest.approx([10 ** (-2 - k / 3)
                                            for k in range(4)], rel=1e-12)


@pytest.mark.parametrize("count", ["2", "3"])
def test_audit_rayleigh_takes_what_the_library_takes(capsys, count):
    # rayleigh_audit reads only its two smallest scales, so the CLI takes
    # grids of 2 and 3 points for it, as the library does
    rc, payload = run_strict_json(capsys, [
        "audit", "rayleigh", "--eps-hi", "1e-2", "--eps-lo", "5e-3",
        "--eps-count", count])
    assert rc == 0
    assert payload["ok"] is True
    assert payload["eps"] == pytest.approx(
        list(np.geomspace(1e-2, 5e-3, int(count))), rel=1e-12)


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audit_payload_is_the_report_summary(capsys, monkeypatch, audit):
    # the CLI adds only the seed to the library's summary, verdict included
    monkeypatch.delenv("SPINLAB_OUT", raising=False)
    rc, payload = run_json(capsys, ["audit", audit, "--m", "5", "--eps-lo",
                                    "0.05", "--eps-hi", "0.1",
                                    "--eps-count", "4"])
    report = getattr(asymptotics, f"{audit}_audit")(
        5, eps_grid=np.geomspace(0.1, 0.05, 4), seed=0,
        first_scale=_COMMANDS[f"audit {audit}"].options["first_scale"])
    want = json.loads(json.dumps(_strict(dict(report.summary(), seed=0))))
    assert payload == want
    assert rc == (0 if want["ok"] else 1)


def test_audit_energy_stdout_is_strict_json(capsys):
    rc, payload = run_strict_json(capsys, ["audit", "energy"] + AUDIT_GRID)
    assert rc == 0
    # J4 cancels for the matched spinor: its slope is "faster than any
    # power", printed as null
    assert payload["J4"]["cancelled"] is True
    assert payload["J4"]["post_slope"] is None
    assert payload["pointwise_zero_max"]["J1"] <= 1e-12


# bad input: command line -> the error its stderr document states; where
# a line has several faults, the first in the order of the checks
AUDIT_REFUSALS = {
    "audit residual --eps-hi 1e-2 --eps-lo 1e-3 --eps-count 3":
        "eps grid must be a 1-d sequence of at least 4 points",
    "audit energy --eps-hi 1e-2 --eps-lo 1e-3 --eps-count 2":
        "eps grid must be a 1-d sequence of at least 4 points",
    "audit rayleigh --eps-hi 1e-2 --eps-lo 1e-3 --eps-count 1":
        "eps grid must be a 1-d sequence of at least 2 points",
    "audit residual --eps-hi 1e-3 --eps-lo 1e-2 --eps-count 4":
        "eps grid must be strictly decreasing",
    # the grid's two ends are adjacent doubles, so its inner points repeat
    # one of them and the grid is not strictly decreasing
    "audit rayleigh --eps-hi 0.010000000000000002 --eps-lo 0.01 "
    "--eps-count 4": "eps grid must be strictly decreasing",
    "audit residual --m 3": "residual audit needs 4 <= m <= 9, got 3",
    "audit energy --m 4": "energy audit needs 5 <= m <= 9, got 4",
    "audit rayleigh --m 4": "rayleigh audit needs 5 <= m <= 9, got 4",
    # past the cap the default sphere rule would need gigabytes
    "audit residual --m 10": "residual audit needs 4 <= m <= 9, got 10",
    "audit energy --m 10": "energy audit needs 5 <= m <= 9, got 10",
    "audit rayleigh --m 10": "rayleigh audit needs 5 <= m <= 9, got 10",
    # past the cap on first_scale the Grams could overflow
    "audit residual --first-scale 1e+300":
        "first_scale must lie in [0, 1e+100], got 1e+300",
    "audit energy --first-scale 1.0000000000000002e+100":
        "first_scale must lie in [0, 1e+100], got 1.0000000000000002e+100",
    # several faults: m, then first scale, then a partial grid, then the
    # grid itself; the flags' own casts come before all four
    "audit residual --m 3 --eps-hi 1e-2":
        "residual audit needs 4 <= m <= 9, got 3",
    "audit residual --m 3 --first-scale 1e300":
        "residual audit needs 4 <= m <= 9, got 3",
    "audit energy --first-scale 1e300 --eps-lo 1e-3":
        "first_scale must lie in [0, 1e+100], got 1e+300",
    "audit rayleigh --first-scale 1e300 --eps-hi 1e-2 --eps-lo 1e-3 "
    "--eps-count 1": "first_scale must lie in [0, 1e+100], got 1e+300",
    "audit residual --m 10 --eps-hi 1e-3 --eps-lo 1e-2 --eps-count 4":
        "residual audit needs 4 <= m <= 9, got 10",
    "audit energy --eps-count 4 --eps-hi 1e-2":
        "eps grid needs eps_lo, eps_hi and eps_count",
    "audit rayleigh --eps-hi 1e-2 --eps-lo 1e-3 --eps-count 0":
        "config key 'eps_count' must be positive",
    "audit energy --m 4 --first-scale -1":
        "config key 'first_scale' must be nonnegative",
}


@pytest.mark.parametrize("argv", [line.split() for line in AUDIT_REFUSALS])
def test_audit_bad_input_is_usage_error(capsys, no_work, argv):
    assert_refused(capsys, argv, AUDIT_REFUSALS[" ".join(argv)])


@pytest.mark.parametrize("audit", ["residual", "energy"])
def test_audit_runs_at_the_first_scale_cap(capsys, audit):
    # no overflow warning on the way to the verdict
    cap = repr(asymptotics.AUDIT_MAX_FIRST_SCALE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, payload = run_strict_json(
            capsys, ["audit", audit, "--first-scale", cap] + AUDIT_GRID)
    assert rc in (0, 1)
    assert payload["ok"] is (rc == 0)


# ---------------------------------------------------------------------------
# solvers through the front end

def test_solve_toy_reports_quarter(capsys):
    rc, payload = run_json(capsys, ["solve", "toy", "--starts", "3"])
    assert rc == 0
    assert abs(payload["gamma"] - 0.25) <= 1e-8
    assert payload["ok"] is True
    assert payload["seed"] == 0
    assert set(payload) >= {"gamma", "grad_norm", "nehari_scale",
                            "iterations", "seed", "ok"}


def test_solve_generic_diagonal(capsys):
    rc, payload = run_json(capsys, ["solve", "generic", "--spectrum",
                                    "1.0,0.7,-0.5", "--starts", "4"])
    assert rc == 0
    # separable quartic: the level is min over the positive spectrum
    # of d^2/4
    assert abs(payload["gamma"] - 0.7 ** 2 / 4.0) <= 1e-8
    assert payload["spectrum"] == [1.0, 0.7, -0.5]


def test_solve_generic_payload_follows_the_partition(capsys):
    # X is the positive entries first, each group in the order given, so
    # a permuted spectrum solves the golden run's problem to its bits
    rc, payload = run_strict_json(
        capsys, ["solve", "generic", "--spectrum=-0.4,1,0.7"])
    golden = json.loads((pathlib.Path(__file__).resolve().parent / "golden"
                         / "solve_generic.json").read_text())
    assert rc == 0
    assert payload.pop("spectrum") == [-0.4, 1.0, 0.7]
    del golden["spectrum"]
    assert payload == golden


def test_solve_generic_needs_spectrum(capsys, no_work):
    assert_refused(capsys, ["solve", "generic"],
                   "solve generic needs a spectrum (--spectrum or config)")


SOLVE_REFUSALS = {
    "solve torus --spin 0.3,0": "cannot parse spin structure '0.3,0'",
    "solve torus --modes 0.5": "mode cutoff must be at least 1",
    # the grid is always the exact 2 nk - 1 (7 at --modes 2), and the
    # flag that set it is gone: argparse refuses it as unknown
    "solve torus --modes 2 --grid 7": "unrecognized arguments: --grid 7",
    "solve torus --modes nan":
        "config key 'modes': expected a finite number, got 'nan'",
    "solve torus --spin 1/2": "cannot parse spin structure '1/2'",
    "solve generic --spectrum 1,inf,-1":
        "config key 'spectrum': expected a finite number, got 'inf'",
    "solve generic --spectrum 1,nan,-1":
        "config key 'spectrum': expected a finite number, got 'nan'",
    "solve generic --spectrum 1,0": "spectrum entries must be nonzero",
    "solve generic --spectrum 1,2": "spectrum must be indefinite (both signs)",
    "solve generic --spectrum 1": "spectrum must be a vector of length >= 2",
    "solve torus --spin 0.3,0 --modes 0.5":
        "cannot parse spin structure '0.3,0'",
}


@pytest.mark.parametrize("argv", [line.split() for line in SOLVE_REFUSALS])
def test_solve_bad_input_is_usage_error(capsys, no_work, argv):
    assert_refused(capsys, argv, SOLVE_REFUSALS[" ".join(argv)])


CHECK_REFUSALS = {
    # every --dims entry is checked before the first dimension's work
    "verify spinor --dims 8,1": "spinor verification needs m >= 2",
    "verify curvature --dims 6,3": "curvature verification needs m >= 4",
    "verify curvature --dims 6,6,6,3": "curvature verification needs m >= 4",
    "verify spinor --dims 8,1 --points 0":
        "config key 'points' must be positive",
    "verify clifford --m-max 1": "m_max must be at least 2",
    "psi0 --m 2": "psi0 search needs m >= 3",
}


@pytest.mark.parametrize("argv", [line.split() for line in CHECK_REFUSALS])
def test_verify_and_psi0_bad_input_is_usage_error(capsys, no_work, argv):
    assert_refused(capsys, argv, CHECK_REFUSALS[" ".join(argv)])


def test_solve_torus_small_deterministic(capsys):
    argv = ["solve", "torus", "--spin", "0.5,0.5", "--modes", "2",
            "--seed", "3"]
    rc = run(argv)
    first = capsys.readouterr().out
    assert rc == 0
    rc = run(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    assert payload["kernel_dim"] == 0
    assert payload["gamma_crit"] == pytest.approx(3.141592653589793)
    assert set(payload) == {"energy", "quartic_mass", "grad_norm",
                            "gamma_crit", "kernel_dim", "modes",
                            "iterations", "nehari_scale", "seed",
                            "spin", "ok", "converged_starts",
                            "degenerate_starts"}
    assert isinstance(payload["iterations"], int)
    assert payload["iterations"] >= 1
    assert payload["nehari_scale"] > 0.0


def test_solve_torus_mixed_structure_converges(capsys, matches_golden):
    # the steepest descent before L-BFGS exited 1 here, "no start
    # converged", with both starts at pi^2 / 4 and gradients above 1e-8
    rc, payload = run_strict_json(capsys, GOLDEN_RUNS["solve_torus_mixed"])
    assert rc == 0
    assert payload["ok"] is True
    assert payload["energy"] == pytest.approx(np.pi ** 2 / 4.0, rel=1e-10)
    matches_golden("solve_torus_mixed", payload)


@pytest.mark.parametrize("argv, starts", [
    (["solve", "toy", "--starts", "3"], 3),
    (["solve", "generic", "--spectrum", "1,0.7,-0.4", "--starts", "2"], 2),
    (["solve", "torus", "--modes", "1.5", "--starts", "2"], 2),
])
def test_solve_reports_its_start_counts(capsys, argv, starts):
    # every start of these runs converges and none meets a degenerate ray
    rc, payload = run_json(capsys, argv)
    assert rc == 0
    assert payload["converged_starts"] == starts
    assert payload["degenerate_starts"] == 0


def test_psi0_search(capsys):
    rc, payload = run_json(capsys, ["psi0", "--m", "4", "--trials", "5"])
    assert rc == 0
    assert payload["worst_functional"] <= 1e-10


def test_verify_spinor_small(capsys):
    rc, payload = run_json(capsys, ["verify", "spinor", "--dims", "2,3",
                                    "--points", "50"])
    assert rc == 0
    for row in payload["results"]:
        assert row["max_residual"] <= 1e-10
        assert abs(row["fd_slope"] - 2.0) <= 0.2


def test_verify_curvature_small(capsys):
    rc, payload = run_json(capsys, ["verify", "curvature", "--dims", "4",
                                    "--tensors", "2"])
    assert rc == 0
    assert payload["results"][0]["bbg_residual"] <= 1e-12
    assert payload["results"][0]["det_residual"] <= 1e-12


# ---------------------------------------------------------------------------
# config files

def test_config_file_applies_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nstarts = 2\n# a comment\n")
    rc, payload = run_json(capsys, ["solve", "toy", "--config", str(cfg)])
    assert rc == 0
    assert payload["seed"] == 3
    rc, payload = run_json(capsys, ["solve", "toy", "--config", str(cfg),
                                    "--seed", "5"])
    assert payload["seed"] == 5


def test_config_echo_is_canonical_fixpoint(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\ntol = 1e-9\n")
    rc = run(["solve", "toy", "--config", str(cfg), "--echo-config"])
    assert rc == 0
    first = capsys.readouterr().out
    assert first.startswith("subcommand = solve toy\n")
    echoed = tmp_path / "echoed.cfg"
    echoed.write_text(first)
    rc = run(["solve", "toy", "--config", str(echoed), "--echo-config"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second


def test_runconfig_round_trip():
    cfg = RunConfig("solve torus", {"spin": "0,0", "modes": "8",
                                    "tol": "1e-8", "seed": "7"})
    text = cfg.canonical()
    again = RunConfig.from_text("solve torus", text)
    assert again.canonical() == text
    assert again["modes"] == 8.0
    assert again["seed"] == 7


def test_config_rejects_unknown_key(capsys, tmp_path, no_work):
    # a key of another subcommand is as unknown to solve toy as a made-up one
    cfg = tmp_path / "run.cfg"
    for key, value in (("bogus", "1"), ("modes", "3"), ("spectrum", "1,2"),
                       ("eps_lo", "0.1")):
        cfg.write_text(f"{key} = {value}\n")
        assert_refused(capsys, ["solve", "toy", "--config", str(cfg)],
                       f"unknown config key {key!r} for solve toy")


def test_config_rejects_the_removed_grid_key(capsys, tmp_path, no_work):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 7\n")
    assert_refused(capsys, ["solve", "torus", "--config", str(cfg)],
                   "unknown config key 'grid' for solve torus")


def test_every_config_key_is_an_option():
    # a key that no subcommand takes is a setting nothing can set
    options = set().union(*(c.options for c in _COMMANDS.values()))
    assert set(_TYPES) - {"out_dir"} == options


def test_config_unreadable_is_usage_error(capsys, tmp_path, no_work):
    # a missing file and a file that is not text are malformed config
    binary = tmp_path / "run.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    missing = str(tmp_path / "missing.cfg")
    for path, reason in (
            (missing, f"[Errno 2] No such file or directory: {missing!r}"),
            (binary, "'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte")):
        assert_refused(capsys, ["solve", "toy", "--config", str(path)],
                       f"cannot read config file: {reason}")


def test_config_subcommand_mismatch(capsys, tmp_path, no_work):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subcommand = solve torus\n")
    assert_refused(capsys, ["solve", "toy", "--config", str(cfg)],
                   "config file is for 'solve torus', not 'solve toy'")


def test_runconfig_validates_types():
    with pytest.raises(UsageError):
        RunConfig("solve toy", {"seed": "x"})
    with pytest.raises(UsageError):
        RunConfig("solve toy", {"tol": "-1"})
    with pytest.raises(UsageError):
        RunConfig("solve toy", {"dims": ""})
    with pytest.raises(UsageError, match="at least one entry"):
        RunConfig("verify spinor", {"dims": ""})


def test_solver_failure_echoes_config(capsys, tmp_path):
    # no start converges to tolerance 1e-17, below rounding (the
    # gradient norm stalls near 6e-15): exit 1, with the resolved
    # configuration on stderr to repeat the run
    rc = run(["solve", "torus", "--modes", "1", "--tol", "1e-17",
              "--starts", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["ok"] is False
    assert err["error"].startswith("no start converged to tolerance 1e-17")
    assert err["config"].startswith("subcommand = solve torus\n")
    cfg = tmp_path / "failed.cfg"
    cfg.write_text(err["config"])
    rc = run(["solve", "torus", "--config", str(cfg), "--echo-config"])
    assert rc == 0
    assert capsys.readouterr().out == err["config"]


def test_any_handler_exception_is_a_solver_failure(capsys, monkeypatch):
    # psi0 --m 40 or solve torus --modes 1e4 run out of memory; a handler
    # that raises MemoryError (allocating nothing) stands in for them: exit
    # 1 with the solver-failure document, not a traceback, and the type
    # name as the message where the exception carries none
    def out_of_memory(cfg):
        raise MemoryError()

    monkeypatch.setitem(_COMMANDS, "psi0",
                        _COMMANDS["psi0"]._replace(handler=out_of_memory))
    rc = run(["psi0", "--m", "40"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "MemoryError"
    assert err["ok"] is False
    assert err["config"].startswith("subcommand = psi0\nm = 40\n")


def test_psi0_failure_echoes_config(capsys):
    # at tolerance 1e-30 the residual form's rounding (-2.2e-16) fails
    # find_psi0's ArithmeticError check: exit 1 with the solver-failure
    # document on stderr, not a traceback
    rc = run(["psi0", "--tol", "1e-30"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["ok"] is False
    assert re.fullmatch(r"residual form value \S+ exceeds tolerance",
                        err["error"])
    assert err["config"].startswith("subcommand = psi0\n")


# ---------------------------------------------------------------------------
# documentation

def test_docs_usage_lines_match_table():
    # every `spinlab <sub> [...]` line of the reference names exactly the
    # flags of that subcommand's row, spelled -- + key with _ -> -
    lines = re.findall(r"`spinlab ([^`]*)`", DOCS.read_text())
    usage = {}
    for line in lines:
        name = " ".join(itertools.takewhile(lambda w: w[0] not in "[-",
                                            line.split()))
        usage[name] = set(re.findall(r"--[a-z][a-z-]*", line))
    assert sorted(usage) == sorted(_COMMANDS)
    assert len(lines) == len(_COMMANDS)
    for name, command in _COMMANDS.items():
        flags = {"--" + key.replace("_", "-") for key in command.options}
        assert usage[name] == flags, name


def test_docs_audit_m_ranges_match_table():
    rows = re.findall(r"^\| (\w+) \| (\d+) to (\d+) \|$", DOCS.read_text(),
                      re.MULTILINE)
    assert {audit: (int(lo), int(hi)) for audit, lo, hi in rows} \
        == AUDIT_M_RANGE


# ---------------------------------------------------------------------------
# structured file output

def test_out_dir_writes_csv_with_header(capsys, tmp_path):
    rc, payload = run_json(capsys, ["verify", "clifford", "--m-max", "3",
                                    "--out-dir", str(tmp_path)])
    assert rc == 0
    assert payload["csv"] == ["clifford_residuals.csv"]
    lines = (tmp_path / "clifford_residuals.csv").read_text().splitlines()
    assert lines[0] == "m,anticommutation,antihermiticity"
    assert len(lines) == 3


@pytest.mark.parametrize("via", ["flag", "env"])
def test_unusable_out_dir_is_usage_error_before_any_work(capsys, tmp_path,
                                                         monkeypatch, via):
    # an out-dir that is an existing file cannot be created: exit 2 with
    # one JSON error before the handler runs, whether it comes from
    # --out-dir or SPINLAB_OUT
    calls = []
    toy = _COMMANDS["solve toy"]._replace(handler=calls.append)
    monkeypatch.setitem(_COMMANDS, "solve toy", toy)
    target = tmp_path / "a_file"
    target.write_text("")
    argv = ["solve", "toy"]
    if via == "flag":
        argv += ["--out-dir", str(target)]
    else:
        monkeypatch.setenv("SPINLAB_OUT", str(target))
    assert_refused(capsys, argv, "cannot use output directory: "
                   f"[Errno 17] File exists: {str(target)!r}")
    assert calls == []


def test_env_var_sets_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPINLAB_OUT", str(tmp_path))
    rc, payload = run_json(capsys, ["solve", "torus", "--modes", "1",
                                    "--seed", "2"])
    assert rc == 0
    lines = (tmp_path / "torus_state.csv").read_text().splitlines()
    assert lines[0] == "mode,block,re,im"
    assert len(lines) == 1 + 2 * payload["modes"]


def test_torus_state_csv_writes_no_signed_zero(capsys, tmp_path):
    # at --modes 1 the kernel rows hold the fiber's kernel block, which
    # vanishes up to rounding dust there
    rc = run(["solve", "torus", "--spin", "0,0", "--modes", "1",
              "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = [line.split(",")
            for line in (tmp_path / "torus_state.csv").read_text().splitlines()]
    kernel = [row for row in rows if row[1] == "kernel"]
    assert kernel and all(abs(float(v)) <= 1e-12
                          for row in kernel for v in row[2:])
    assert not any(v.startswith("-0.0") and float(v) == 0.0
                   for row in rows[1:] for v in row[2:])


def test_torus_csv_row_order(capsys, tmp_path):
    # plus rows in basis order, the two kernel rows, then the minus rows
    # with the same labels in the same order
    from spinlab.dirac_torus import build_dirac

    rc, payload = run_json(capsys, ["solve", "torus", "--spin", "0,0",
                                    "--modes", "1", "--out-dir",
                                    str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "torus_state.csv").read_text().splitlines()
    assert lines[0] == "mode,block,re,im"
    rows = [line.split(",")[:2] for line in lines[1:]]
    labels = [f"{k1} {k2}" for k1, k2 in build_dirac(1.0, (0, 0)).modes]
    M = len(labels)
    assert payload["modes"] == M and payload["kernel_dim"] == 2
    assert rows == ([[k, "plus"] for k in labels]
                    + [["0 0", "kernel"]] * 2
                    + [[k, "minus"] for k in labels])


def test_module_invocation_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "spinlab.cli", "verify", "clifford",
         "--m-max", "2"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"] is True


@pytest.mark.parametrize("argv", [
    ["solve", "torus", "--modes", "1.5", "--starts", "1"],
    ["solve", "toy"],
    ["solve", "generic", "--spectrum", "1,0.7,-0.4"],
])
def test_solve_runs_without_scipy(argv):
    # the solver path (fiber CG, the Nehari projection's bracketed Newton)
    # is numpy only
    _assert_runs_without_scipy(argv)


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audits_run_without_scipy(audit):
    # sphere nodes by Golub-Welsch, radial constants in closed form
    _assert_runs_without_scipy(["audit", audit])


def _assert_runs_without_scipy(argv):
    code = ("import sys; from spinlab.cli import run; rc = run(sys.argv[1:]); "
            "print(rc, any(k.startswith('scipy') for k in sys.modules),"
            " file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["0", "False"]
    assert json.loads(out.stdout)["ok"] is True
