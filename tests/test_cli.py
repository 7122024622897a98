"""Command line wiring: exit codes, JSON shape, config handling, CSV."""

import itertools
import json
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from spinlab import asymptotics
from spinlab.asymptotics import AUDIT_M_RANGE
from spinlab.cli import _COMMANDS, RunConfig, UsageError, _strict, run

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


# ---------------------------------------------------------------------------
# exit codes

# solve generic has no default spectrum
DEFAULT_EXTRA = {"solve generic": ["--spectrum", "1,0.7,-0.4"]}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_default_run_passes(capsys, monkeypatch, name):
    monkeypatch.delenv("SPINLAB_OUT", raising=False)
    rc, payload = run_strict_json(capsys, name.split()
                                  + DEFAULT_EXTRA.get(name, []))
    assert rc == 0
    assert payload["ok"] is True


def test_verify_clifford_passes(capsys):
    rc, payload = run_json(capsys, ["verify", "clifford", "--m-max", "4"])
    assert rc == 0
    assert payload["ok"] is True
    assert [r["m"] for r in payload["results"]] == [2, 3, 4]
    assert all(r["anticommutation"] <= 1e-12 for r in payload["results"])


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "clifford", "--bogus", "1"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_invalid_value_is_usage_error(capsys):
    rc = run(["psi0", "--m", "0", "--trials", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "positive" in err["error"]


def test_partial_eps_grid_is_usage_error(capsys):
    rc = run(["audit", "residual", "--m", "6", "--eps-lo", "1e-3"])
    assert rc == 2
    assert "eps" in json.loads(capsys.readouterr().err)["error"]


AUDIT_GRID = ["--m", "6", "--eps-hi", "1e-2", "--eps-lo", "1e-3",
              "--eps-count", "4"]


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audit_short_grid_passes(capsys, audit):
    rc, payload = run_strict_json(capsys, ["audit", audit] + AUDIT_GRID)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["eps"] == pytest.approx([10 ** (-2 - k / 3)
                                            for k in range(4)], rel=1e-12)


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


@pytest.mark.parametrize("argv", [
    ["audit", "residual", "--eps-hi", "1e-2", "--eps-lo", "1e-3",
     "--eps-count", "3"],
    ["audit", "energy", "--eps-hi", "1e-2", "--eps-lo", "1e-3",
     "--eps-count", "2"],
    ["audit", "residual", "--m", "3"],
    ["audit", "energy", "--m", "4"],
    ["audit", "rayleigh", "--m", "4"],
    # past the cap the default sphere rule would need gigabytes
    ["audit", "residual", "--m", "10"],
    ["audit", "energy", "--m", "10"],
    ["audit", "rayleigh", "--m", "10"],
])
def test_audit_bad_input_is_usage_error(capsys, argv):
    start = time.perf_counter()
    rc = run(argv)
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2.0
    assert rc == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    if argv[2] == "--m":
        # the library's own message, one text for both
        assert json.loads(captured.err)["error"].endswith(f", got {argv[3]}")


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


def test_solve_generic_needs_spectrum(capsys):
    rc = run(["solve", "generic"])
    assert rc == 2
    assert "spectrum" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv", [
    ["solve", "torus", "--spin", "0.3,0"],
    ["solve", "torus", "--modes", "0.5"],
    ["solve", "torus", "--modes", "2", "--grid", "6"],
    ["solve", "torus", "--modes", "1.5", "--grid", "2"],
    ["solve", "torus", "--modes", "nan"],
    ["solve", "generic", "--spectrum", "1,inf,-1"],
    ["solve", "generic", "--spectrum", "1,nan,-1"],
    ["solve", "generic", "--spectrum", "1,0"],
    ["solve", "generic", "--spectrum", "1,2"],
    ["solve", "generic", "--spectrum", "1"],
])
def test_solve_bad_input_is_usage_error(capsys, argv):
    # a grid must hold 2 nk - 1 points per axis, nk the width of the
    # box of mode labels: 7 at --modes 2 (labels -2..1), 3 at --modes 1.5
    # (labels -1..0)
    start = time.perf_counter()
    rc = run(argv)
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2.0
    assert rc == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


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
                            "spin", "ok"}
    assert isinstance(payload["iterations"], int)
    assert payload["iterations"] >= 1
    assert payload["nehari_scale"] > 0.0


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


def test_config_rejects_unknown_key(capsys, tmp_path):
    # a key of another subcommand is as unknown to solve toy as a made-up one
    cfg = tmp_path / "run.cfg"
    for key, value in (("bogus", "1"), ("modes", "3"), ("spectrum", "1,2"),
                       ("eps_lo", "0.1")):
        cfg.write_text(f"{key} = {value}\n")
        rc = run(["solve", "toy", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert key in json.loads(captured.err)["error"]


def test_config_unreadable_is_usage_error(capsys, tmp_path):
    # a missing file and a file that is not text are malformed config
    binary = tmp_path / "run.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "missing.cfg", binary):
        rc = run(["solve", "toy", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "cannot read config file" in json.loads(captured.err)["error"]


def test_config_subcommand_mismatch(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subcommand = solve torus\n")
    rc = run(["solve", "toy", "--config", str(cfg)])
    assert rc == 2


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


def test_env_var_sets_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPINLAB_OUT", str(tmp_path))
    rc, payload = run_json(capsys, ["solve", "torus", "--modes", "1",
                                    "--seed", "2"])
    assert rc == 0
    lines = (tmp_path / "torus_state.csv").read_text().splitlines()
    assert lines[0] == "mode,block,re,im"
    assert len(lines) == 1 + 2 * payload["modes"]


def test_torus_state_csv_writes_no_signed_zero(capsys, tmp_path):
    # at --modes 1 the kernel projection T(psi) is exactly zero; the kernel
    # rows hold psi - T(psi) on a zero kernel block, which is +0.0
    rc = run(["solve", "torus", "--spin", "0,0", "--modes", "1",
              "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = [line.split(",")
            for line in (tmp_path / "torus_state.csv").read_text().splitlines()]
    kernel = [row for row in rows if row[1] == "kernel"]
    assert kernel and all(row[2:] == ["0.0", "0.0"] for row in kernel)
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
    # the solver path (fiber CG, Nehari Newton and its fallback) is numpy
    # only
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
