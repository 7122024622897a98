"""Show that every output check accepts a true output and rejects a
deliberately perturbed one.

    PYTHONPATH=src python3 bench/selftest.py

Torus checks run on small ground states solved here through the library
(cutoff 2 antiperiodic, cutoff 1 with the kernel); audit and CLI checks
run on synthetic outputs built from the closed forms they test.  Exits 0
when every case behaves, 1 otherwise.
"""

import copy
import math
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(label, fails, should_fail, needle=None):
    ok = bool(fails) == should_fail
    if ok and should_fail and needle:
        ok = any(needle in f for f in fails)
    print(f"{'ok ' if ok else 'BAD'} {label}: {fails[:2] if fails else 'pass'}")
    if not ok:
        FAILURES.append(label)


def _rows(state):
    return [list(r) for r in state.rows()]


def _scale_row(rows, block, index, factor):
    out = copy.deepcopy(rows)
    hits = [r for r in out if r[1] == block]
    hits[index][2] *= factor
    hits[index][3] *= factor
    return out


def torus_cases():
    from spinlab import dirac_torus

    for lam, delta, kernel in ((2.0, (0.5, 0.5), False),
                               (1.0, (0.0, 0.0), True)):
        state = dirac_torus.solve_ground_state(lam, delta, tol=1e-8, seed=0,
                                               starts=1)
        rows, summary = _rows(state), state.summary()
        tag = f"torus lam={lam} delta={delta}"

        def check(r, s=summary):
            return checks.check_torus(r, s, lam, delta, 1e-8, kernel)

        expect(f"{tag} true state", check(rows), False)
        expect(f"{tag} one coefficient off by 1e-4",
               check(_scale_row(rows, "plus", 0, 1.0 + 1e-4)), True,
               "gradient norm")
        expect(f"{tag} missing mode", check(rows[1:]), True, "lattice count")
        wrong = dict(summary, energy=summary["energy"] * (1.0 + 1e-7))
        expect(f"{tag} reported energy off", check(rows, wrong), True,
               "reported energy")
        scaled = [[m, b, 1.001 * re, 1.001 * im] for m, b, re, im in rows]
        expect(f"{tag} state scaled by 1.001", check(scaled), True,
               "quartic/4")
        small = [[m, b, 0.3 * re, 0.3 * im] for m, b, re, im in rows]
        expect(f"{tag} state scaled by 0.3", check(small), True, "one-bubble")
        swapped = [[m, {"plus": "minus", "minus": "plus"}.get(b, b), re, im]
                   for m, b, re, im in rows]
        expect(f"{tag} blocks swapped", check(swapped), True)
        if kernel:
            moved = [[m, b, re + (1e-3 if b == "kernel" else 0.0), im]
                     for m, b, re, im in rows]
            expect(f"{tag} kernel part shifted", check(moved), True,
                   "kernel moment")


def audit_cases():
    eps = np.geomspace(1e-1, 1e-3, 8)
    exps = {"A1": 2.5, "A2": 3.5, "A3": 2.5, "A4": 2.5, "A5": 2.5,
            "A6": 2.5, "total": 2.5}

    def residual_rows(override=None):
        rows = []
        for term, p in dict(exps, **(override or {})).items():
            rows += [(term, e, 3.0 * e ** p) for e in eps]
        return rows

    expect("residual power laws", checks.check_residual(residual_rows()),
           False)
    expect("residual A3 decays at 2.3",
           checks.check_residual(residual_rows({"A3": 2.3})), True, "A3")
    expect("residual A2 at the generic order",
           checks.check_residual(residual_rows({"A2": 2.5})), True, "A2")

    closed = checks.j2_closed_form(6)
    assert abs(closed - 6 ** 6 * math.pi ** 3 / 60.0) <= 1e-9 * closed

    def energy_rows(j1=1e-19, j2=1.0 + 1e-9, j6=(-5.0, 4.0)):
        rows = []
        for e in eps:
            rows += [("J1", e, j1), ("J5", e, -1e-18), ("J7", e, 2e-19),
                     ("J2", e, closed * j2), ("J6", e, j6[0] * e ** j6[1])]
        return rows

    expect("energy closed forms", checks.check_energy(energy_rows()), False)
    expect("energy J1 at 1e-11",
           checks.check_energy(energy_rows(j1=1e-11)), True, "J1")
    expect("energy J2 off by 1e-5",
           checks.check_energy(energy_rows(j2=1.0 + 1e-5)), True, "J2")
    expect("energy J6 at order 3.7",
           checks.check_energy(energy_rows(j6=(-5.0, 3.7))), True, "slope")
    expect("energy J6 positive",
           checks.check_energy(energy_rows(j6=(5.0, 4.0))), True, "negative")


def cli_cases():
    clif = {"results": [{"m": m, "anticommutation": 0.0,
                         "antihermiticity": 0.0} for m in range(2, 10)]}
    expect("verify clifford exact", checks.check_verify(clif, "clifford"),
           False)
    bad = copy.deepcopy(clif)
    bad["results"][3]["anticommutation"] = 1e-11
    expect("verify clifford residual 1e-11",
           checks.check_verify(bad, "clifford"), True, "anticommutation")
    spin = {"results": [{"m": 3, "max_residual": 1e-14, "fd_slope": 2.0}]}
    expect("verify spinor exact", checks.check_verify(spin, "spinor"), False)
    bad = {"results": [{"m": 3, "max_residual": 1e-14, "fd_slope": 1.5}]}
    expect("verify spinor first-order difference",
           checks.check_verify(bad, "spinor"), True, "order")
    curv = {"results": [{"m": 4, "bbg_residual": 1e-15,
                         "binv_residual": 1e-15, "det_residual": 1e-9}]}
    expect("verify curvature det residual 1e-9",
           checks.check_verify(curv, "curvature"), True, "det_residual")
    expect("psi0 zero", checks.check_psi0({"worst_functional": 1e-13}), False)
    expect("psi0 1e-9", checks.check_psi0({"worst_functional": 1e-9}), True)
    expect("toy gamma 1/4", checks.check_gamma({"gamma": 0.25}), False)
    expect("toy gamma off", checks.check_gamma({"gamma": 0.25 + 1e-7}), True)
    spec = run.SPECTRUM
    expect("generic gamma 0.1225",
           checks.check_gamma({"gamma": 0.1225}, spec), False)
    expect("generic gamma of the largest entry",
           checks.check_gamma({"gamma": 0.25}, spec), True)


def identity_cases():
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        recs = []
        for tag, text in (("a", b"{}\n"), ("b", b"{}\n"), ("c", b"{ }\n")):
            d = os.path.join(tmp, tag)
            os.makedirs(os.path.join(d, "csv"))
            with open(os.path.join(d, "stdout"), "wb") as fh:
                fh.write(text)
            recs.append({"op": "x", "dir": d})
        expect("traced output identical",
               run.same_outputs([recs[0]], [recs[1]]), False)
        expect("traced output differs",
               run.same_outputs([recs[0]], [recs[2]]), True, "stdout")


def main():
    audit_cases()
    cli_cases()
    identity_cases()
    torus_cases()
    print(f"{len(FAILURES)} case(s) misbehaved" if FAILURES
          else "every check accepts true outputs and rejects perturbed ones")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
