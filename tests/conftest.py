"""Golden payloads of CLI runs, shared by the CLI and acceptance tests.

``tests/golden/<stem>.json`` holds the stdout of one run, which
``PYTHONPATH=src python3 tests/golden/regenerate.py`` rewrites.
"""

import json
import math
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# The comparison rule of a payload with its golden: keys, list lengths,
# ints, bools, strings and nulls match exactly; floats match to 1e-12
# relative, except the floats that are rounding error, which match to
# 1e-12 absolute.  Those are named here by their path of dict keys (list
# positions left out), each covering everything below it.
ROUNDING = ("results.anticommutation", "results.antihermiticity",
            "results.max_residual", "results.bbg_residual",
            "results.binv_residual", "results.det_residual",
            "worst_functional", "pointwise_zero_max", "J2.rel_err",
            "den_rel_err", "grad_norm")


def assert_matches_golden(got, want, path=""):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key],
                                  f"{path}.{key}" if path else key)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for g, w in zip(got, want):
            assert_matches_golden(g, w, path)
    elif isinstance(want, float):
        if any(path == r or path.startswith(r + ".") for r in ROUNDING):
            assert abs(got - want) <= 1e-12, (path, got, want)
        else:
            assert math.isclose(got, want, rel_tol=1e-12), (path, got, want)
    else:
        assert got == want, path


@pytest.fixture
def matches_golden(monkeypatch):
    """``matches_golden(stem, payload)`` asserts that ``payload`` matches
    ``<stem>.json`` by the rule above.  The goldens hold runs without
    ``SPINLAB_OUT``, so the fixture unsets it."""
    monkeypatch.delenv("SPINLAB_OUT", raising=False)

    def check(stem, payload):
        assert_matches_golden(payload, json.loads(
            (GOLDEN / f"{stem}.json").read_text()))
    return check
