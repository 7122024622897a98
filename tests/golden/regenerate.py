"""Write the golden stdout of every subcommand's default run.

Each file ``<subcommand with _ for space>.json`` holds the exact stdout of
``spinlab <subcommand>`` at its defaults (``solve generic`` with the
spectrum ``test_cli.DEFAULT_EXTRA`` gives it), and ``<stem>.json`` the
stdout of each further run in ``test_cli.GOLDEN_RUNS``, all with
``SPINLAB_OUT`` unset.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

The runs are deterministic, so a second run rewrites the files bit for
bit; ``test_default_run_passes`` and ``test_golden_run_matches`` compare
each payload with its file.
"""

import contextlib
import io
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from spinlab.cli import _COMMANDS, run  # noqa: E402
from test_cli import DEFAULT_EXTRA, GOLDEN_RUNS  # noqa: E402


def main():
    os.environ.pop("SPINLAB_OUT", None)
    runs = {name.replace(" ", "_"): name.split() + DEFAULT_EXTRA.get(name, [])
            for name in _COMMANDS}
    for stem, argv in {**runs, **GOLDEN_RUNS}.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run(argv)
        if rc != 0:
            raise SystemExit(f"{stem}: exit {rc}")
        (HERE / (stem + ".json")).write_text(out.getvalue())


if __name__ == "__main__":
    main()
