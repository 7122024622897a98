"""Write the golden stdout of every subcommand's default run.

Each file ``<subcommand with _ for space>.json`` holds the exact stdout of
``spinlab <subcommand>`` at its defaults (``solve generic`` with the
spectrum ``test_cli.DEFAULT_EXTRA`` gives it), with ``SPINLAB_OUT`` unset.
Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

The runs are deterministic, so a second run rewrites the files bit for
bit; ``test_default_run_passes`` compares each payload with its file.
"""

import contextlib
import io
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from spinlab.cli import _COMMANDS, run  # noqa: E402
from test_cli import DEFAULT_EXTRA  # noqa: E402


def main():
    os.environ.pop("SPINLAB_OUT", None)
    for name in _COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run(name.split() + DEFAULT_EXTRA.get(name, []))
        if rc != 0:
            raise SystemExit(f"{name}: exit {rc}")
        (HERE / (name.replace(" ", "_") + ".json")).write_text(out.getvalue())


if __name__ == "__main__":
    main()
