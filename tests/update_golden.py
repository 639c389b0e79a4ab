"""The frozen CLI outputs under tests/golden/: the command list, how one
command is run, and, run as a script, the rewrite of every expected file.

    PYTHONPATH=src python tests/update_golden.py

Each command runs through `cli.main` in process, in a fresh directory, so the
relative `--out` path that its envelope echoes is the same everywhere. A
command's stdout goes to `<name>.out` and its table, if it writes one, to
`<name>.csv`. tests/test_golden.py compares every command with its files;
tests/golden/README.md says how.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from bosemilne import cli

GOLDEN = Path(__file__).with_name("golden")
TABLE = "table.csv"
# the benchmark's incoming-direction grid (its mu ends fixed) and its
# emergent distribution
GRID = ["--grid-x", "0:20:31", "--grid-mu", "0.01:0.97:33"]
EMERGENT = ["--grid-x", "0:0:1", "--grid-mu=-1:0:21"]


def _commands() -> dict[str, tuple[list[str], int]]:
    """{name: (argv, exit code)} of every frozen output."""
    out = ["--out", TABLE]
    commands = {f"v1-{a}": (["v1", "--alpha", a], 0) for a in ("0", "0.5", "1", "1.25", "2")}
    commands.update({f"dispersion-{a}": (["dispersion", "--alpha", a, *out], 0)
                     for a in ("0", "0.5", "1")})
    for a in ("0", "0.5", "1", "1.25"):
        commands[f"profile-{a}-grid"] = (["profile", "--alpha", a, *GRID, *out], 0)
        commands[f"profile-{a}-emergent"] = (["profile", "--alpha", a, *EMERGENT, *out], 0)
    # its rows take the continuum's fine pass
    commands["profile-0.25-grid"] = (["profile", "--alpha", "0.25", *GRID, *out], 0)
    commands.update({f"oracle-{a}": (["oracle", "--alpha", a], 0) for a in ("0", "0.5", "1")})
    commands["validate"] = (["validate"], 1)  # criterion 5 fails as stated
    return commands


COMMANDS = _commands()


def run(argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, stdout, table text or None) of one command, run in a fresh directory."""
    stdout, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            table = Path(TABLE).read_text() if Path(TABLE).exists() else None
        finally:
            os.chdir(cwd)
    return code, stdout.getvalue(), table


def main() -> int:
    for name, (argv, want) in COMMANDS.items():
        code, out, table = run(argv)
        if code != want:
            print(f"{name}: exit code {code}, expected {want}", file=sys.stderr)
            return 1
        (GOLDEN / f"{name}.out").write_text(out, newline="\n")
        if table is not None:
            (GOLDEN / f"{name}.csv").write_text(table, newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
