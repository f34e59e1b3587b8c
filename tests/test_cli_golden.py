"""CLI outputs against golden files: every call listed in
tests/data/cli_golden/commands.txt must print the same bytes and exit with
the same code.  Run this file as a script with --regenerate to rewrite the
outputs from the current code."""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dualdeg.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"
MANIFEST = GOLDEN / "commands.txt"


def read_manifest():
    """The listed calls as (name, exit code, argv), in file order."""
    calls = []
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, code, *argv = line.split()
        calls.append((name, int(code), argv))
    return calls


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


@pytest.mark.parametrize(
    "name, code, argv", [pytest.param(*call, id=call[0]) for call in read_manifest()]
)
def test_cli_output_matches_golden(name, code, argv):
    got_code, got = run(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_bytes()


def regenerate():
    header, body = [], []
    for line in MANIFEST.read_text().splitlines():
        (header if line.startswith("#") or not line.strip() else body).append(line)
    lines = list(header)
    for name, _, argv in read_manifest():
        code, out = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        lines.append(" ".join([name, str(code), *argv]))
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    regenerate()
