"""Byte-for-byte golden reports: refactors must not change what users see.

Each file under tests/golden/ is the stdout of one command line, written by
`python -m cubicperiods.cli <argv> > tests/golden/<name>`.  A change to any
of these bytes is a change to the reports and must be made on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicperiods.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "table.json": ["table", "--format", "json"],
    "table.csv": ["table", "--format", "csv"],
    "table.md": ["table", "--format", "md"],
    "verify-7.json": ["verify", "--conductor", "7", "--format", "json"],
    "verify-9.json": ["verify", "--conductor", "9", "--format", "json"],
    "verify-63.json": ["verify", "--conductor", "63", "--format", "json"],
    "verify-819.json": ["verify", "--conductor", "819", "--format", "json"],
    "verify-15561.json": ["verify", "--conductor", "15561", "--format", "json"],
    "verify-819.csv": ["verify", "--conductor", "819", "--format", "csv"],
    "verify-819.md": ["verify", "--conductor", "819", "--format", "md"],
    "enumerate-819.md": ["enumerate", "--conductor", "819", "--format", "md"],
    "enumerate-14165638864191.md": [
        "enumerate", "--conductor", "14165638864191", "--format", "md"
    ],
    "scan-1-2000.csv": ["scan", "--min", "1", "--max", "2000", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_verify_bytes_unchanged_under_python_O():
    # python -O strips assert statements: the same bytes prove that no check
    # of the verifier is an assert
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["verify", "--conductor", "15561", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cubicperiods.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "verify-15561.json").read_bytes()
