"""Byte-for-byte golden reports: refactors must not change what users see.

Each file under tests/golden/ is the stdout of one command line, written by
`python -m cubicperiods.cli <argv> > tests/golden/<name>`.  A change to any
of these bytes is a change to the reports and must be made on purpose.
"""

from pathlib import Path

import pytest

from cubicperiods.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
    "scan-1-2000.csv": ["scan", "--min", "1", "--max", "2000", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
