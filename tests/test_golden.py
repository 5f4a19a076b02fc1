"""Byte-for-byte regression tests of the CLI's JSON output.

The files under ``tests/golden/`` are the standard output of the listed
commands.  A change that is meant to keep behaviour (a refactor or a speedup)
must leave them identical; a change that alters a report on purpose
regenerates them with ``python3 -m orbsemi.cli <argv> > tests/golden/<file>``.
"""

from pathlib import Path

import pytest

from orbsemi.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("embed_a.json", ["embed", "--ground", "a"]),
    ("embed_a_b.json", ["embed", "--ground", "a,b"]),
    ("embed_a_depth4.json", ["embed", "--ground", "a", "--depth", "4"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
