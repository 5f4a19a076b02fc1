"""Byte-for-byte regression tests of the CLI's output.

The files under ``tests/golden/`` are the standard output of the listed
commands.  A change that is meant to keep behaviour (a refactor or a speedup)
must leave them identical; a change that alters a report on purpose
regenerates them with ``python3 -m orbsemi.cli <argv> > tests/golden/<file>``.
The failing replay pins the ``repr`` of counterexample tables byte for byte.
The ``eval`` goldens read the input tables under ``tests/golden/tables/``.
"""

from pathlib import Path

import pytest

from orbsemi.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: ``eval`` over a CSV and a JSON table whose atoms need escaping in CSV and
#: JSON (``"``, ``\\``, ``é``) and whose JSON cells include numbers and booleans
EVAL_ARGS = ["--tables", str(GOLDEN / "tables" / "R.csv"), str(GOLDEN / "tables" / "S.json"),
             "--ground", 'a,b,c,q"t,é,1,True,False,2.5,b\\s']
EVAL_CASES = [("join", "R JOIN S"), ("project", "S.project{x3}"), ("top", "TOP"),
              ("bottom", "BOTTOM")]

#: (golden file, argv, expected exit code)
CASES = [
    ("embed_a.json", ["embed", "--ground", "a"], 0),
    ("embed_a_b.json", ["embed", "--ground", "a,b"], 0),
    ("embed_a_depth4.json", ["embed", "--ground", "a", "--depth", "4"], 0),
    ("embed_a_seed3.json", ["embed", "--ground", "a", "--seed", "3"], 0),
    # the whole two-atom signature: 60 terms in 33 classes, tables of many rows
    ("embed_a_b_symbols300.json",
     ["embed", "--ground", "a,b", "--caps", "symbols=300", "--format", "json"], 0),
    # 120 terms up to depth 5, cut by the stratum cap: 14,400 pairs to label
    ("embed_a_depth5_stratum120.json",
     ["embed", "--ground", "a", "--depth", "5", "--caps", "stratum=120"], 0),
    ("check_axioms_a_b_c.json",
     ["check-axioms", "--ground", "a,b,c", "--format", "json"], 0),
    ("check_props_a_b_c.json",
     ["check-props", "--ground", "a,b,c", "--format", "json"], 0),
    ("check_labeling_a_b.json",
     ["check-labeling", "--ground", "a,b", "--format", "json"], 0),
    ("check_axioms_a_b_diag_top_A10.json",
     ["check-axioms", "--ground", "a,b", "--mutate", "diag-top", "--only", "A10",
      "--format", "json"], 1),
    *((f"eval_{name}.{ext}", ["eval", expr, *EVAL_ARGS, "--format", fmt], 0)
      for name, expr in EVAL_CASES
      for fmt, ext in (("grid", "txt"), ("csv", "csv"), ("json", "json"))
      if (name, fmt) != ("bottom", "csv")),  # the empty table has no CSV form
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, code, capsys):
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert out.encode() == (GOLDEN / name).read_bytes()
