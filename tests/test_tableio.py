import csv
import io
import json

import pytest
from hypothesis import given, strategies as st

from orbsemi.tableio import (
    load_table,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_grid,
    table_to_json,
)
from orbsemi.tables import Table, all_rows, bottom, top
from orbsemi.tuples import NTuple

G = frozenset({"a", "b"})


def T(*rows):
    return Table.from_rows(G, {NTuple.of(r) for r in rows})


def test_json_roundtrip():
    t = T({1: "a", 2: "b"}, {1: "b", 2: "a"})
    assert table_from_json(table_to_json(t)) == t


def test_json_empty_table():
    data = table_to_json(bottom(G))
    assert data == {"schema": "ALL", "rows": []}
    assert table_from_json(data, ground=G) == bottom(G)
    with pytest.raises(ValueError):
        table_from_json({"schema": "ALL", "rows": [["a"]]})


def test_json_top_table():
    t = top(G)
    assert table_to_json(t) == {"schema": [], "rows": [[]]}
    assert table_from_json(table_to_json(t), ground=G) == t


def test_csv_roundtrip():
    t = T({1: "a", 3: "b"})
    text = table_to_csv(t)
    assert text.splitlines()[0] == "x1,x3"
    assert table_from_csv(text, ground=G) == t


def test_csv_empty_rejected():
    with pytest.raises(ValueError):
        table_to_csv(bottom(G))
    with pytest.raises(ValueError):
        table_from_csv("")


def test_variable_named_twice_rejected():
    with pytest.raises(ValueError, match="names a variable twice"):
        table_from_csv("x1,x2,x1\na,b,a\n")
    with pytest.raises(ValueError, match="names a variable twice"):
        table_from_json({"schema": ["x2", "x2"], "rows": [["a", "a"]]})


def test_ground_validation():
    with pytest.raises(ValueError):
        table_from_json({"schema": ["x1"], "rows": [["z"]]}, ground=G)


def test_load_table(tmp_path):
    t = T({1: "a"}, {1: "b"})
    p = tmp_path / "t.json"
    p.write_text(json.dumps(table_to_json(t)))
    assert load_table(str(p), ground=G) == t
    c = tmp_path / "t.csv"
    c.write_text(table_to_csv(t))
    assert load_table(str(c), ground=G) == t


def test_grid_output():
    grid = table_to_grid(T({1: "a", 2: "b"}))
    assert grid.splitlines()[0].split("|")[0].strip() == "x1"
    assert "a" in grid
    assert table_to_grid(bottom(G)).startswith("(empty")
    assert table_to_grid(top(G)).startswith("(top")


@st.composite
def small_tables(draw):
    """Bottom, top, or any row set of a schema inside {x1,x2,x3} over at most
    three atoms."""
    ground = frozenset(draw(st.sets(st.sampled_from("abc"), min_size=1, max_size=3)))
    rows = list(all_rows(ground, draw(st.sets(st.integers(1, 3), max_size=3))))
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return Table.from_rows(ground, [r for r, k in zip(rows, keep) if k])


def reference_cells(T):
    """Each row's atom at each column, looked up one cell at a time."""
    cols = sorted(T.schema)
    return [[str(r(c)) for c in cols] for r in T.sorted_rows()]


@given(small_tables())
def test_writers_match_per_cell_reference(t):
    data = table_to_json(t)
    if not t.rows:
        assert data == {"schema": "ALL", "rows": []}
        return
    cells = reference_cells(t)
    header = [f"x{c}" for c in sorted(t.schema)]
    assert data == {"schema": header, "rows": cells}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *cells])
    assert table_to_csv(t) == buf.getvalue()
    if t.schema:
        body = table_to_grid(t).splitlines()[2:]
        assert [[cell.strip() for cell in line.split(" | ")] for line in body] == cells
