import csv
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from orbsemi.cli import main
from orbsemi.tableio import (
    json_text,
    load_table,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_grid,
    table_to_json,
)
from orbsemi.tables import Table, all_rows, bottom, top
from orbsemi.transforms import parse_var, schema_is_all
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


def test_csv_top_and_bottom_tables():
    # JSON round trips of both are in the two tests above; the bottom table
    # has no CSV form (test_csv_empty_rejected)
    assert table_to_csv(top(G)) == "\n\n"  # an empty header, then the one empty row
    assert table_from_csv(table_to_csv(top(G)), ground=G) == top(G)
    assert table_from_csv("\n", ground=G) == bottom(G)  # an empty header alone


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


def _load(fmt, header, rows, ground=None):
    """The table that the CSV or JSON loader reads from ``header`` and ``rows``."""
    if fmt == "csv":
        text = "".join(",".join(r) + "\n" for r in [header, *rows])
        return table_from_csv(text, ground=ground)
    return table_from_json({"schema": header, "rows": rows}, ground=ground)


# (header, rows, ground, error text); "{what}" is "header" for CSV and "schema"
# for JSON
LOADER_ERRORS = [
    (["x1", "x2", "x1"], [["a", "b", "a"]], None,
     "{what} ['x1', 'x2', 'x1'] names a variable twice"),
    (["x1", "y1"], [["a", "b"]], None, "not a variable: 'y1'"),
    (["x0"], [["a"]], None, "not a variable: 'x0'"),
    (["x1", "x2"], [["a"]], None, "row ['a'] does not match {what} ['x1', 'x2']"),
    (["x1", "x2"], [["a", "b", "c"]], None,
     "row ['a', 'b', 'c'] does not match {what} ['x1', 'x2']"),
    (["x2", "x1"], [["z", "b"], ["c", "y"]], G, "atoms ['c', 'y', 'z'] outside ground set"),
    # two faults in one input: the one listed first here wins
    (["x1", "y1", "x1"], [["a"]], None, "not a variable: 'y1'"),
    (["x1", "x1"], [["a"]], None, "{what} ['x1', 'x1'] names a variable twice"),
    (["x1", "x2"], [["z", "z"], ["a"]], G, "row ['a'] does not match {what} ['x1', 'x2']"),
    (["x1"], [["a"]], frozenset(), "atoms ['a'] outside ground set"),
    ([], [[]], frozenset(), "ground set must be nonempty"),
    (["x1"], [], frozenset(), "ground set must be nonempty"),
    # no atom to take the ground from: the top table and a header alone
    ([], [[]], None, "a table with no atom needs a ground set"),
    (["x2", "x1"], [], None, "a table with no atom needs a ground set"),
    (["x1", "y1"], [], None, "not a variable: 'y1'"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, rows, ground, text", LOADER_ERRORS)
def test_loader_error_text(fmt, header, rows, ground, text):
    with pytest.raises(ValueError) as err:
        _load(fmt, header, rows, ground)
    assert str(err.value) == text.format(what="header" if fmt == "csv" else "schema")


_OBJECT = 'a JSON table must be an object with "schema" and "rows"'
_CELL = "is not a string, number or boolean"

# (JSON document, error text); a fault of shape wins over the ALL rule
JSON_SHAPE_ERRORS = [
    ([], _OBJECT),
    ({"rows": []}, _OBJECT),
    ({"schema": ["x1"]}, _OBJECT),
    ({"schema": "x1", "rows": []},
     "schema must be \"ALL\" or a list of variable names, not 'x1'"),
    ({"schema": ["x1", 2], "rows": []},
     "schema must be \"ALL\" or a list of variable names, not ['x1', 2]"),
    ({"schema": ["x1"], "rows": {"a": 1}}, "rows must be a list of rows, not {'a': 1}"),
    ({"schema": ["x1", "x2"], "rows": ["ba"]}, "row 'ba' is not a list of cells"),
    ({"schema": ["x1"], "rows": [["a"], [["a"]]]}, f"cell ['a'] in row [['a']] {_CELL}"),
    ({"schema": ["x1"], "rows": [[{"a": 1}]]}, f"cell {{'a': 1}} in row [{{'a': 1}}] {_CELL}"),
    ({"schema": ["x1", "x2"], "rows": [["a", None]]}, f"cell None in row ['a', None] {_CELL}"),
    ({"schema": "ALL", "rows": [[None]]}, f"cell None in row [None] {_CELL}"),
]


@pytest.mark.parametrize("data, text", JSON_SHAPE_ERRORS)
def test_json_shape_error_text(data, text, tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        table_from_json(data)
    assert str(err.value) == text
    path = tmp_path / "X.json"
    path.write_text(json.dumps(data))
    assert main(["eval", "X", "--tables", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


def test_ground_validation():
    with pytest.raises(ValueError) as err:
        table_from_json({"schema": ["x1"], "rows": [["z"]]}, ground=G)
    assert str(err.value) == "atoms ['z'] outside ground set"
    with pytest.raises(ValueError) as err:
        table_from_json({"schema": "ALL", "rows": [["a"]]}, ground=G)
    assert str(err.value) == "ALL-schema table must have no rows"
    with pytest.raises(ValueError) as err:
        table_from_csv("")
    assert str(err.value) == "empty CSV input"


@pytest.mark.parametrize("name, text", [
    ("TOPT.csv", "\n\n"),
    ("HDR.csv", "x1,x2\n"),
    ("E.json", '{"schema": "ALL", "rows": []}'),
])
def test_table_with_no_atom_needs_a_ground(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    stem = name.split(".")[0]
    assert main(["eval", f"{stem} JOIN DIAG(x1,x2)", "--tables", str(path)]) == 2
    assert capsys.readouterr().err == "error: a table with no atom needs a ground set\n"
    assert main(["eval", f"{stem} JOIN DIAG(x1,x2)", "--tables", str(path),
                 "--ground", "a,b"]) == 0
    assert "?" not in capsys.readouterr().out


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
def small_tables(draw, atoms=st.sampled_from("abc")):
    """Bottom, top, or any row set of a schema inside {x1,x2,x3} over at most
    three ``atoms``."""
    ground = frozenset(draw(st.sets(atoms, min_size=1, max_size=3)))
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
    assert table_from_json(data, ground=t.ground) == t
    assert table_from_csv(table_to_csv(t), ground=t.ground) == t
    cells = reference_cells(t)
    header = [f"x{c}" for c in sorted(t.schema)]
    assert data == {"schema": header, "rows": cells}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *cells])
    assert table_to_csv(t) == buf.getvalue()
    if t.schema:
        body = table_to_grid(t).splitlines()[2:]
        assert [[cell.strip() for cell in line.split(" | ")] for line in body] == cells


def reference_grid(T):
    """The grid with each cell padded on its own by ``ljust``."""
    if schema_is_all(T.schema):
        return "(empty table, schema ALL)"
    if not T.schema:
        return "(top table: one empty row)"
    header = [f"x{c}" for c in sorted(T.schema)]
    body = reference_cells(T)
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(header)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths)),
             "-+-".join("-" * w for w in widths)]
    for row in body:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


#: atoms that the JSON writer must escape (a quote, a backslash, controls,
#: non-ASCII and a character outside the BMP) or that a ``%`` template could
#: misread, besides any short text
_AWKWARD_ATOMS = st.sampled_from(['q"t', "b\\s", "é", "\n", "\x00", "\u2028", "\U0001f4a1",
                                  "%s", "%", ""]) | st.text(max_size=3)


@given(small_tables(_AWKWARD_ATOMS))
def test_bulk_writers_match_json_dumps_and_ljust(t):
    data = table_to_json(t)
    assert json_text(data) == json.dumps(data, indent=2)
    assert table_to_grid(t) == reference_grid(t)


def reference_table_from_cells(names, cells, ground, what):
    """The loader's table built row by row: each row an ``NTuple.of``, the
    table through the validating ``Table.from_rows``."""
    cols = [parse_var(v) for v in names]
    if len(set(cols)) != len(cols):
        raise ValueError(f"{what} {names} names a variable twice")
    rows = set()
    for raw in cells:
        if len(raw) != len(cols):
            raise ValueError(f"row {raw} does not match {what} {names}")
        rows.add(NTuple.of(zip(cols, map(str, raw))))
    atoms = {a for r in rows for a in r.rng}
    if ground is not None:
        ground = frozenset(ground)
        if not atoms <= ground:
            raise ValueError(f"atoms {sorted(atoms - ground)} outside ground set")
    elif atoms:
        ground = frozenset(atoms)
    else:
        raise ValueError("a table with no atom needs a ground set")
    return Table.from_rows(ground, rows)


def _outcome(load):
    try:
        return load()
    except ValueError as err:
        return f"ValueError: {err}"


@st.composite
def loader_inputs(draw):
    """A format, a header (in any order, sometimes with a repeated or bad
    variable), rows of mostly the header's width, and a ground or None."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    names = draw(st.lists(st.sampled_from(["x3", "x1", "x2", "x10"] * 6 + ["x0", "y1"]),
                          max_size=3))
    atom = st.sampled_from(["a", "b", "1"])
    if fmt == "json":
        atom = atom | st.sampled_from([1, 2.5, True])
    width = st.sampled_from([len(names)] * 8 + [len(names) + 1, max(len(names) - 1, 0)])
    rows = draw(st.lists(width.flatmap(lambda w: st.lists(atom, min_size=w, max_size=w)),
                         max_size=6))
    ground = draw(st.none() | st.frozensets(st.sampled_from(["a", "b", "1", "2.5"])))
    return fmt, names, rows, ground


@given(loader_inputs())
@example(("csv", ["x3", "x1"], [["a", "b"], ["b", "a"], ["a", "b"]], None))
@example(("json", ["x3", "x1"], [["a", 1], [2.5, "b"], ["a", 1]], frozenset({"a", "b", "1", "2.5"})))
@example(("json", [], [[], []], None))
@example(("csv", [], [[], []], None))
@example(("json", [], [[]], frozenset({"a"})))
@example(("csv", ["x2", "x1"], [], None))
@example(("csv", ["x2", "x1"], [], frozenset({"a"})))
def test_loader_matches_the_per_row_reference(args):
    fmt, names, rows, ground = args
    if fmt == "csv":
        text = "".join(",".join(r) + "\n" for r in [names, *rows])
        header, *body = csv.reader(io.StringIO(text))
        got = _outcome(lambda: table_from_csv(text, ground=ground))
        # blank lines are skipped, except after an empty header: there each
        # is the empty row
        want = _outcome(lambda: reference_table_from_cells(
            header, [r for r in body if r or not header], ground, "header"))
    else:
        data = {"schema": names, "rows": rows}
        got = _outcome(lambda: table_from_json(data, ground=ground))
        want = _outcome(lambda: reference_table_from_cells(names, rows, ground, "schema"))
    assert got == want
