"""Reading and writing tables.

CSV: header row lists variables (``x1,x2``), body rows list atoms; blank lines
are skipped, except after an empty header, where a blank line is the empty row.
JSON: ``{"schema": ["x1", "x2"], "rows": [["a", "b"]]}``; the empty table is
``{"schema": "ALL", "rows": []}``.  Each row is a list, and each cell a
string, number or boolean.  The ground set is the one given, else the atoms
that the table holds, so a table with no atom needs a given ground set.

Rows are loaded and printed in bulk, by set operations, ``map`` and one ``%``
template per row over all cells; only a bad row is looked for one row at a
time.  JSON strings are escaped by the C escaper of ``json``.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .tables import Table, _picker, _table
from .transforms import parse_var, schema_is_all, var_name
from .tuples import NTuple


def _cells(T: Table) -> list:
    """Each row's atom texts, in column order: a row's pairs are sorted by variable."""
    return [[str(a) for _, a in r] for r in T.sorted_rows()]


def table_to_json(T: Table) -> dict:
    if schema_is_all(T.schema):
        return {"schema": "ALL", "rows": []}
    return {
        "schema": [var_name(c) for c in sorted(T.schema)],
        "rows": _cells(T),
    }


def _json_list(items: list, indent: int) -> str:
    """The text of a JSON list whose items are the texts ``items``, laid out as
    ``json.dumps(..., indent=2)`` lays it out at ``indent`` spaces."""
    if not items:
        return "[]"
    inner = " " * (indent + 2)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{' ' * indent}]"


def json_text(data: dict) -> str:
    """``json.dumps(data, indent=2)`` of a ``table_to_json`` dict, with every
    row written through one template of ``%s`` slots."""
    schema, rows = data["schema"], data["rows"]
    row = _json_list(["%s"] * len(rows[0]), 4) if rows else ""
    rows = _json_list([row % tuple(map(encode_basestring_ascii, r)) for r in rows], 2)
    schema = (encode_basestring_ascii(schema) if schema == "ALL"
              else _json_list(list(map(encode_basestring_ascii, schema)), 2))
    return f'{{\n  "schema": {schema},\n  "rows": {rows}\n}}'


def _table_from_cells(names: list, cells, ground, what: str) -> Table:
    """The table whose columns are the variables ``names`` and whose rows are
    the lists ``cells``; ``what`` names the column list in error messages."""
    cols = [parse_var(v) for v in names]
    if len(set(cols)) != len(cols):
        raise ValueError(f"{what} {names} names a variable twice")
    cells = list(cells)
    if set(map(len, cells)) - {len(cols)}:
        bad = next(raw for raw in cells if len(raw) != len(cols))
        raise ValueError(f"row {bad} does not match {what} {names}")
    atoms = set(chain.from_iterable(cells))
    if set(map(type, atoms)) - {str}:  # a JSON number or boolean
        cells = [list(map(str, raw)) for raw in cells]
        atoms = set(chain.from_iterable(cells))
    # a row's pairs are its cells picked in sorted column order, so they are
    # sorted and functional as NTuple requires
    order, pick = sorted(cols), _picker(sorted(range(len(cols)), key=cols.__getitem__))
    rows = frozenset(map(NTuple.trusted, map(zip, repeat(order), map(pick, cells))))
    if ground is None:
        if not atoms:
            raise ValueError("a table with no atom needs a ground set")
        ground = atoms
    ground = frozenset(ground)
    if not atoms <= ground:
        raise ValueError(f"atoms {sorted(atoms - ground)} outside ground set")
    if not rows or not ground:  # from_rows gives ALL to no rows, rejects no ground
        return Table.from_rows(ground, rows)
    return _table(ground, frozenset(cols), rows)


def table_from_json(data: dict, ground=None) -> Table:
    if not (isinstance(data, dict) and "schema" in data and "rows" in data):
        raise ValueError('a JSON table must be an object with "schema" and "rows"')
    schema, rows = data["schema"], data["rows"]
    if schema != "ALL" and not (isinstance(schema, list)
                                and all(isinstance(v, str) for v in schema)):
        raise ValueError(f'schema must be "ALL" or a list of variable names, not {schema!r}')
    if not isinstance(rows, list):
        raise ValueError(f"rows must be a list of rows, not {rows!r}")
    if (set(map(type, rows)) - {list}
            or set(map(type, chain.from_iterable(rows))) - {str, int, float, bool}):
        for row in rows:  # name the first bad row or cell; a subclass is fine
            if not isinstance(row, list):
                raise ValueError(f"row {row!r} is not a list of cells")
            for a in row:
                if not isinstance(a, (str, int, float)):  # bool is an int
                    raise ValueError(f"cell {a!r} in row {row} is not a string, number or boolean")
    if schema == "ALL":
        if rows:
            raise ValueError("ALL-schema table must have no rows")
        schema = []  # no columns and no rows: the loader gives schema ALL
    return _table_from_cells(schema, rows, ground, "schema")


def table_to_csv(T: Table) -> str:
    if schema_is_all(T.schema):
        raise ValueError("the empty table has no CSV form; use JSON")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([var_name(c) for c in sorted(T.schema)])
    w.writerows(_cells(T))
    return buf.getvalue()


def table_from_csv(text: str, ground=None) -> Table:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV input")
    rows = reader if not header else filter(None, reader)
    return _table_from_cells(header, rows, ground, "header")


def load_table(path: str, ground=None) -> Table:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return table_from_json(json.loads(text), ground=ground)
    return table_from_csv(text, ground=ground)


def table_to_grid(T: Table) -> str:
    """Human-readable text grid, rows in canonical order."""
    if schema_is_all(T.schema):
        return "(empty table, schema ALL)"
    cols = sorted(T.schema)
    if not cols:
        return "(top table: one empty row)"
    header = [var_name(c) for c in cols]
    body = _cells(T)
    widths = [max(map(len, col)) for col in zip(header, *body)]
    line = " | ".join(f"%-{w}s" for w in widths)
    return "\n".join([line % tuple(header), "-+-".join("-" * w for w in widths),
                      *map(line.__mod__, map(tuple, body))])
