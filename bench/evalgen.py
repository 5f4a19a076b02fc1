"""Seeded inputs and the independent reference for the eval-requests workload.

Nothing here imports orbsemi.  Tables are written in the CSV and JSON
formats that README documents, expressions are generated as text in the
expression language, and each request's answer is computed by a naive
nested-loop evaluator over plain Python tuples.  The program's output is
parsed back from the grid, CSV or JSON text and compared with that answer.
Only a digest of each answer is kept, so the answers add little to the
benchmark's own memory.

A reference table is ``(cols, rows)``: ``cols`` a sorted tuple of variable
indices and ``rows`` a frozenset of atom tuples aligned with ``cols``.  The
empty table (schema ALL) is ``None``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

ATOMS = ("a", "b", "c", "d", "e", "f", "g", "h")
VARS = (1, 2, 3, 4, 5)
N_TABLES = 12
#: fraction of the len(ATOMS) ** width possible rows each table holds, by
#: width; about 40, 140 and 290 rows.  Widths and densities are fixed so that
#: a seed changes which rows and columns a table has, not how much work it is.
DENSITY = {2: 0.65, 3: 0.27, 4: 0.07}
#: expressions whose reference evaluation exceeds these are redrawn, which
#: keeps a request in the tens of milliseconds
MAX_ROWS = 1500
MAX_PAIRS = 150_000
FORMATS = ("grid", "csv", "json")
#: A request's estimated work: the rows of the tables it loads, plus
#: COST_JOINED per row out of a join and COST_SCANNED per row a project or
#: rename maps.  The weights are a least-squares fit of per-request times.
COST_JOINED = 0.8
COST_SCANNED = 0.2
#: Upper edges of 20 bins of estimated cost, the 5% quantiles of the drawn
#: requests over many seeds.  A seed's requests fill every bin equally, so
#: a seed changes which requests run, but hardly their total work or the
#: shape of its tail.
COST_EDGES = (130, 243, 296, 367, 438, 492, 538, 586, 647, 704,
              765, 832, 904, 980, 1079, 1199, 1335, 1499, 1828)


@dataclass(frozen=True)
class Request:
    text: str
    tables: tuple  # names of the tables the expression references
    fmt: str
    expected: str  # digest() of the reference table
    cost: float  # estimated work, in rows loaded (see COST_EDGES)


def digest(value) -> str:
    """A reference table's digest, independent of row order."""
    cols, rows = value if value is not None else ((), ())
    return hashlib.sha256(repr((value is None, cols, sorted(rows))).encode()).hexdigest()


def _var(i):
    return f"x{i}"


# ---------------------------------------------------------------------------
# Tables


def make_tables(rng: random.Random) -> dict:
    """name -> reference table, every one nonempty."""
    out = {}
    for k in range(N_TABLES):
        width = 2 + k % 3
        cols = tuple(sorted(rng.sample(VARS, width)))
        p = DENSITY[width]
        rows = frozenset(r for r in itertools.product(ATOMS, repeat=width)
                         if rng.random() < p)
        out[f"T{k}"] = (cols, rows)
    return out


def write_tables(tables: dict, directory: Path) -> dict:
    """Write even-numbered tables as CSV, odd ones as JSON; name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (cols, rows) in tables.items():
        header = [_var(c) for c in cols]
        body = sorted(rows)
        if int(name[1:]) % 2 == 0:
            path = directory / f"{name}.csv"
            lines = [",".join(header)] + [",".join(r) for r in body]
            path.write_text("\n".join(lines) + "\n")
        else:
            path = directory / f"{name}.json"
            path.write_text(json.dumps({"schema": header,
                                        "rows": [list(r) for r in body]}))
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# Naive reference evaluator


class TooLarge(Exception):
    pass


def ref_join(A, B, budget):
    if A is None or B is None:
        return None
    ca, ra = A
    cb, rb = B
    budget[0] -= len(ra) * len(rb)
    if budget[0] < 0:
        raise TooLarge
    shared = [(ca.index(v), cb.index(v)) for v in ca if v in cb]
    extra = [(v, cb.index(v)) for v in cb if v not in ca]
    cols = tuple(sorted(ca + tuple(v for v, _ in extra)))
    order = [("a", ca.index(v)) if v in ca else ("b", cb.index(v)) for v in cols]
    keyed_b = [(tuple(r2[j] for _, j in shared), r2) for r2 in rb]
    out = set()
    for r1 in ra:
        k1 = tuple(r1[i] for i, _ in shared)
        for k2, r2 in keyed_b:
            if k1 == k2:
                out.add(tuple(r1[i] if side == "a" else r2[i] for side, i in order))
    if len(out) > MAX_ROWS:
        raise TooLarge
    return (cols, frozenset(out)) if out else None


def ref_act(A, lam: dict):
    """A . lam with lam a dict new_var -> old_var: (t . lam)(y) = t(lam(y))."""
    if A is None:
        return None
    ca, ra = A
    cols = tuple(sorted(y for y, z in lam.items() if z in ca))
    src = [ca.index(lam[y]) for y in cols]
    return (cols, frozenset(tuple(r[i] for i in src) for r in ra))


def ref_diag(x, y):
    if x == y:
        return ((x,), frozenset((g,) for g in ATOMS))
    return (tuple(sorted((x, y))), frozenset((g, g) for g in ATOMS))


# ---------------------------------------------------------------------------
# Expressions


def _term(rng, tables, names_used, cols_so_far):
    """One term of a join chain, as (text, reference value, rows scanned by
    its project or rename)."""
    if cols_so_far and rng.random() < 0.2:
        pool = sorted(cols_so_far)
        x = rng.choice(pool)
        y = rng.choice([v for v in VARS if v != x])
        return f"DIAG({_var(x)},{_var(y)})", ref_diag(x, y), 0
    name = rng.choice(sorted(tables))
    names_used.add(name)
    text, value = name, tables[name]
    roll = rng.random()
    scanned = len(value[1]) if roll < 0.6 else 0  # rows a project or rename maps
    cols = value[0]
    if roll < 0.3:
        keep = sorted(rng.sample(cols, rng.randint(1, len(cols))))
        lam = {v: v for v in keep}
        text += ".project{" + ",".join(_var(v) for v in keep) + "}"
        value = ref_act(value, lam)
    elif roll < 0.6:
        olds = rng.sample(cols, rng.randint(2, len(cols)))
        news = rng.sample(VARS, len(olds))
        lam = dict(zip(news, olds))
        body = ",".join(f"{_var(y)}->{_var(lam[y])}" for y in sorted(lam))
        text += ".rename{" + body + "}"
        value = ref_act(value, lam)
    return text, value, scanned


def make_request(rng: random.Random, tables: dict) -> Request | None:
    """A chain of 1 to 3 joins, or None when the draw is too large."""
    names = set()
    n_terms = rng.randint(2, 4)
    text, value, scanned = _term(rng, tables, names, ())
    budget = [MAX_PAIRS]
    joined = 0  # rows out of every join
    try:
        for _ in range(n_terms - 1):
            cols = value[0] if value else ()
            t, v, s = _term(rng, tables, names, cols)
            text += " JOIN " + t
            value = ref_join(value, v, budget)
            scanned += s
            joined += len(value[1]) if value else 0
    except TooLarge:
        return None
    if value is None or not value[0]:
        return None  # keep every output a nonempty table with columns
    loaded = sum(len(tables[n][1]) for n in names)
    cost = loaded + COST_JOINED * joined + COST_SCANNED * scanned
    return Request(text, tuple(sorted(names)), rng.choice(FORMATS), digest(value), cost)


def cost_bin(cost) -> int:
    return bisect.bisect_right(COST_EDGES, cost)


def make_requests(rng: random.Random, tables: dict, n: int) -> list:
    """``n`` requests, an equal number from each bin of estimated cost."""
    bins = len(COST_EDGES) + 1
    assert n % bins == 0, f"{n} requests do not fill {bins} bins equally"
    left = [n // bins] * bins
    out = []
    while len(out) < n:
        req = make_request(rng, tables)
        if req is not None and left[cost_bin(req.cost)]:
            left[cost_bin(req.cost)] -= 1
            out.append(req)
    return out


# ---------------------------------------------------------------------------
# Parsing the program's output back


def _from_cells(header, body):
    cols = [int(h.strip()[1:]) for h in header]
    rows = [tuple(c.strip() for c in r) for r in body]
    if len(set(rows)) != len(rows):
        raise ValueError("duplicate rows in output")
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return (tuple(cols[i] for i in order),
            frozenset(tuple(r[i] for i in order) for r in rows))


def parse_output(fmt: str, text: str):
    if fmt == "json":
        data = json.loads(text)
        if data["schema"] == "ALL":
            return None
        return _from_cells(data["schema"], data["rows"])
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        return _from_cells(lines[0].split(","), [l.split(",") for l in lines[1:]])
    if lines == ["(empty table, schema ALL)"]:
        return None
    return _from_cells(lines[0].split(" | "), [l.split(" | ") for l in lines[2:]])
