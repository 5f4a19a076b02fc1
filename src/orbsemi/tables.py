"""The table algebra Tab(G): schemas, natural join, order, right multiplication
and diagonals over a finite nonempty ground set.

The empty table is the bottom element and carries the symbolic ALL schema;
the one-row table {<>} is the top element.  Tables are immutable and compare
structurally.

Rows are validated where they enter from outside: ``Table(...)`` and
``Table.from_rows`` check every row against the schema and the ground set,
``tableio`` checks each loaded row's width and atoms once and builds the table
with ``_table``, and ``exprlang`` checks that every referenced table has the
expression's ground set.  The results of table operations (join, right
multiplication, the order test) are built from rows of valid operands by
column position and are not validated again.

Schema-only work is done once.  ``TableAlgebra`` builds ``zero()`` and
``one()`` in its constructor and each ``diag(x, y)`` on first use, in a dict
on the instance keyed by ``(x, y)``, and returns the same table every time;
the free functions ``bottom``, ``top`` and ``diagonal`` build fresh tables.
The column plans live in LRU caches of ``PLAN_CACHE_SIZE`` entries each, keyed
by the two schemas after the smaller-operand swap (``natural_join``), the two
schemas (``leq``), and the schema and ``lam.pairs`` (``act_table``).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import itemgetter

from .orbital import ELEMENT_BUDGET, OrbitalInstance, SampleConfig
from .transforms import ALL, FPTransform, _new, _set, schema_is_all
from .tuples import EMPTY_TUPLE, NTuple, atom_key


@dataclass(frozen=True)
class Table:
    """A set of named tuples sharing one schema over a ground set."""

    ground: frozenset
    schema: object  # frozenset[int] or ALL
    rows: frozenset

    def __post_init__(self):
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        if schema_is_all(self.schema):
            if self.rows:
                raise ValueError("ALL schema is reserved for the empty table")
            return
        if not self.rows:
            raise ValueError("the empty table must carry the ALL schema")
        for r in self.rows:
            if r.df != self.schema:
                raise ValueError(f"row {r} does not match schema {sorted(self.schema)}")
            if not r.rng <= self.ground:
                raise ValueError(f"row {r} uses atoms outside the ground set")

    @classmethod
    def from_rows(cls, ground, rows) -> "Table":
        ground = frozenset(ground)
        rows = frozenset(rows)
        if not rows:
            return cls(ground, ALL, rows)
        schema = next(iter(rows)).df
        return cls(ground, schema, rows)

    def sorted_rows(self) -> list:
        """The rows in ``NTuple.sort_key`` order.  Every row has the same
        variables at the same positions, so rows sort as the tuples of their
        atoms' ranks, each atom keyed once; atoms with equal keys share a rank."""
        keys = {a: atom_key(a) for a in {a for r in self.rows for _, a in r.pairs}}
        rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        rank = {a: rank[k] for a, k in keys.items()}
        return sorted(self.rows, key=lambda r: tuple([rank[a] for _, a in r.pairs]))

    def sort_key(self):
        s = (1,) if schema_is_all(self.schema) else (0, tuple(sorted(self.schema)))
        return s + (tuple(sorted(r.sort_key() for r in self.rows)),)

    def __repr__(self):
        if schema_is_all(self.schema):
            return "Table[ALL]{}"
        body = ", ".join(repr(r) for r in self.sorted_rows())
        return "Table{" + body + "}"


def _table(ground: frozenset, schema: frozenset, rows) -> Table:
    """A nonempty table from rows of valid operands; unlike ``Table(...)`` it
    skips the validation in ``__post_init__``."""
    T = _new(Table)
    _set(T, "ground", ground)
    _set(T, "schema", schema)
    _set(T, "rows", frozenset(rows))
    return T


#: entries in each plan cache (``represent`` acts with thousands of transformations)
PLAN_CACHE_SIZE = 512
_plan_cache = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)


def _picker(positions):
    """The function taking a sequence to the tuple of its items at ``positions``."""
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions) if positions else lambda seq: ()


def bottom(G) -> Table:
    return Table(frozenset(G), ALL, frozenset())


def top(G) -> Table:
    return Table.from_rows(G, {EMPTY_TUPLE})


def _check_same_ground(T1: Table, T2: Table):
    if T1.ground != T2.ground:
        raise ValueError("ground-set mismatch")


def natural_join(T1: Table, T2: Table) -> Table:
    """All tuples over the union schema whose restrictions lie in each operand."""
    _check_same_ground(T1, T2)
    if not T1.rows or not T2.rows:  # the bottom element absorbs the join
        return T2 if T1.rows else T1
    if not T1.schema:  # the top element is the unit of the join
        return T2
    if not T2.schema:
        return T1
    if len(T2.rows) < len(T1.rows):
        T1, T2 = T2, T1
    key1, key2, merged, schema = _join_plan(T1.schema, T2.schema)
    buckets = {}
    for r in T2.rows:
        buckets.setdefault(key2(r.pairs), []).append(r.pairs)
    out = set()
    for r in T1.rows:
        p1 = r.pairs
        for p2 in buckets.get(key1(p1), ()):
            out.add(merged(p1 + p2))
    if not out:
        return bottom(T1.ground)
    return _table(T1.ground, schema, map(NTuple.trusted, out))


@_plan_cache
def _join_plan(s1: frozenset, s2: frozenset):
    """The key pickers of both operands, the merged-row picker and the union
    schema of a join of tables over s1 and s2."""
    # every row of a table has its pairs at the same positions, sorted by
    # variable; rows match on the pairs at the shared variables, and a merged
    # row picks its sorted pairs out of r1.pairs + r2.pairs
    cols1, cols2 = sorted(s1), sorted(s2)
    key1 = _picker([i for i, v in enumerate(cols1) if v in s2])
    key2 = _picker([i for i, v in enumerate(cols2) if v in s1])
    where = {v: i for i, v in enumerate(cols1)}
    for i, v in enumerate(cols2):
        where.setdefault(v, len(cols1) + i)
    schema = s1 if s2 <= s1 else s2 if s1 <= s2 else s1 | s2
    return key1, key2, _picker([where[v] for v in sorted(where)]), schema


def leq(T1: Table, T2: Table) -> bool:
    """Projection-subset order; coincides with T1 ⋈ T2 = T1."""
    _check_same_ground(T1, T2)
    if not T1.rows:
        return True
    if not T2.rows:
        return False
    key = _leq_plan(T1.schema, T2.schema)
    trusted = NTuple.trusted
    return all(trusted(key(r.pairs)) in T2.rows for r in T1.rows)


@_plan_cache
def _leq_plan(s1: frozenset, s2: frozenset):
    """The picker of a row over s1's pairs at the variables of s2."""
    return _picker([i for i, v in enumerate(sorted(s1)) if v in s2])


def act_table(T: Table, lam: FPTransform) -> Table:
    """Rowwise right multiplication T·lam."""
    if not T.rows:
        return T
    plan, schema = _act_plan(T.schema, lam.pairs)
    rows = set()
    for r in T.rows:
        p = r.pairs
        rows.add(tuple([(y, p[i][1]) for y, i in plan]))
    return _table(T.ground, schema, map(NTuple.trusted, rows))


@_plan_cache
def _act_plan(schema: frozenset, lam_pairs: tuple):
    """The (target, column) pairs and the result schema of right multiplying
    a table over ``schema`` by the transformation with pairs ``lam_pairs``."""
    # (t ∘ lam)(y) = t(lam(y)): the row's atom at lam(y)'s column, for each y
    # in the lam-preimage of the schema (lam.pairs is sorted by source)
    pos = {v: i for i, v in enumerate(sorted(schema))}
    plan = tuple((y, pos[z]) for y, z in lam_pairs if z in pos)
    return plan, frozenset(y for y, _ in plan)


def diagonal(x: int, y: int, G) -> Table:
    """The table of tuples over {x, y} with equal values at x and y."""
    G = frozenset(G)
    rows = {NTuple.of({x: g, y: g}) for g in G}
    return Table.from_rows(G, rows)


def all_rows(G, X):
    """All named tuples with domain of definition X and values in G."""
    # the columns are sorted and distinct, so the pairs need no validation
    cols = sorted(set(X))
    atoms = sorted(G, key=atom_key)
    trusted = NTuple.trusted
    for combo in itertools.product(atoms, repeat=len(cols)):
        yield trusted(tuple(zip(cols, combo)))


def tables_with_schema(G, X):
    """All tables with schema exactly X (for X = ∅ only the top element)."""
    rows = list(all_rows(G, X))
    for k in range(1, len(rows) + 1):
        for combo in itertools.combinations(rows, k):
            yield Table.from_rows(G, combo)


def enumerate_tables(G, schemas):
    """All distinct tables whose schema is one of the given finite var sets,
    plus the empty table; deterministic order."""
    out = [bottom(G)]
    for X in schemas:
        out.extend(tables_with_schema(G, X))
    out.sort(key=Table.sort_key)
    return out


def subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


class TableAlgebra(OrbitalInstance):
    """Tab(G) packaged as an orbital-semilattice instance."""

    def __init__(self, ground):
        ground = frozenset(ground)
        self.ground = ground
        self._zero, self._one = bottom(ground), top(ground)
        self._diags = {}
        self._pool_cores = {}

    def __repr__(self):
        atoms = ",".join(str(a) for a in sorted(self.ground, key=atom_key))
        return f"Tab({{{atoms}}})"

    def meet(self, u, v):
        return natural_join(u, v)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def act(self, u, lam):
        return act_table(u, lam)

    def diag(self, x, y):
        d = self._diags.get((x, y))
        if d is None:
            d = self._diags[x, y] = diagonal(x, y, self.ground)
        return d

    def dom(self, u):
        return u.schema

    def leq(self, u, v) -> bool:
        return leq(u, v)

    def element_pool(self, cfg: SampleConfig, rng: random.Random) -> list:
        # exhaustive over schemas with at most two window variables, sampled
        # random tables beyond; the exhaustive core draws no random numbers,
        # so it is built once per window
        core = self._pool_cores.get(cfg.window)
        if core is None:
            small = [X for X in subsets(cfg.window) if len(X) <= 2]
            tables = enumerate_tables(self.ground, small)
            core = self._pool_cores[cfg.window] = (tables, frozenset(tables))
        pool, seen = list(core[0]), set(core[1])
        for _ in range(ELEMENT_BUDGET):
            X = [x for x in cfg.window if rng.random() < 0.6]
            if len(X) <= 2:
                continue
            universe = list(all_rows(self.ground, X))
            rows = [r for r in universe if rng.random() < 0.5]
            if not rows:
                continue
            T = Table.from_rows(self.ground, rows)
            if T not in seen:
                seen.add(T)
                pool.append(T)
        return pool

    def elements_with_schema(self, X: frozenset):
        return tables_with_schema(self.ground, X)
