"""Property tests tying the table operations to their definitions.

Join, right multiplication and the order test build their results by column
position without re-validating rows, from column plans cached per schema.
These tests compare them with the definitions, built through the validating
``Table.from_rows``, on tables with at most 3 atoms and 3 variables, and check
that every result survives re-validation.  ``TableAlgebra``'s constants are
built once per instance and must equal the free functions' fresh tables.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from orbsemi.orbital import SampleConfig
from orbsemi.tables import (
    Table,
    TableAlgebra,
    act_table,
    all_rows,
    bottom,
    diagonal,
    leq,
    natural_join,
    top,
)
from orbsemi.transforms import EMPTY, FPTransform
from orbsemi.tuples import NTuple, act, merge

grounds = st.sets(st.sampled_from("abc"), min_size=1, max_size=3).map(frozenset)
schemas = st.sets(st.integers(1, 3), max_size=3)
transforms = st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=4).map(
    FPTransform.of)


@st.composite
def tables_over(draw, G):
    """A table over G: bottom, top, or any row set of a schema inside {x1,x2,x3}."""
    rows = list(all_rows(G, draw(schemas)))
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return Table.from_rows(G, [r for r, k in zip(rows, keep) if k])


@st.composite
def table_pairs(draw):
    G = draw(grounds)
    return draw(tables_over(G)), draw(tables_over(G))


tables = grounds.flatmap(tables_over)


def reference_join(T1, T2):
    """Every merge of a compatible pair of rows."""
    merged = (merge(r1, r2) for r1 in T1.rows for r2 in T2.rows)
    return Table.from_rows(T1.ground, {m for m in merged if m is not None})


def revalidated(T):
    return Table(T.ground, T.schema, T.rows)


@given(table_pairs())
def test_join_matches_reference(pair):
    T1, T2 = pair
    got = natural_join(T1, T2)
    assert got == reference_join(T1, T2)
    assert revalidated(got) == got


@given(tables, transforms)
def test_act_matches_rowwise_definition(T, lam):
    got = act_table(T, lam)
    assert got == Table.from_rows(T.ground, {act(r, lam) for r in T.rows})
    assert revalidated(got) == got


@given(grounds, transforms)
def test_act_on_top_and_bottom(G, lam):
    assert act_table(top(G), lam) == top(G)
    assert act_table(bottom(G), lam) == bottom(G)


@given(tables)
def test_act_by_empty_transform_is_top(T):
    assert act_table(T, EMPTY) == (top(T.ground) if T.rows else bottom(T.ground))


@given(table_pairs())
def test_leq_is_join_idempotence(pair):
    u, v = pair
    assert TableAlgebra(u.ground).leq(u, v) == (natural_join(u, v) == u)


@given(tables, st.sampled_from("abz"))
def test_validation_rejects_foreign_rows(T, atom):
    if not T.rows or not T.schema:
        return
    x = max(T.schema)
    wrong_schema = NTuple.of({v: atom for v in T.schema - {x}} | {x + 1: atom})
    with pytest.raises(ValueError):
        Table(T.ground, T.schema, T.rows | {wrong_schema})
    with pytest.raises(ValueError):
        Table.from_rows(T.ground, T.rows | {wrong_schema})
    foreign = NTuple.of({v: "z" for v in T.schema})
    with pytest.raises(ValueError):
        Table(T.ground, T.schema, T.rows | {foreign})
    with pytest.raises(ValueError):
        Table.from_rows(T.ground, T.rows | {foreign})


def test_element_pool_is_a_fresh_list_with_unchanged_draws():
    cfg = SampleConfig(seed=3)
    alg = TableAlgebra("abc")
    alg.element_pool(cfg, random.Random(3)).clear()
    rng, ref = random.Random(3), random.Random(3)
    assert alg.element_pool(cfg, rng) == TableAlgebra("abc").element_pool(cfg, ref)
    assert rng.random() == ref.random()


def test_constants_are_the_free_functions_built_once():
    alg = TableAlgebra("abc")
    assert alg.zero() == bottom(alg.ground) and alg.zero() is alg.zero()
    assert alg.one() == top(alg.ground) and alg.one() is alg.one()
    for x in range(1, 4):
        for y in range(1, 4):
            assert alg.diag(x, y) == diagonal(x, y, alg.ground)
            assert alg.diag(x, y) is alg.diag(x, y)


def test_instances_over_different_grounds_share_no_constant():
    ab, abc = TableAlgebra("ab"), TableAlgebra("abc")
    for c1, c2 in [(ab.zero(), abc.zero()), (ab.one(), abc.one()),
                   (ab.diag(1, 2), abc.diag(1, 2)), (ab.diag(2, 2), abc.diag(2, 2))]:
        assert c1 is not c2 and c1 != c2
        assert c1.ground == ab.ground and c2.ground == abc.ground


wide_schemas = st.sets(st.integers(1, 4), max_size=3)
operations = st.lists(
    st.tuples(st.sampled_from(["join", "leq", "act"]), st.integers(0, 99),
              st.integers(0, 99), transforms),
    min_size=1, max_size=12)


@st.composite
def interleaved(draw):
    """A ground set, a pool of tables over random schemas inside {x1..x4} (with
    the top and bottom units), and a list of operations on the pool."""
    G = draw(grounds)
    pool = [top(G), bottom(G)]
    for X in draw(st.lists(wide_schemas, min_size=1, max_size=4)):
        rows = list(all_rows(G, X))
        keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        pool.append(Table.from_rows(G, [r for r, k in zip(rows, keep) if k]))
    return pool, draw(operations)


@given(interleaved())
def test_interleaved_operations_match_references(case):
    """Joins, order tests and actions in any order, each result joining the
    pool, agree with the merge-all-pairs and row-wise references; both operand
    orders are tried, so a plan cached under the wrong order shows."""
    pool, ops = case
    for op, i, j, lam in ops:
        u, v = pool[i % len(pool)], pool[j % len(pool)]
        if op == "join":
            for a, b in [(u, v), (v, u)]:
                got = natural_join(a, b)
                assert got == reference_join(a, b)
                assert revalidated(got) == got
            pool.append(got)
        elif op == "leq":
            w = natural_join(u, v)  # below both, so the tests that hold run too
            for a, b in [(u, v), (v, u), (w, u), (w, v)]:
                assert leq(a, b) == (reference_join(a, b) == a)
            assert leq(w, u) and leq(w, v)
        else:
            got = act_table(u, lam)
            assert got == Table.from_rows(u.ground, {act(r, lam) for r in u.rows})
            assert revalidated(got) == got
            pool.append(got)


@pytest.mark.parametrize("G", ["a", "abc", "bca"])
@pytest.mark.parametrize("X", [(), (2,), (3, 1), (1, 2, 4)])
def test_all_rows_matches_validated_rows(G, X):
    got = list(all_rows(G, set(X)))
    atoms = sorted(G)
    cols = sorted(X)
    want = [NTuple.of(dict(zip(cols, combo)))
            for combo in itertools.product(atoms, repeat=len(cols))]
    assert got == want
    assert all(NTuple(r.pairs) == r for r in got)
