"""Property tests tying the table operations to their definitions.

Join, right multiplication and the order test build their results by column
position without re-validating rows.  These tests compare them with the
definitions, built through the validating ``Table.from_rows``, on tables with
at most 3 atoms and 3 variables, and check that every result survives
re-validation.
"""

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
