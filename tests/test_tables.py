import pytest
from hypothesis import given, strategies as st

from orbsemi.tables import (
    Table,
    TableAlgebra,
    act_table,
    all_rows,
    bottom,
    diagonal,
    enumerate_tables,
    leq,
    natural_join,
    subsets,
    tables_with_schema,
    top,
)
from orbsemi.transforms import (
    ALL,
    FPTransform,
    compose,
    partial_identity,
    preimage,
    restrict,
    schema_is_all,
)
from orbsemi.tuples import EMPTY_TUPLE, NTuple

G = frozenset({"a", "b"})


def T(*rows):
    return Table.from_rows(G, {NTuple.of(r) for r in rows})


def naive_join(T1, T2):
    """Test oracle: filter the full Cartesian tuple space by Def.-of-join
    restriction membership."""
    if not T1.rows or not T2.rows:
        return bottom(T1.ground)
    X = T1.schema | T2.schema
    rows = [
        t for t in all_rows(T1.ground, X)
        if restrict(t, T1.schema) in T1.rows
        and restrict(t, T2.schema) in T2.rows
    ]
    return Table.from_rows(T1.ground, rows)


small_tables = st.builds(
    lambda X, picks: Table.from_rows(
        G, [r for r, keep in zip(all_rows(G, X), picks) if keep]),
    st.sets(st.integers(1, 3), max_size=2),
    st.lists(st.booleans(), min_size=8, max_size=8),
)


def test_schema_of():
    assert T({1: "a"}).schema == {1}
    assert schema_is_all(bottom(G).schema)
    assert top(G).schema == frozenset()


def test_table_invariants():
    with pytest.raises(ValueError):
        Table(G, frozenset({1}), frozenset())  # empty needs the ALL schema
    with pytest.raises(ValueError):
        Table(G, ALL, frozenset({NTuple.of({1: "a"})}))
    with pytest.raises(ValueError):
        Table.from_rows(G, {NTuple.of({1: "z"})})  # atom outside ground
    with pytest.raises(ValueError):
        Table.from_rows(G, {NTuple.of({1: "a"}), NTuple.of({2: "a"})})


def test_join_example():
    T1 = T({1: "a"})
    T2 = T({1: "a", 2: "a"}, {1: "a", 2: "b"})
    assert natural_join(T1, T2) == T2


def test_join_units():
    t = T({1: "a", 2: "b"})
    assert natural_join(t, top(G)) == t
    assert natural_join(bottom(G), t) == bottom(G)
    assert natural_join(t, bottom(G)) == bottom(G)


@given(small_tables, small_tables)
def test_join_matches_naive_oracle(T1, T2):
    assert natural_join(T1, T2) == naive_join(T1, T2)


@given(small_tables, small_tables, small_tables)
def test_join_aci(T1, T2, T3):
    assert natural_join(T1, T2) == natural_join(T2, T1)
    assert natural_join(T1, natural_join(T2, T3)) == natural_join(
        natural_join(T1, T2), T3)
    assert natural_join(T1, T1) == T1


def test_leq_examples():
    assert leq(T({1: "a", 2: "b"}), T({1: "a"}))
    assert leq(bottom(G), T({1: "a"}))
    assert leq(T({1: "a"}), top(G))
    assert not leq(T({1: "b"}), T({1: "a"}))


def test_leq_agrees_with_join_idempotence_exhaustively():
    # every table with schema inside {x1, x2}
    tables = enumerate_tables(G, [X for X in subsets([1, 2])])
    assert len(tables) == 23  # 15 + 3 + 3 nonempty, plus top and bottom
    for T1 in tables:
        for T2 in tables:
            assert leq(T1, T2) == (natural_join(T1, T2) == T1)


def test_act_examples():
    t = T({1: "a", 2: "b"})
    assert act_table(t, FPTransform.of({3: 1})) == T({3: "a"})
    assert act_table(bottom(G), FPTransform.of({3: 1})) == bottom(G)
    assert act_table(t, partial_identity({1, 2})) == t


@given(small_tables, st.dictionaries(st.integers(1, 3), st.integers(1, 3),
                                     max_size=3).map(FPTransform.of))
def test_act_schema_is_preimage(Tb, lam):
    out = act_table(Tb, lam)
    if Tb.rows:
        assert out.schema == preimage(lam, Tb.schema)


@given(small_tables,
       st.dictionaries(st.integers(1, 3), st.integers(1, 3), max_size=3).map(
           FPTransform.of),
       st.dictionaries(st.integers(1, 3), st.integers(1, 3), max_size=3).map(
           FPTransform.of))
def test_act_action_law(Tb, lam, mu):
    assert act_table(act_table(Tb, lam), mu) == act_table(Tb, compose(lam, mu))


def test_diagonal():
    assert diagonal(1, 2, G) == T({1: "a", 2: "a"}, {1: "b", 2: "b"})
    assert diagonal(1, 1, G) == T({1: "a"}, {1: "b"})
    lam = FPTransform.of({1: 1, 2: 1})
    assert diagonal(1, 2, G) == act_table(diagonal(1, 1, G), lam)


def test_ground_mismatch():
    with pytest.raises(ValueError):
        natural_join(T({1: "a"}), Table.from_rows({"a"}, {NTuple.of({1: "a"})}))


@st.composite
def tables_up_to_width_3(draw):
    """A table over 0 to 3 of the variables x1 .. x4: top or bottom at
    width 0, bottom when no row is kept."""
    rows = list(all_rows(G, draw(st.sets(st.integers(1, 4), max_size=3))))
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return Table.from_rows(G, [r for r, k in zip(rows, keep) if k])


@given(tables_up_to_width_3(), tables_up_to_width_3())
def test_leq_is_join_idempotence_on_tables_up_to_width_3(T1, T2):
    # one shared variable exercises the one-position picker
    assert leq(T1, T2) == (natural_join(T1, T2) == T1)


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("ground", [{"a", "b", "c"}, {"b", "10", "9"}, {1, "1", 2}],
                         ids=["abc", "numeric-strings", "tied-keys"])
def test_enumerate_tables_is_the_sorted_reference(ground, window):
    schemas = [X for X in subsets(range(1, window + 1)) if len(X) <= 2]
    got = enumerate_tables(ground, schemas)
    reference = sorted([bottom(ground), *(Tb for X in schemas
                                          for Tb in tables_with_schema(ground, X))],
                       key=Table.sort_key)
    assert got == reference  # the same tables in the same order
    for Tb in got:  # built without validation, yet valid
        assert Table(Tb.ground, Tb.schema, Tb.rows) == Tb
    # 1 and "1" have the same atom key: tied tables keep the order generated
    ties = sum(a.sort_key() == b.sort_key() for a, b in zip(got, got[1:]))
    assert bool(ties) == (ground == {1, "1", 2})


def test_enumerate_tables_deterministic():
    schemas = [X for X in subsets([1, 2])]
    assert enumerate_tables(G, schemas) == enumerate_tables(G, schemas)


def test_element_pool_contains_exhaustive_core():
    import random

    from orbsemi.orbital import SampleConfig

    alg = TableAlgebra(G)
    pool = alg.element_pool(SampleConfig(), random.Random(0))
    core = enumerate_tables(G, [X for X in subsets([1, 2])])
    for Tb in core:
        assert Tb in pool


def test_table_algebra_rejects_an_empty_ground():
    with pytest.raises(ValueError, match="ground set must be nonempty"):
        TableAlgebra(set())


def test_elements_with_schema():
    alg = TableAlgebra(G)
    unary = list(alg.elements_with_schema(frozenset({1})))
    assert len(unary) == 3  # nonempty row subsets of G^{x1}
    assert list(alg.elements_with_schema(frozenset())) == [top(G)]


def test_all_rows_count():
    assert len(list(all_rows(G, {1, 2}))) == 4
    assert list(all_rows(G, set())) == [EMPTY_TUPLE]


def _ref_sorted_rows(Tb):
    return sorted(Tb.rows, key=NTuple.sort_key)


def _assert_sort_key_order(Tb):
    assert Tb.sorted_rows() == _ref_sorted_rows(Tb)
    assert Tb.sort_key()[-1] == tuple(r.sort_key() for r in _ref_sorted_rows(Tb))


@given(st.sets(st.sampled_from(["a", "b", "ab", "B", "10", "9"]), min_size=1),
       st.sets(st.integers(1, 4), max_size=3), st.data())
def test_sorted_rows_and_sort_key_follow_the_row_keys_on_string_grounds(ground, X, data):
    rows = list(all_rows(ground, X))
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    _assert_sort_key_order(Table.from_rows(ground, [r for r, k in zip(rows, keep) if k]))


def test_sorted_rows_keeps_ties_in_row_order():
    # 1 and "1" have the same atom key, so neither row sorts before the other
    Tb = Table.from_rows({1, "1", "0"}, [NTuple.of({1: a, 2: b})
                                         for a in (1, "1", "0") for b in (1, "1")])
    _assert_sort_key_order(Tb)


def test_sorted_rows_is_the_sort_key_order_on_ground_terms():
    # the extents under represent's quasi labeling of Tab({a}) at depth 4:
    # tables over 26 ground terms
    from orbsemi.labeling import Labeling, extent
    from orbsemi.representation import RepCaps, RepresentationBuilder

    alg = TableAlgebra({"a"})
    builder = RepresentationBuilder(alg, RepCaps(depth=4))
    builder.build_H()
    alpha = Labeling(builder.terms, alg, builder.alpha)
    extents = [extent(alpha, u) for u in enumerate_tables(alg.ground, subsets([1, 2]))]
    assert max(len(Tb.rows) for Tb in extents) == len(builder.terms) ** 2
    for Tb in extents:
        _assert_sort_key_order(Tb)


@given(small_tables, st.sets(st.integers(1, 3), min_size=1))
def test_proj_drop_row_drops_the_last_row_in_sort_key_order(Tb, X):
    from orbsemi.mutants import make_mutant
    from orbsemi.transforms import partial_identity

    lam = partial_identity(X)
    out = act_table(Tb, lam)
    dropped = make_mutant("proj-drop-row", TableAlgebra(G)).act(Tb, lam)
    if len(out.rows) > 1:
        assert out.rows - dropped.rows == {_ref_sorted_rows(out)[-1]}
    else:
        assert dropped == out
