import pickle

import pytest
from hypothesis import given, strategies as st

from orbsemi.transforms import (FPTransform, compose, parse_transform, partial_identity,
                                restrict)
from orbsemi.tuples import (
    EMPTY_TUPLE,
    NTuple,
    act,
    extends,
    merge,
    parse_tuple,
)


atoms = st.sampled_from("abc")
ntuples = st.dictionaries(st.integers(1, 4), atoms, max_size=4).map(NTuple.of)
transforms = st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=4).map(
    FPTransform.of)


def test_basic_accessors():
    t = NTuple.of({2: "b", 1: "a"})
    assert t.pairs == ((1, "a"), (2, "b"))
    assert t.df == {1, 2}
    assert t.rng == {"a", "b"}
    assert t(1) == "a"
    assert t.get(9) is None


def test_act_is_precomposition():
    t = NTuple.of({1: "a", 2: "b"})
    lam = FPTransform.of({3: 1, 4: 9})
    assert act(t, lam) == NTuple.of({3: "a"})


@given(ntuples, transforms, transforms)
def test_act_respects_composition(t, lam, mu):
    assert act(act(t, mu), lam) == act(t, compose(mu, lam))


@given(ntuples)
def test_restrict_via_partial_identity(t):
    assert restrict(t, {1, 2}) == act(t, partial_identity({1, 2}))
    assert restrict(t, t.df) == t


def test_extends():
    t = NTuple.of({1: "a"})
    tt = NTuple.of({1: "a", 2: "b"})
    assert extends(t, tt)
    assert not extends(tt, t)
    assert extends(EMPTY_TUPLE, tt)


def test_merge_disjoint_and_conflict():
    assert merge(NTuple.of({1: "a"}), NTuple.of({2: "b"})) == NTuple.of(
        {1: "a", 2: "b"})
    assert merge(NTuple.of({1: "a"}), NTuple.of({1: "b"})) is None
    assert merge(NTuple.of({1: "a"}), NTuple.of({1: "a"})) == NTuple.of({1: "a"})


@given(ntuples, ntuples)
def test_merge_is_least_common_extension(t1, t2):
    m = merge(t1, t2)
    if m is None:
        assert any(t1(v) != t2(v) for v in t1.df & t2.df)
    else:
        assert extends(t1, m) and extends(t2, m)
        assert m.df == t1.df | t2.df


def test_parse_tuple():
    assert parse_tuple("{x1:a, x3:b}") == NTuple.of({1: "a", 3: "b"})
    assert parse_tuple("{}") == EMPTY_TUPLE
    with pytest.raises(ValueError):
        parse_tuple("{x1:a, x1:b}")
    with pytest.raises(ValueError):
        parse_tuple("x1:a")


@pytest.mark.parametrize("parse, text, message", [
    (parse_transform, "x1->x2", "bad transform: 'x1->x2'"),
    (parse_transform, "{x1, x2->x3}", "bad mapping 'x1' in '{x1, x2->x3}'"),
    (parse_transform, "{x1->x2, x1 ->x3}", "duplicate source 'x1' in '{x1->x2, x1 ->x3}'"),
    (parse_tuple, "x1:a", "bad tuple: 'x1:a'"),
    (parse_tuple, "{x1:a, x2}", "bad entry ' x2' in '{x1:a, x2}'"),
    (parse_tuple, "{x1:a, x1 :b}", "duplicate variable 'x1' in '{x1:a, x1 :b}'"),
], ids=["transform", "mapping", "source", "tuple", "entry", "variable"])
def test_map_parser_error_texts(parse, text, message):
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value) == message


def test_sorted_pairs_enforced():
    with pytest.raises(ValueError):
        NTuple(((2, "a"), (1, "b")))
    with pytest.raises(ValueError):
        NTuple(((0, "a"),))


@given(ntuples)
def test_a_tuple_equals_and_hashes_as_the_plain_tuple_of_its_pairs(t):
    # leq probes a table's rows with the plain tuple of the picked pairs
    plain = tuple(t.pairs)
    assert type(plain) is tuple
    assert t == plain and plain == t
    assert hash(t) == hash(plain)
    assert plain in {t} and t in {plain}


def test_a_tuple_has_no_attributes_of_its_own():
    t = NTuple.of({1: "a"})
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        t.pairs = ()


@given(ntuples)
def test_a_tuple_survives_pickling(t):
    copy = pickle.loads(pickle.dumps(t))
    assert type(copy) is NTuple
    assert copy == t and copy.pairs == t.pairs


def test_trusted_skips_the_validation_that_the_constructor_runs():
    unsorted = ((2, "a"), (1, "b"))
    t = NTuple.trusted(unsorted)
    assert type(t) is NTuple and t.pairs == unsorted
    with pytest.raises(ValueError):
        NTuple(unsorted)
