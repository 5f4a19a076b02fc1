"""The partial-map core shared by transformations and named tuples."""

from hypothesis import given, strategies as st

from orbsemi.transforms import FPTransform, PartialMap, astrict, compose, restrict
from orbsemi.tuples import NTuple, act

variables = st.integers(1, 4)
transforms = st.dictionaries(variables, variables, max_size=4).map(FPTransform.of)
ntuples = st.dictionaries(variables, st.sampled_from("abc"), max_size=4).map(NTuple.of)
maps = st.one_of(transforms, ntuples)


def values_of(m):
    return st.sets(st.sampled_from("abc") if isinstance(m, NTuple) else variables)


def check_core(m):
    assert isinstance(m, PartialMap)
    assert type(m)(m.pairs) == m  # survives re-validation
    assert hash(m) == (hash(m.pairs) if isinstance(m, NTuple) else hash((m.pairs,)))


@given(maps, transforms)
def test_compose_is_precomposition(mu, lam):
    got = compose(mu, lam)
    check_core(got)
    assert type(got) is type(mu)
    assert got.mapping == {y: mu(z) for y, z in lam.pairs if z in mu.df}


@given(maps, st.sets(variables))
def test_restrict_keeps_the_variables_in_z(m, Z):
    got = restrict(m, Z)
    check_core(got)
    assert type(got) is type(m)
    assert got.mapping == {y: m(y) for y in m.df & Z}


@given(st.data(), maps)
def test_astrict_keeps_the_values_in_z(data, m):
    Z = data.draw(values_of(m))
    got = astrict(m, Z)
    check_core(got)
    assert type(got) is type(m)
    assert got.mapping == {y: a for y, a in m.pairs if a in Z}


@given(transforms)
def test_maps_of_different_kinds_never_compare_equal(lam):
    t = NTuple(lam.pairs)
    assert t != lam and lam != t
    assert len({t, lam}) == 2
    check_core(t)
    check_core(lam)


def test_tuple_operations_are_the_shared_ones():
    assert act is compose
