import itertools

import pytest
from hypothesis import given, strategies as st

from orbsemi.transforms import (
    ALL,
    EMPTY,
    FPTransform,
    all_transforms,
    astrict,
    compose,
    decompose,
    format_transform,
    inverse,
    is_folding,
    is_injective,
    is_partial_identity,
    parse_transform,
    partial_identity,
    preimage,
    restrict,
    right_inverse,
)


def tf(**kw):
    return FPTransform.of({int(k[1:]): v for k, v in kw.items()})


transforms = st.dictionaries(st.integers(1, 5), st.integers(1, 5), max_size=5).map(
    FPTransform.of)


def test_of_and_accessors():
    f = tf(x2=1, x1=3)
    assert f.pairs == ((1, 3), (2, 1))
    assert f.df == {1, 2}
    assert f.rng == {1, 3}
    assert f(2) == 1
    assert f.get(7) is None
    with pytest.raises(KeyError):
        f(7)


def test_compose_is_relational():
    # targets outside the second factor's sources simply drop out
    lam = tf(x1=2, x2=5)
    mu = tf(x2=3)
    assert compose(mu, lam) == tf(x1=3)


def test_compose_with_identity():
    f = tf(x1=3, x2=1)
    assert compose(f, partial_identity(f.df)) == f
    assert compose(partial_identity(f.rng), f) == f


@given(transforms, transforms, transforms)
def test_compose_associative(f, g, h):
    assert compose(f, compose(g, h)) == compose(compose(f, g), h)


def test_restrict_astrict():
    f = tf(x1=3, x2=3, x4=1)
    assert restrict(f, {2, 4}) == tf(x2=3, x4=1)
    assert astrict(f, {3}) == tf(x1=3, x2=3)


@given(transforms, st.sets(st.integers(1, 5)))
def test_restrict_is_precompose_astrict_is_postcompose(f, Z):
    assert restrict(f, Z) == compose(f, partial_identity(Z))
    assert astrict(f, Z) == compose(partial_identity(Z), f)


def test_preimage():
    f = tf(x1=3, x2=3, x3=1)
    assert preimage(f, {3}) == {1, 2}
    assert preimage(f, {2}) == frozenset()
    assert preimage(f, ALL) == f.df  # lam^-1(var) = df(lam)


def test_right_inverse_picks_minimal_source():
    f = tf(x1=3, x2=3, x4=3)
    assert right_inverse(f) == tf(x3=1)


@given(transforms)
def test_right_inverse_section(f):
    r = right_inverse(f)
    assert compose(f, r) == partial_identity(f.rng)


def test_inverse_requires_injectivity():
    assert inverse(tf(x1=2, x3=1)) == tf(x1=3, x2=1)
    with pytest.raises(ValueError):
        inverse(tf(x1=2, x3=2))


def test_folding_examples():
    assert is_folding(partial_identity({1, 2}))
    assert is_folding(tf(x1=1, x2=1))
    assert not is_folding(tf(x1=2))  # not idempotent: x1 leaves df after one step
    assert is_folding(EMPTY)


@given(transforms)
def test_folding_criterion_equivalence(f):
    # f is idempotent iff composing with the range identity reproduces it
    pi = partial_identity(f.rng)
    assert is_folding(f) == (compose(f, pi) == pi)


@given(transforms)
def test_decompose_recomposition(f):
    delta, sigma, pi = decompose(f)
    assert is_folding(delta)
    assert is_injective(sigma)
    assert is_partial_identity(pi)
    assert compose(pi, compose(sigma, delta)) == f


def test_all_transforms_count():
    ts = list(all_transforms([1, 2], [1, 2, 3]))
    assert len(ts) == 4 ** 2
    assert len(set(ts)) == len(ts)
    assert EMPTY in ts


def test_format_parse_roundtrip():
    for f in all_transforms([1, 2, 3], [1, 2, 3]):
        assert parse_transform(format_transform(f)) == f
    assert format_transform(partial_identity({1, 3})) == "pi{x1,x3}"
    assert parse_transform("{x1->x3, x2->x3}") == tf(x1=3, x2=3)
    with pytest.raises(ValueError):
        parse_transform("{x1->x2, x1->x3}")


def test_exhaustive_decomposition_window_four():
    for f in all_transforms(range(1, 5), range(1, 5)):
        delta, sigma, pi = decompose(f)
        assert compose(pi, compose(sigma, delta)) == f


def test_partial_identity_detection():
    assert is_partial_identity(EMPTY)
    assert is_partial_identity(partial_identity({2, 5}))
    assert not is_partial_identity(tf(x1=1, x2=1))


def test_sorted_pairs_enforced():
    with pytest.raises(ValueError):
        FPTransform(((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        FPTransform(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        FPTransform(((0, 1),))


def sweep_count():
    return sum(1 for _ in itertools.product(range(5), repeat=4))


def test_window_four_transform_count():
    assert len(list(all_transforms(range(1, 5), range(1, 5)))) == 625
