import pytest

from orbsemi.labeling import (
    Labeling,
    QuotientError,
    check_embedding,
    check_labeling,
    extent,
    extent_act_inclusion,
    quotient,
    singleton_labeling,
)
from orbsemi.orbital import SampleConfig
from orbsemi.tables import Table, TableAlgebra, enumerate_tables, subsets
from orbsemi.transforms import FPTransform
from orbsemi.tuples import NTuple

G = frozenset({"a", "b"})


@pytest.fixture(scope="module")
def alg():
    return TableAlgebra(G)


@pytest.fixture(scope="module")
def alpha(alg):
    return singleton_labeling(alg)


def test_singleton_labeling_values(alpha, alg):
    t = NTuple.of({1: "a", 2: "b"})
    assert alpha(t) == Table.from_rows(G, {t})
    assert alpha(NTuple(())) == alg.one()


def test_labeling_laws(alpha):
    cfg = SampleConfig(cases=200)
    reports = check_labeling(alpha, "full", cfg)
    assert [r.check_id for r in reports] == ["L1", "L2", "L3", "L4"]
    for r in reports:
        assert r.passed, r.summary()
        assert not r.vacuous, r.check_id


def test_level_validation(alpha):
    with pytest.raises(ValueError):
        check_labeling(alpha, "both", SampleConfig())
    assert len(check_labeling(alpha, "quasi", SampleConfig(cases=30))) == 3


def test_extent_is_identity_for_singleton(alpha, alg):
    for T in enumerate_tables(G, [X for X in subsets([1, 2])]):
        assert extent(alpha, T) == T
    assert extent(alpha, alg.zero()) == alg.zero()
    assert extent(alpha, alg.one()) == alg.one()


def test_extent_of_bottom_is_bottom_for_any_labeling(alg):
    constant_zero = Labeling(G, alg, lambda t: alg.zero())
    assert extent(constant_zero, alg.zero()) == alg.zero()


def test_extent_act_inclusion(alpha, alg):
    u = Table.from_rows(G, {NTuple.of({1: "a", 2: "b"})})
    lam = FPTransform.of({3: 1})
    assert extent_act_inclusion(alpha, u, lam)


def test_embedding_checks(alpha):
    cfg = SampleConfig(cases=200)
    for r in check_embedding(alpha, cfg):
        assert r.passed, r.summary()
        assert not r.vacuous, r.check_id


def test_embedding_elements_override(alpha, alg):
    elements = [alg.zero(), alg.one(), alg.diag(1, 2)]
    reports = check_embedding(alpha, SampleConfig(cases=40), elements=elements)
    assert all(r.passed for r in reports)


def test_quotient_of_singleton_is_discrete(alpha):
    eq, alpha_bar = quotient(alpha)
    assert alpha_bar.ground == G
    assert not eq.same("a", "b")


def test_quotient_merges_equal_behavior(alg):
    # atoms b and c behave identically: the labeling collapses c to b
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)

    def label(t):
        collapsed = NTuple.of({v: ("b" if a == "c" else a) for v, a in t.pairs})
        return Table.from_rows(G3, {collapsed})

    alpha = Labeling(G3, alg3, label)
    eq, alpha_bar = quotient(alpha)
    assert eq.same("b", "c")
    assert not eq.same("a", "b")
    assert len(alpha_bar.ground) == 2


def test_quotient_spot_checks_use_the_callers_window(alg):
    # b ~ c, and labels collapse c to b except on tuples that bind x4, so only
    # exchange spot checks over a window containing x4 can see the violation
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)

    def label(t):
        if 4 in t.df:
            return Table.from_rows(G3, {t})
        collapsed = NTuple.of({v: ("b" if a == "c" else a) for v, a in t.pairs})
        return Table.from_rows(G3, {collapsed})

    alpha = Labeling(G3, alg3, label)
    eq, _ = quotient(alpha)
    assert eq.same("b", "c")
    with pytest.raises(QuotientError):
        quotient(alpha, window=(1, 2, 3, 4))


def test_quotient_rejects_non_equivalence(alg):
    witness = NTuple.of({1: "a", 2: "b"})

    def broken(t):
        if t == witness:  # asymmetric: (a, b) related but (b, a) is not
            return alg.diag(1, 2)
        return Table.from_rows(G, {t})

    alpha = Labeling(G, alg, broken)
    with pytest.raises(QuotientError):
        quotient(alpha)


def test_quotient_rejects_exchange_violation(alg):
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)
    pair = frozenset({"b", "c"})

    def broken(t):
        # b ~ c according to the two-column labels, but one-column labels differ
        if t.df == {1, 2} and {t(1), t(2)} <= pair:
            return alg3.diag(1, 2)
        return Table.from_rows(G3, {t})

    alpha = Labeling(G3, alg3, broken)
    with pytest.raises(QuotientError):
        quotient(alpha)
