import pytest

from orbsemi import labeling
from orbsemi.labeling import (
    EMBEDDING_IDS,
    LEVELS,
    Labeling,
    QuotientError,
    check_embedding,
    check_labeling,
    check_law,
    extent,
    quotient,
    singleton_labeling,
)
from orbsemi.mutants import make_mutant
from orbsemi.orbital import SampleConfig
from orbsemi.tables import Table, TableAlgebra, act_table, enumerate_tables, subsets
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


def extent_act_inclusion(alpha: Labeling, u, lam) -> bool:
    """The unconditional inclusion ext(u)·lam ⊆ ext(u·lam) (holds for any
    labeling, surjective or not)."""
    lhs = act_table(extent(alpha, u), lam)
    rhs = extent(alpha, alpha.inst.act(u, lam))
    return lhs.rows <= rhs.rows


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
    rep_of, alpha_bar = quotient(alpha)
    assert alpha_bar.ground == G
    assert rep_of == {"a": "a", "b": "b"}


def test_quotient_merges_equal_behavior(alg):
    # atoms b and c behave identically: the labeling collapses c to b
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)

    def label(t):
        collapsed = NTuple.of({v: ("b" if a == "c" else a) for v, a in t.pairs})
        return Table.from_rows(G3, {collapsed})

    alpha = Labeling(G3, alg3, label)
    rep_of, alpha_bar = quotient(alpha)
    assert rep_of == {"a": "a", "b": "b", "c": "b"}
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
    rep_of, _ = quotient(alpha)
    assert rep_of["b"] == rep_of["c"]
    with pytest.raises(QuotientError):
        quotient(alpha, window=(1, 2, 3, 4))


#: two-column tuples labelled with the diagonal (related) or with a table not
#: below it (unrelated); every other tuple t is labelled {t}
_BROKEN_RELATIONS = {
    # (a, b) related but (b, a) is not
    "asymmetric": ({("a", "b")}, set()),
    # a is not related to itself
    "non-reflexive": (set(), {("a", "a")}),
    # a ~ b and b ~ c, but not a ~ c
    "non-transitive": ({("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}, set()),
}


def _broken_labeling(case):
    related, unrelated = _BROKEN_RELATIONS[case]
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)
    off_diagonal = Table.from_rows(G3, {NTuple.of({1: "a", 2: "b"})})

    def broken(t):
        if t.df == {1, 2} and (t(1), t(2)) in related:
            return alg3.diag(1, 2)
        if t.df == {1, 2} and (t(1), t(2)) in unrelated:
            return off_diagonal
        return Table.from_rows(G3, {t})

    return Labeling(G3, alg3, broken)


@pytest.mark.parametrize("case", sorted(_BROKEN_RELATIONS))
def test_quotient_rejects_non_equivalence(case):
    with pytest.raises(QuotientError, match="not an equivalence"):
        quotient(_broken_labeling(case))


#: the first failing pair (g, h) in atom order, as the all-pairs test named it
_NON_EQUIVALENCE_AT = {
    "asymmetric": "(a, b)",
    "non-reflexive": "(a, a)",
    "non-transitive": "(a, b)",
}


@pytest.mark.parametrize("case", sorted(_BROKEN_RELATIONS))
def test_quotient_names_the_first_failing_pair(case):
    with pytest.raises(QuotientError) as err:
        quotient(_broken_labeling(case))
    assert str(err.value) == (f"relation is not an equivalence at {_NON_EQUIVALENCE_AT[case]}; "
                              "input was not a quasi-labeling")


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


@pytest.mark.parametrize("level, law_id", [*((level, law_id) for level, ids in LEVELS.items()
                                             for law_id in ids),
                                           *((None, law_id) for law_id in EMBEDDING_IDS)])
def test_a_law_alone_reports_as_in_its_suite(alg, level, law_id):
    # each law draws from its own stream, so running it alone changes nothing;
    # a fresh labeling for each run keeps the caches apart
    cfg = SampleConfig(cases=60, seed=2)
    alpha = singleton_labeling(alg)
    suite = check_embedding(alpha, cfg) if level is None else check_labeling(alpha, level, cfg)
    alone = check_law(singleton_labeling(alg), law_id, cfg)
    assert alone.to_json() == next(r for r in suite if r.check_id == law_id).to_json()


def test_isolated_laws_match_on_a_mutant(alg):
    # failing reports, counterexamples included, do not depend on the laws run before
    alpha = singleton_labeling(make_mutant("act-trim-map", alg))
    cfg = SampleConfig(cases=100)
    suite = check_labeling(alpha, "full", cfg) + check_embedding(alpha, cfg)
    alone = [check_law(singleton_labeling(alpha.inst), r.check_id, cfg) for r in suite]
    assert any(not r.passed for r in suite)
    assert [r.to_json() for r in alone] == [r.to_json() for r in suite]


def test_laws_without_variables_run_once_and_name_what_failed(alg):
    alpha = singleton_labeling(make_mutant("diag-xx-empty", alg))
    diag = check_law(alpha, "emb-diag", SampleConfig(cases=100))
    assert (diag.cases_run, diag.passed) == (1, False)
    assert {"x", "y", "ext(d_xy)", "E_xy"} <= set(diag.counterexample)
    bounds = check_law(singleton_labeling(alg), "emb-bounds", SampleConfig(cases=100))
    assert (bounds.cases_run, bounds.cases_applicable, bounds.passed) == (1, 1, True)


def test_embedding_laws_share_the_labelings_extents(alg, monkeypatch):
    # each element's extent is computed once per labeling, across all laws
    calls = []
    monkeypatch.setattr(labeling, "extent",
                        lambda a, u: calls.append(u) or extent(a, u))
    check_embedding(singleton_labeling(alg), SampleConfig(cases=60))
    assert calls and len(calls) == len(set(calls))
