import functools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from orbsemi import labeling
from orbsemi.labeling import (
    EMBEDDING_IDS,
    LEVELS,
    Labeling,
    check_embedding,
    check_labeling,
    check_law,
    extension,
    extent,
    quotient,
    singleton_labeling,
)
from orbsemi.mutants import make_mutant
from orbsemi.orbital import SampleConfig
from orbsemi.tables import (Table, TableAlgebra, act_table, all_rows, bottom, enumerate_tables,
                            subsets)
from orbsemi.transforms import FPTransform, schema_is_all
from orbsemi.tuples import NTuple, merge

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


def test_extent_of_an_element_whose_domain_is_all_is_empty(alg):
    # under dom-top-all, dom(1) = ALL although 1 is not the bottom element; no
    # tuple has every variable, so no tuple lies in its extent
    inst = make_mutant("dom-top-all", alg)
    assert inst.one() != inst.zero()
    assert extent(singleton_labeling(inst), inst.one()) == alg.zero()


def extent_by_definition(alpha: Labeling, u, dom_filter=True) -> Table:
    """The tuples t over dom(u) with dom(alpha(t)) = dom(u) and alpha(t) ≤ u,
    labeled one by one."""
    inst, du = alpha.inst, alpha.inst.dom(u)
    if schema_is_all(du):
        return bottom(alpha.ground)
    return Table.from_rows(alpha.ground, [
        t for t in all_rows(alpha.ground, du)
        if (not dom_filter or inst.dom(alpha(t)) == du) and inst.leq(alpha(t), u)])


def _widened(alg):
    """A labeling that breaks L1: a tuple that uses atom a is labeled by
    itself extended with x9:b, so its label's domain is wider than its own."""
    def func(t):
        row = NTuple.of({**t.mapping, 9: "b"}) if "a" in t.rng else t
        return Table.from_rows(alg.ground, {row})
    return Labeling(alg.ground, alg, func)


@pytest.mark.parametrize("make", [singleton_labeling, _widened], ids=["singleton", "breaks-L1"])
def test_extent_matches_its_definition_on_the_pool(alg, make):
    pool = alg.element_pool(SampleConfig(seed=0), random.Random(0))
    alpha, reference = make(alg), make(alg)
    for u in pool:
        assert extent(alpha, u) == extent_by_definition(reference, u)
    # the domain test decides some extent of the labeling that breaks L1
    filtered = any(extent_by_definition(reference, u, dom_filter=False)
                   != extent_by_definition(reference, u) for u in pool)
    assert filtered == (make is _widened)


def test_extent_labels_each_schema_once(alg):
    class CountingLabeling(Labeling):
        calls = 0

        def __call__(self, t):
            self.calls += 1
            return super().__call__(t)

    alpha = CountingLabeling(G, alg, singleton_labeling(alg).func)
    u1 = Table.from_rows(G, {NTuple.of({1: "a", 2: "b"})})
    u2 = Table.from_rows(G, {NTuple.of({1: "b", 2: "b"}), NTuple.of({1: "a", 2: "a"})})
    assert extent(alpha, u1) == u1
    assert alpha.calls == len(G) ** 2  # every tuple over {x1, x2}, once
    assert extent(alpha, u2) == u2
    assert alpha.calls == len(G) ** 2


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


#: 200 exchange cases, as `embed` runs by default
QUOTIENT_CFG = SampleConfig(cases=200)


def _quotient_failures(reports):
    """The ids of the failing quotient reports, after checking both ran."""
    assert [r.check_id for r in reports] == ["quotient-equivalence", "quotient-exchange"]
    return [r.check_id for r in reports if not r.passed]


def test_quotient_of_singleton_is_discrete(alpha):
    rep_of, alpha_bar, reports = quotient(alpha, QUOTIENT_CFG)
    assert alpha_bar.ground == G
    assert rep_of == {"a": "a", "b": "b"}
    assert _quotient_failures(reports) == []
    assert not any(r.vacuous for r in reports)


def test_quotient_merges_equal_behavior(alg):
    # atoms b and c behave identically: the labeling collapses c to b
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)

    def label(t):
        collapsed = NTuple.of({v: ("b" if a == "c" else a) for v, a in t.pairs})
        return Table.from_rows(G3, {collapsed})

    alpha = Labeling(G3, alg3, label)
    rep_of, alpha_bar, reports = quotient(alpha, QUOTIENT_CFG)
    assert rep_of == {"a": "a", "b": "b", "c": "b"}
    assert len(alpha_bar.ground) == 2
    assert _quotient_failures(reports) == []


def test_quotient_spot_checks_use_the_callers_window(alg):
    # b ~ c, and labels collapse c to b except on tuples that bind x4, so only
    # the exchange law over a window containing x4 can see the violation
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)

    def label(t):
        if 4 in t.df:
            return Table.from_rows(G3, {t})
        collapsed = NTuple.of({v: ("b" if a == "c" else a) for v, a in t.pairs})
        return Table.from_rows(G3, {collapsed})

    alpha = Labeling(G3, alg3, label)
    rep_of, _, reports = quotient(alpha, SampleConfig(var_window=3, cases=200))
    assert rep_of["b"] == rep_of["c"]
    assert _quotient_failures(reports) == []
    _, _, reports = quotient(alpha, SampleConfig(var_window=4, cases=200))
    assert _quotient_failures(reports) == ["quotient-exchange"]
    assert "x4:" in reports[1].counterexample["tt"]


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
    _, _, reports = quotient(_broken_labeling(case), QUOTIENT_CFG)
    assert "quotient-equivalence" in _quotient_failures(reports)


#: the first failing pair (g, h) in atom order, as the all-pairs test named it
_NON_EQUIVALENCE_AT = {
    "asymmetric": ("a", "b"),
    "non-reflexive": ("a", "a"),
    "non-transitive": ("a", "b"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_RELATIONS))
def test_quotient_names_the_first_failing_pair(case):
    _, _, reports = quotient(_broken_labeling(case), QUOTIENT_CFG)
    found = reports[0].counterexample
    assert (reports[0].check_id, reports[0].passed) == ("quotient-equivalence", False)
    assert (found["term"], found["h"]) == _NON_EQUIVALENCE_AT[case]


def test_quotient_tests_each_label_against_the_diagonal_once(monkeypatch):
    # the nine pairs over three atoms take two label objects, the diagonal for
    # equal atoms and one other table, so leq(label, d12) runs twice
    G3 = frozenset({"a", "b", "c"})
    alg3 = TableAlgebra(G3)
    d12, other = alg3.diag(1, 2), Table.from_rows(G3, {NTuple.of({1: "a", 2: "b"})})

    def label(t):
        if t.df == {1, 2}:
            return d12 if t(1) == t(2) else other
        return Table.from_rows(G3, {t})

    tested = []
    leq = alg3.leq
    monkeypatch.setattr(alg3, "leq", lambda u, v: tested.append(u) or leq(u, v))
    rep_of, _, reports = quotient(Labeling(G3, alg3, label), QUOTIENT_CFG)
    assert rep_of == {"a": "a", "b": "b", "c": "c"}
    assert _quotient_failures(reports) == []
    assert sorted(map(id, tested)) == sorted([id(d12), id(other)])


@pytest.mark.parametrize("ground", ["ab", "abc"])
def test_laws_do_not_depend_on_memoization_or_label_identity(ground):
    # the singleton labeling builds a fresh table at every call, so no two
    # labels share an object; over functools.cache each tuple keeps one label
    alg = TableAlgebra(frozenset(ground))
    cfg = SampleConfig(cases=60, seed=4)
    fresh = singleton_labeling(alg)
    t = NTuple.of({1: "a", 2: "b"})
    assert fresh(t) == fresh(t) and fresh(t) is not fresh(t)

    def run(alpha):
        rep_of, alpha_bar, reports = quotient(alpha, cfg)
        assert alpha_bar.func is alpha.func
        reports += check_labeling(alpha, "full", cfg) + check_embedding(alpha, cfg)
        return rep_of, [r.to_json() for r in reports]

    assert run(fresh) == run(Labeling(alg.ground, alg, functools.cache(fresh.func)))


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
    _, _, reports = quotient(alpha, QUOTIENT_CFG)
    assert _quotient_failures(reports) == ["quotient-exchange"]


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


#: atoms of three types that do not compare with each other, so a sort of the
#: pairs that ever compared two atoms would raise
_MIXED_ATOMS = st.sampled_from(["a", 1, frozenset()])


@given(st.dictionaries(st.integers(1, 6), _MIXED_ATOMS, max_size=4), st.data())
def test_extension_is_the_merge_with_the_missing_variables(pairs, data):
    t = NTuple.of(pairs)
    missing = data.draw(st.lists(st.integers(1, 8).filter(lambda x: x not in pairs),
                                 unique=True, max_size=4))
    combo = data.draw(st.lists(_MIXED_ATOMS, min_size=len(missing), max_size=len(missing)))
    got = extension(t, missing, combo)
    assert got == merge(t, NTuple.of(dict(zip(missing, combo))))
    assert type(got) is NTuple and NTuple(got) == got


def test_l3_labels_each_steering_tuple_once_per_law_run(monkeypatch):
    # the (X, u) whose steering list is being built, else None; the labels
    # asked for while it is set are the ones that build that list
    alg3 = TableAlgebra(frozenset("abc"))
    single = singleton_labeling(alg3).func
    building, labeled, asked = [None], Counter(), Counter()

    def counted(t):
        if building[0] is not None:
            labeled[building[0], t] += 1
        return single(t)

    steering = labeling._Laws.steering

    def watched(ctx, X, u):
        asked[X, u] += 1
        building[0] = X, u
        try:
            return steering(ctx, X, u)
        finally:
            building[0] = None

    monkeypatch.setattr(labeling._Laws, "steering", watched)
    alpha = Labeling(alg3.ground, alg3, counted)
    runs = []
    for _ in range(2):
        labeled.clear()
        asked.clear()
        report = check_law(alpha, "L3", SampleConfig(cases=200))
        assert sum(asked.values()) > len(asked)  # some list is asked for again
        assert set(labeled.values()) == {1}
        assert len(labeled) == sum(3 ** len(X) for X, _ in asked)
        runs.append((report.to_json(), sorted(asked.items(), key=repr), len(labeled)))
    # the second run builds each list again: nothing outlives a law run
    assert runs[0] == runs[1]
