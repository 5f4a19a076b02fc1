import itertools
import json
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from orbsemi.labeling import singleton_labeling
from orbsemi.mutants import MutantAlgebra, make_mutant
from orbsemi.orbital import ELEMENT_BUDGET, SampleConfig
from orbsemi.representation import (
    GroundTerm,
    RepCaps,
    RepresentationBuilder,
    _arranged,
    _reachable_elements,
    alpha_tilde,
    arity,
    base_tuple_for,
    eta,
    harvested_checks,
    is_base_tuple,
    kappa,
    represent,
    subterm_closure,
)
from orbsemi.tables import Table, TableAlgebra, all_rows
from orbsemi.transforms import FPTransform, astrict
from orbsemi.tuples import NTuple, atom_key, merge


@pytest.fixture(scope="module")
def alg():
    return TableAlgebra({"a"})


@pytest.fixture(scope="module")
def alg2():
    return TableAlgebra({"a", "b"})


def built(inst, caps=None):
    builder = RepresentationBuilder(inst, caps)
    builder.build_H()
    return builder


def stratum(builder, k):
    """H^(k): the prefix of the builder's terms that ``strata_sizes`` gives."""
    return frozenset(builder.terms[:builder.strata_sizes[k]])


def unary_const(alg, atom="a"):
    return Table.from_rows(alg.ground, {NTuple.of({1: atom})})


def test_arity(alg):
    c = unary_const(alg)
    assert arity(alg, c) == 0
    pair = Table.from_rows(alg.ground, {NTuple.of({1: "a", 2: "a"})})
    assert arity(alg, pair) == 1
    off_segment = Table.from_rows(alg.ground, {NTuple.of({2: "a"})})
    assert arity(alg, off_segment) is None
    assert arity(alg, alg.zero()) is None
    assert arity(alg, alg.one()) is None


def test_subterm_closure(alg):
    c = GroundTerm(unary_const(alg))
    f = Table.from_rows(alg.ground, {NTuple.of({1: "a", 2: "a"})})
    t = GroundTerm(f, (c,))
    assert subterm_closure([c]) == {c}
    assert subterm_closure([t]) == {t, c}
    assert subterm_closure(subterm_closure([t])) == subterm_closure([t])


def test_term_depth_and_order(alg):
    c = GroundTerm(unary_const(alg))
    f = Table.from_rows(alg.ground, {NTuple.of({1: "a", 2: "a"})})
    t = GroundTerm(f, (c,))
    assert c.depth == 1 and t.depth == 2
    assert c.sort_key() < t.sort_key()  # children precede parents


@pytest.fixture(scope="module")
def terms2(alg2):
    return stratum(built(alg2, RepCaps(depth=2)), -1)


def test_atom_key_orders_terms_as_the_term_order(terms2):
    assert sorted(terms2, key=atom_key) == sorted(terms2, key=GroundTerm.sort_key)


@pytest.mark.parametrize("kind", ["strings", "terms"])
@pytest.mark.parametrize("X", [set(), {2}, {3, 1}])
def test_all_rows_matches_the_product_reference(terms2, kind, X):
    # _reachable_elements and rep-extension-witness walk all_rows and rely on
    # this order: the product over the atoms in term order, on sorted variables
    atoms = {"b", "c", "a"} if kind == "strings" else terms2
    order = sorted(atoms, key=str if kind == "strings" else GroundTerm.sort_key)
    want = [NTuple.of(dict(zip(sorted(X), combo)))
            for combo in itertools.product(order, repeat=len(X))]
    assert list(all_rows(atoms, X)) == want


def test_base_tuple_for(alg):
    c = GroundTerm(unary_const(alg))
    f = Table.from_rows(alg.ground, {NTuple.of({1: "a", 2: "a"})})
    t = GroundTerm(f, (c,))
    b = base_tuple_for(NTuple.of({5: t}))
    assert b == NTuple.of({1: c, 2: t})
    assert is_base_tuple(b)
    assert base_tuple_for(NTuple(())) == NTuple(())
    assert b.rng == subterm_closure({t})


def test_eta(alg):
    c = GroundTerm(unary_const(alg))
    assert eta(c) == NTuple.of({1: c})
    f = Table.from_rows(alg.ground, {NTuple.of({1: "a", 2: "a"})})
    t = GroundTerm(f, (c,))
    assert eta(t) == NTuple.of({1: c, 2: t})


def test_kappa_examples(alg):
    assert kappa(NTuple(()), alg) == alg.one()
    c = GroundTerm(unary_const(alg))
    assert kappa(NTuple.of({1: c}), alg) == unary_const(alg)


def test_alpha_tilde_of_empty_tuple_is_one(alg):
    assert alpha_tilde(NTuple(()), alg) == alg.one()


def test_alpha_tilde_base_independent(alg2):
    terms = built(alg2).terms[:6]
    for t in terms:
        tup = NTuple.of({2: t})
        b = base_tuple_for(tup)
        # same range, reversed variable assignment
        rev = NTuple.of({len(b.pairs) - i: a for i, (_, a) in enumerate(b.pairs)})
        assert alpha_tilde(tup, alg2) == alpha_tilde(tup, alg2, base=rev)


def test_build_H_single_atom(alg):
    H = built(alg, RepCaps(depth=2))
    assert stratum(H, 0) == frozenset()
    assert len(stratum(H, 1)) == 1  # the single constant over {a}
    (c,) = stratum(H, 1)
    assert c.children == ()
    assert c.head == unary_const(alg)
    assert not H.symbols_truncated and not H.stratum_truncated


def test_build_H_constants_stratum(alg2):
    H = built(alg2, RepCaps(depth=1))
    assert len(H.strata_sizes) == 2
    assert all(t.depth == 1 for t in H.terms)
    assert len(H.terms) == 3  # nonempty row subsets of the one-column space


def test_admitted_terms_recheck(alg2):
    builder = built(alg2)
    for t in builder.terms:
        assert builder.satisfies_membership_characterization(t)


def test_symbol_truncation_reported(alg2):
    caps = RepCaps(depth=1, max_symbols=2)
    builder = RepresentationBuilder(alg2, caps)
    assert builder.symbols_truncated
    assert len(builder.symbols) == 2


def test_symbol_cap_reached_exactly_is_not_truncation(alg):
    # Tab({a}) has one symbol of each width 1..3
    builder = RepresentationBuilder(alg, RepCaps(max_symbols=3))
    assert len(builder.symbols) == 3 and not builder.symbols_truncated
    builder = RepresentationBuilder(alg, RepCaps(max_symbols=2))
    assert len(builder.symbols) == 2 and builder.symbols_truncated


def test_kappa_split_halves_merge_back(alg2):
    # rep-kappa-split relies on this: each pair of b is kept in b1 or in b2
    builder = RepresentationBuilder(alg2)
    builder.build_H()
    for b in builder.base_pool(random.Random(0)):
        vals = sorted(b.rng, key=GroundTerm.sort_key)
        for k in range(len(vals) + 1):
            for half in map(frozenset, itertools.combinations(vals, k)):
                b1 = astrict(b, subterm_closure(half))
                b2 = astrict(b, subterm_closure(b.rng - half))
                assert merge(b1, b2) == b


@pytest.mark.parametrize("ground, depth, size", [("a", 3, 10), ("ab", 1, 8), ("ab", 2, 46)])
def test_base_pool_has_one_base_per_term(ground, depth, size):
    # the empty tuple, each term's closure in term order, then random
    # closures while the pool holds fewer than ELEMENT_BUDGET tuples (Tab({a})
    # at depth 3 has only 10 base tuples; Tab({a,b}) at depth 2 has 45 terms)
    builder = RepresentationBuilder(TableAlgebra(set(ground)), RepCaps(depth=depth))
    builder.build_H()
    pool = builder.base_pool(random.Random(0))
    head = [NTuple(())] + [base_tuple_for(NTuple.of({1: t})) for t in builder.terms]
    assert pool[:len(head)] == head
    assert len(set(pool)) == len(pool) == size <= max(len(head), ELEMENT_BUDGET)
    assert all(is_base_tuple(b) for b in pool)


def test_stratum_truncation_reported(alg2):
    H = built(alg2, RepCaps(depth=2, max_terms_per_stratum=10))
    assert H.stratum_truncated
    assert len(H.terms) == 10


def test_build_H_leaves_caller_caps_alone(alg2):
    caps = RepCaps(depth=1, max_terms_per_stratum=10)
    assert len(built(alg2, caps).strata_sizes) == 2
    assert caps == RepCaps(depth=1, max_terms_per_stratum=10)


def test_caps_validation():
    with pytest.raises(ValueError):
        RepCaps(depth=0)


def test_format_term(alg):
    builder = built(alg)
    names = sorted(builder.format_term(t) for t in builder.terms)
    assert names[0] == "s0"
    assert "(" in names[1]


def test_pipeline_single_atom(alg):
    report = represent(alg, SampleConfig(cases=60))
    assert report.passed
    assert report.error is None
    assert report.strata_sizes == [0, 1, 2]
    assert report.quotient_classes == 1
    check_ids = {r.check_id for r in report.checks}
    assert {"rep-membership", "rep-kappa-dom", "rep-eta-recovery",
            "rep-kappa-nonzero", "quasi/L1", "quasi/L2", "quasi/L3", "full/L1",
            "full/L2", "full/L3", "full/L4", "emb-dom", "emb-meet", "emb-act",
            "emb-diag"} <= check_ids
    assert len(check_ids) == len(report.checks)  # no id twice


def test_pipeline_report_json(alg):
    report = represent(alg, SampleConfig(cases=40))
    data = report.to_json()
    assert data["status"] == "pass"
    assert data["strata_sizes"] == [0, 1, 2]
    assert isinstance(data["terms"], list) and data["terms"]
    assert data["fragment_classes"] >= 1


def test_pipeline_reports_an_empty_H(alg):
    no_constants = MutantAlgebra(alg, "no-constants", None,
                                 elements_with_schema=lambda b, X: iter(()))
    report = represent(no_constants, SampleConfig(cases=40))
    assert report.error == "H is empty (no constants in the signature)"
    assert not report.passed
    data = report.to_json()
    assert data["status"] == "fail" and data["checks"] == []
    assert list(data) == ["strata_sizes", "symbol_count", "symbols_truncated",
                          "stratum_truncated", "terms", "quotient_classes",
                          "fragment_classes", "reachable_count", "coverage", "error",
                          "checks", "status"]


def test_reachable_elements_labels_every_pair_over_a_large_ground():
    # the bounds, {<>} = one, the 65 singletons over {x1}, then every one of
    # the 65² over {x1, x2}: none is sampled away
    alg = TableAlgebra({f"g{i:02}" for i in range(65)})
    got = _reachable_elements(singleton_labeling(alg))
    assert got[:2] == [alg.zero(), alg.one()]
    assert len(set(got)) == len(got) == 2 + 65 + 65 ** 2


def test_counterexample_bits_survive_a_double_based_json_reader(alg):
    builder = RepresentationBuilder(make_mutant("act-trim-map", alg))
    builder.build_H()
    report = next(r for r in harvested_checks(builder, SampleConfig())
                  if r.check_id == "rep-kappa-reorder")
    assert not report.passed
    shown = json.loads(json.dumps(report.to_json()), parse_int=float)["counterexample"]
    assert len(shown["bits"]) == 77
    # the shown bits pick the shown xi again
    n = shown["xi"].count("->")
    order = _arranged(range(1, 2 * n + 2), int(shown["bits"]))
    xi = FPTransform.of(dict(zip(sorted(order[:n]), [x for x in order if x <= n])))
    assert repr(xi) == shown["xi"]


# ---------------------------------------------------------------------------
# GroundTerm: cached hash, depth and sort key against recursive references

_G2 = frozenset({"a", "b"})
_heads = st.sampled_from([
    Table.from_rows(_G2, {NTuple.of({1: "a"})}),
    Table.from_rows(_G2, {NTuple.of({1: "a"}), NTuple.of({1: "b"})}),
    Table.from_rows(_G2, {NTuple.of({1: "b", 2: "a"})}),
    "f",
    "g",
])


def _term_specs(max_depth):
    """(head, children) specs of trees with at most ``max_depth`` levels."""
    spec = st.tuples(_heads, st.just(()))
    for _ in range(max_depth - 1):
        spec = st.one_of(spec, st.tuples(_heads, st.lists(spec, max_size=3).map(tuple)))
    return spec


def _build(spec):
    head, children = spec
    return GroundTerm(head, tuple(_build(c) for c in children))


def _ref_depth(t):
    return 1 + max((_ref_depth(c) for c in t.children), default=0)


def _ref_sort_key(t):
    head = (1, t.head.sort_key()) if hasattr(t.head, "sort_key") else (0, str(t.head))
    return (_ref_depth(t), head, tuple(_ref_sort_key(c) for c in t.children))


@given(_term_specs(5))
def test_ground_term_cached_fields_match_reference(spec):
    t = _build(spec)
    assert t.depth == _ref_depth(t)
    assert t.sort_key() == _ref_sort_key(t)
    assert t.sort_key() is t.sort_key()


def _ref_subterms(t):
    """The subterm closure of {t}, by a recursive walk of the tree."""
    out = {t}
    for c in t.children:
        out |= _ref_subterms(c)
    return out


@given(_term_specs(5))
def test_ground_term_subterms_match_subterm_closure(spec):
    t = _build(spec)
    assert t.subterms() == _ref_subterms(t)
    assert subterm_closure([t]) == _ref_subterms(t)
    assert t.subterms() is t.subterms()


@given(_term_specs(5), _term_specs(5))
def test_ground_term_structural_equality_and_hash(spec1, spec2):
    t1, again = _build(spec1), _build(spec1)
    assert t1 is not again
    assert t1 == again and not t1 != again
    assert hash(t1) == hash(again) == hash((t1.head, t1.children))
    t2 = _build(spec2)
    assert (t1 == t2) == (spec1 == spec2)
    assert len({t1, again, t2}) == (1 if spec1 == spec2 else 2)


class _CollidingHead:
    """Heads that all hash alike but are equal only to themselves."""

    def __hash__(self):
        return 7


def test_ground_term_equality_is_structural_under_hash_collision():
    h1, h2 = _CollidingHead(), _CollidingHead()
    t1, t2 = GroundTerm(h1), GroundTerm(h2)
    assert hash(t1) == hash(t2)
    assert t1 != t2 and len({t1, t2}) == 2
    assert GroundTerm(h1, (t1,)) != GroundTerm(h1, (t2,))


def test_ground_term_is_immutable_and_picklable(alg):
    c = GroundTerm(unary_const(alg))
    t = GroundTerm(unary_const(alg), (c,))
    with pytest.raises(FrozenInstanceError):
        t.head = None
    with pytest.raises(FrozenInstanceError):
        del t.children
    assert t != (t.head, t.children)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and copy.depth == 2
