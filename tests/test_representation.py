import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from orbsemi.orbital import SampleConfig
from orbsemi.representation import (
    GroundTerm,
    HSet,
    RepCaps,
    RepresentationBuilder,
    alpha_tilde,
    arity,
    base_tuple_for,
    build_H,
    eta,
    is_base_tuple,
    kappa,
    represent,
    subterm_closure,
    term_key,
)
from orbsemi.tables import Table, TableAlgebra
from orbsemi.tuples import NTuple


@pytest.fixture(scope="module")
def alg():
    return TableAlgebra({"a"})


@pytest.fixture(scope="module")
def alg2():
    return TableAlgebra({"a", "b"})


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
    assert term_key(c) < term_key(t)  # children precede parents


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
    builder = RepresentationBuilder(alg2)
    H = builder.build_H()
    terms = sorted(H.terms, key=term_key)[:6]
    for t in terms:
        tup = NTuple.of({2: t})
        b = base_tuple_for(tup)
        # same range, reversed variable assignment
        rev = NTuple.of({len(b.pairs) - i: a for i, (_, a) in enumerate(b.pairs)})
        assert alpha_tilde(tup, alg2) == alpha_tilde(tup, alg2, base=rev)


def test_build_H_single_atom(alg):
    H = build_H(alg, depth=2)
    assert H.strata[0] == frozenset()
    assert len(H.strata[1]) == 1  # the single constant over {a}
    (c,) = H.strata[1]
    assert c.children == ()
    assert c.head == unary_const(alg)
    assert not H.symbols_truncated and not H.stratum_truncated


def test_build_H_constants_stratum(alg2):
    H = build_H(alg2, depth=1)
    assert len(H.strata) == 2
    assert all(t.depth == 1 for t in H.terms)
    assert len(H.terms) == 3  # nonempty row subsets of the one-column space


def test_admitted_terms_recheck(alg2):
    builder = RepresentationBuilder(alg2)
    H = builder.build_H()
    for t in H.terms:
        assert builder.satisfies_membership_characterization(H, t)


def test_symbol_truncation_reported(alg2):
    caps = RepCaps(depth=1, max_symbols=2)
    builder = RepresentationBuilder(alg2, caps)
    assert builder.symbols_truncated
    assert len(builder.symbols) == 2


def test_stratum_truncation_reported(alg2):
    H = build_H(alg2, depth=2, caps=RepCaps(max_terms_per_stratum=10))
    assert H.stratum_truncated
    assert len(H.terms) == 10


def test_build_H_leaves_caller_caps_alone(alg2):
    caps = RepCaps(max_terms_per_stratum=10)
    H = build_H(alg2, depth=1, caps=caps)
    assert len(H.strata) == 2
    assert caps == RepCaps(max_terms_per_stratum=10)


def test_caps_validation():
    with pytest.raises(ValueError):
        RepCaps(depth=0)


def test_format_term(alg):
    builder = RepresentationBuilder(alg)
    H = builder.build_H()
    names = sorted(builder.format_term(t) for t in H.terms)
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
            "rep-kappa-nonzero", "L1", "L2", "L3", "L4", "emb-dom",
            "emb-meet", "emb-act", "emb-diag"} <= check_ids


def test_pipeline_report_json(alg):
    report = represent(alg, SampleConfig(cases=40))
    data = report.to_json()
    assert data["status"] == "pass"
    assert data["strata_sizes"] == [0, 1, 2]
    assert isinstance(data["terms"], list) and data["terms"]
    assert data["fragment_classes"] >= 1


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
    head = t.head.sort_key() if hasattr(t.head, "sort_key") else str(t.head)
    return (_ref_depth(t), head, tuple(_ref_sort_key(c) for c in t.children))


@given(_term_specs(5))
def test_ground_term_cached_fields_match_reference(spec):
    t = _build(spec)
    assert t.depth == _ref_depth(t)
    assert t.sort_key() == _ref_sort_key(t)
    assert t.sort_key() is t.sort_key()
    assert term_key(t) == t.sort_key()


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
