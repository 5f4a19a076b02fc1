"""The builder's kappa and alpha against the free reference functions, the
fold prefixes that kappa's cache holds, its indexed build_H against the
per-candidate admission loop, the ranks and closure masks that build_H gives
H's terms, harvested draws that do not depend on the hash seed, the
instance calls that ``represent`` makes, and the builder's id-keyed memo:
exact when equal values are distinct objects, in operand order, and free of
value hashes once warm."""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orbsemi
from orbsemi.mutants import MUTANTS, make_mutant
from orbsemi.orbital import SampleConfig
from orbsemi import labeling
from orbsemi.labeling import Labeling, quotient
from orbsemi.representation import (GroundTerm, RepCaps, RepresentationBuilder,
                                     alpha_tilde, base_tuple_for, eta, harvested_checks,
                                     kappa, represent)
from orbsemi.tables import Table, TableAlgebra, leq, natural_join
from orbsemi.transforms import FPTransform, astrict, compose, partial_identity
from orbsemi.tuples import NTuple

SRC = Path(orbsemi.__file__).resolve().parent.parent


def _reordered(b, rng, duplicate):
    """b∘ξ for a random injective ξ onto df(b); with ``duplicate``, ξ also
    sends one more source to a variable it already hits, so b∘ξ is not
    injective."""
    tgts = sorted(b.df)
    rng.shuffle(tgts)
    if duplicate:
        tgts.append(rng.choice(tgts))
    srcs = sorted(rng.sample(range(1, 2 * len(tgts) + 2), len(tgts)))
    return compose(b, FPTransform.of(dict(zip(srcs, tgts))))


def _reference_base_tuple(t):
    """The subterm closure of rng(t), found by a recursive walk of the terms,
    in term order on x1, x2, ..."""
    closure = set()

    def visit(term):
        if term not in closure:
            closure.add(term)
            for c in term.children:
                visit(c)

    for term in t.rng:
        visit(term)
    return NTuple.of(dict(enumerate(sorted(closure, key=GroundTerm.sort_key), start=1)))


def _instance(ground, mutant_id=None):
    base = TableAlgebra(set(ground))
    return base if mutant_id is None else make_mutant(mutant_id, base)


def _pair_tuples(terms):
    return [NTuple.of({1: g, 2: h}) for g, h in itertools.product(terms, repeat=2)]


def _odd_tuples(terms, rng):
    """The empty tuple, <x3:g, x5:g> for each term g (gapped variables and a
    repeated term), and 50 seeded tuples of width 3 on variables drawn from
    x1 .. x6, whose terms may repeat."""
    yield NTuple(())
    for g in terms:
        yield NTuple.of({3: g, 5: g})
    for _ in range(50):
        xs = sorted(rng.sample(range(1, 7), 3))
        yield NTuple.of(dict(zip(xs, rng.choices(terms, k=3))))


#: Tab(G) at depth 2 and with deep shared fold prefixes (the 120 terms up to
#: depth 5 are the stratum-cut run of the benchmark), and every mutant at
#: depth 2.  Every mutant's meet commutes on Tab(G): only meet-incomparable-zero
#: replaces the meet, and the table order is antisymmetric.  So these cases do
#: not pin the meet's operand order; ``_LeftMeetTab`` below does
_MEMO_CASES = [
    pytest.param("ab", None, RepCaps(), id="Tab(a,b)"),
    pytest.param("a", None, RepCaps(depth=4), id="Tab(a)-depth4"),
    pytest.param("a", None, RepCaps(depth=5, max_terms_per_stratum=120),
                 id="Tab(a)-depth5-stratum120"),
    pytest.param("ab", None, RepCaps(max_symbols=300), id="Tab(a,b)-symbols300"),
    *(pytest.param("ab", m, RepCaps(), id=m) for m in sorted(MUTANTS)),
    *(pytest.param("a", m, RepCaps(), id=f"Tab(a)-{m}") for m in sorted(MUTANTS)),
]


@pytest.mark.parametrize("ground, mutant_id, caps", _MEMO_CASES)
def test_builder_matches_the_free_reference(ground, mutant_id, caps):
    inst = _instance(ground, mutant_id)
    builder = RepresentationBuilder(inst, caps)
    builder.build_H()
    assert builder.terms
    rng = random.Random(0)
    for b in builder.base_pool(rng):
        assert builder.kappa(b) == kappa(b, inst)
        if b.pairs:
            for duplicate in (False, True):
                b_xi = _reordered(b, rng, duplicate)
                assert b_xi.is_injective() != duplicate
                assert builder.kappa(b_xi) == kappa(b_xi, inst)
    for t in _pair_tuples(builder.terms):
        assert base_tuple_for(t) == _reference_base_tuple(t)
        assert builder.alpha(t) == alpha_tilde(t, inst)
    for t in _odd_tuples(builder.terms, rng):
        assert builder.alpha(t) == alpha_tilde(t, inst)


@pytest.mark.parametrize("mutant_id", [None, "meet-incomparable-zero"],
                         ids=lambda m: m or "Tab(a,b)")
def test_shared_folds_do_not_depend_on_the_order_of_evaluation(mutant_id):
    inst = _instance("ab", mutant_id)
    forward, backward = RepresentationBuilder(inst), RepresentationBuilder(inst)
    forward.build_H()
    backward.build_H()
    bases = list(dict.fromkeys(base_tuple_for(t) for t in _pair_tuples(forward.terms)))
    got = {b: forward.kappa(b) for b in bases}
    got_back = {b: backward.kappa(b) for b in reversed(bases)}
    for b in bases:
        assert got[b] == got_back[b] == kappa(b, inst)


@pytest.mark.parametrize("mutant_id", [None, "meet-incomparable-zero"],
                         ids=lambda m: m or "Tab(a,b)")
def test_kappa_caches_every_prefix_of_its_fold(mutant_id):
    inst = _instance("ab", mutant_id)
    builder = RepresentationBuilder(inst)
    builder.build_H()
    rng = random.Random(0)
    bases = []
    for b in builder.base_pool(rng):
        bases.append(b)
        if b.pairs:
            bases.extend(_reordered(b, rng, duplicate) for duplicate in (False, True))
    for b in bases:
        builder._kappa_cache.clear()
        builder.kappa(b)
        ordered = sorted(b.rng, key=GroundTerm.sort_key)
        for k in range(len(ordered) + 1):
            prefix = astrict(b, frozenset(ordered[:k]))
            assert builder._kappa_cache[prefix] == kappa(prefix, inst)


@pytest.mark.parametrize("ground, mutant_id, caps", [
    pytest.param("a", None, RepCaps(depth=4), id="Tab(a)-depth4"),
    pytest.param("ab", "meet-incomparable-zero", RepCaps(), id="meet-incomparable-zero"),
])
def test_quotient_over_the_builder_matches_the_free_reference(monkeypatch, ground,
                                                              mutant_id, caps):
    # the related sets are those that quotient-equivalence is given
    related = []
    equivalence = labeling._quotient_equivalence

    def seen(ctx, term):
        if not related or related[-1] is not ctx.related:
            related.append(ctx.related)
        return equivalence(ctx, term)

    monkeypatch.setattr(labeling, "_quotient_equivalence", seen)
    inst = _instance(ground, mutant_id)
    builder = RepresentationBuilder(inst, caps)
    builder.build_H()
    cfg = SampleConfig(seed=0, cases=50)
    free = Labeling(builder.terms, inst, lambda t: alpha_tilde(t, inst))
    got, want = (quotient(alpha, cfg)
                 for alpha in (Labeling(builder.terms, inst, builder.alpha), free))
    assert len(related) == 2 and related[0] == related[1]
    assert got[0] == want[0]
    assert [r.to_json() for r in got[2]] == [r.to_json() for r in want[2]]


def _build_H_per_candidate(builder) -> tuple:
    """(strata, stratum_truncated) from the admission loop that tests the
    admission equation v·π_{x1..xn} = α(t) for each (symbol, children) pair,
    with α(t) evaluated through t's sorted base tuple, not over the ranks and
    masks of ``build_H``; kept as the reference for the indexed ``build_H``."""
    strata, current, stratum_truncated = [frozenset()], set(), False
    for _ in range(builder.caps.depth):
        admitted = []
        pool = sorted(current, key=GroundTerm.sort_key)
        for v, n in builder.symbols:
            lhs = builder.inst.act(v, partial_identity(range(1, n + 1)))
            for combo in itertools.permutations(pool, n):
                term, t = GroundTerm(v, combo), NTuple.of(dict(enumerate(combo, start=1)))
                if term not in current and lhs == builder.eval_via(base_tuple_for(t), t):
                    admitted.append(term)
        admitted.sort(key=GroundTerm.sort_key)
        room = builder.caps.max_terms_per_stratum - len(current)
        if len(admitted) > room:
            admitted, stratum_truncated = admitted[:room], True
        current |= set(admitted)
        strata.append(frozenset(current))
    return strata, stratum_truncated


_BUILD_H_CASES = [
    pytest.param("a", None, RepCaps(depth=5, max_terms_per_stratum=120),
                 id="Tab(a)-depth5-stratum120"),
    pytest.param("ab", None, RepCaps(depth=3), id="Tab(a,b)-depth3"),
    *(pytest.param(g, m, RepCaps(), id=f"{name}-{m}")
      for g, name in (("a", "Tab(a)"), ("ab", "Tab(a,b)")) for m in sorted(MUTANTS)),
]


@pytest.mark.parametrize("ground, mutant_id, caps", _BUILD_H_CASES)
def test_indexed_build_H_matches_the_per_candidate_loop(ground, mutant_id, caps):
    inst = _instance(ground, mutant_id)
    builder = RepresentationBuilder(inst, caps)
    builder.build_H()
    want = _build_H_per_candidate(RepresentationBuilder(inst, caps))
    strata = [frozenset(builder.terms[:n]) for n in builder.strata_sizes]
    assert (strata, builder.stratum_truncated) == want
    assert builder.terms == sorted(want[0][-1], key=GroundTerm.sort_key)


#: (ground, mutant, caps, the cap that cuts H): the benchmark's 120-term run
#: and Tab({a,b}) at depth 3, both cut by the stratum cap, Tab({a,b,c}),
#: cut by the symbol cap, and every mutant on Tab({a,b})
_RANK_CASES = [
    pytest.param("a", None, RepCaps(depth=5, max_terms_per_stratum=120), "stratum",
                 id="Tab(a)-depth5-stratum120"),
    pytest.param("ab", None, RepCaps(depth=3), "stratum", id="Tab(a,b)-depth3"),
    pytest.param("abc", None, RepCaps(), "symbols", id="Tab(a,b,c)"),
    *(pytest.param("ab", m, RepCaps(), None, id=f"Tab(a,b)-{m}") for m in sorted(MUTANTS)),
]


@pytest.mark.parametrize("ground, mutant_id, caps, cut", _RANK_CASES)
def test_build_H_ranks_terms_in_term_order_with_closure_masks(ground, mutant_id, caps, cut):
    builder = RepresentationBuilder(_instance(ground, mutant_id), caps)
    builder.build_H()
    if cut is not None:
        assert getattr(builder, f"{cut}_truncated")
    assert builder.terms == sorted(set(builder.terms), key=GroundTerm.sort_key)
    assert builder.strata_sizes[-1] == len(builder.terms)
    assert len(builder._masks) == len(builder._rank) == len(builder.terms)
    for i, term in enumerate(builder.terms):
        assert builder._rank[term] == i
        assert builder._masks[i] == sum(1 << builder._rank[s] for s in term.subterms())
        assert builder._eta_ranks[i] == tuple(builder._rank[a] for _, a in eta(term))


def test_rep_membership_rechecks_with_admissible(monkeypatch):
    calls = []
    admissible = RepresentationBuilder.admissible

    def counted(self, v, children):
        calls.append((v, children))
        return admissible(self, v, children)

    monkeypatch.setattr(RepresentationBuilder, "admissible", counted)
    builder = RepresentationBuilder(TableAlgebra({"a", "b"}))
    builder.build_H()
    assert not calls  # build_H admits through its index
    report = next(r for r in harvested_checks(builder, SampleConfig())
                  if r.check_id == "rep-membership")
    assert report.passed
    assert sorted(calls, key=lambda c: GroundTerm(*c).sort_key()) == [
        (t.head, t.children) for t in builder.terms]


#: prints the JSON of every rep-* report on Tab({a}) at depth 4, then the
#: instance meets that the harvested checks make (rep-kappa-split's draws
#: decide which kappas it meets)
_PROBE = """
import json
from orbsemi.orbital import SampleConfig
from orbsemi.representation import RepCaps, RepresentationBuilder, harvested_checks
from orbsemi.tables import TableAlgebra

class CountingTab(TableAlgebra):
    meets = 0

    def meet(self, u, v):
        CountingTab.meets += 1
        return super().meet(u, v)

builder = RepresentationBuilder(CountingTab({"a"}), RepCaps(depth=4))
builder.build_H()
CountingTab.meets = 0
for report in harvested_checks(builder, SampleConfig()):
    print(json.dumps(report.to_json()))
print(CountingTab.meets)
"""


def _probe(script, hash_seed):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_harvested_draws_do_not_depend_on_the_hash_seed():
    first, *others = (_probe(_PROBE, s) for s in (0, 1, 2))
    assert first.count("\n") == 12  # eleven rep-* reports and the meet count
    assert all(out == first for out in others)


#: prints, for each of the benchmark's three embed runs at seed 0 (26, 60
#: and 120 terms), then for ``meet-incomparable-zero`` on Tab({a,b}), the
#: meet, act and one calls that reach the instance during ``represent``
_CALLS_PROBE = """
import json
from collections import Counter
from orbsemi.mutants import make_mutant
from orbsemi.orbital import SampleConfig
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import TableAlgebra

calls = Counter()

def counted(inst):
    for name in ("meet", "act", "one"):
        def call(*args, f=getattr(inst, name), name=name):
            calls[name] += 1
            return f(*args)
        setattr(inst, name, call)
    return inst

for inst, caps in ((TableAlgebra({"a"}), RepCaps(depth=4)),
                   (TableAlgebra({"a", "b"}), RepCaps(max_symbols=300)),
                   (TableAlgebra({"a"}), RepCaps(depth=5, max_terms_per_stratum=120)),
                   (make_mutant("meet-incomparable-zero", TableAlgebra({"a", "b"})),
                    RepCaps())):
    calls.clear()
    represent(counted(inst), SampleConfig(seed=0, cases=200), caps)
    print(json.dumps(calls))
"""

#: the counts of ``_CALLS_PROBE``: a change to the builder's or the
#: labelings' memos must leave the instance's work alone.  A meet memo keyed
#: on the unordered pair of operands would make fewer meet calls.  The
#: mutant's ``leq`` is a meet, ``quotient`` tests each distinct label
#: against the diagonal once, and L3 tests each tuple of a steering list
#: against v·π_X once per law run, so the mutant makes 1,260 meets (1,756
#: when L3 rebuilt the list in every case that steers, 2,064 when
#: ``quotient`` also tested every atom pair's label)
_INSTANCE_CALLS = [
    {"act": 1464, "meet": 454, "one": 3},
    {"act": 3127, "meet": 997, "one": 3},
    {"act": 2269, "meet": 1016, "one": 3},
    {"act": 1040, "meet": 1260, "one": 3},
]

#: the benchmark's three embed runs, whose calls are the first three counts
_EMBED_RUNS = [("a", RepCaps(depth=4)), ("ab", RepCaps(max_symbols=300)),
               ("a", RepCaps(depth=5, max_terms_per_stratum=120))]


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_represent_makes_the_pinned_instance_calls(hash_seed):
    out = _probe(_CALLS_PROBE, hash_seed)
    assert [json.loads(line) for line in out.splitlines()] == _INSTANCE_CALLS


class _FreshTab(TableAlgebra):
    """Tab(G) that returns a fresh copy of every meet, act and one result, so
    that equal values reach the builder as distinct objects, and counts those
    calls."""

    def __init__(self, ground):
        super().__init__(ground)
        self.calls = {"act": 0, "meet": 0, "one": 0}

    def meet(self, u, v):
        self.calls["meet"] += 1
        return copy.copy(super().meet(u, v))

    def act(self, u, lam):
        self.calls["act"] += 1
        return copy.copy(super().act(u, lam))

    def one(self):
        self.calls["one"] += 1
        return copy.copy(super().one())


@pytest.mark.parametrize("run, calls", zip(_EMBED_RUNS, _INSTANCE_CALLS[:3]),
                         ids=["Tab(a)-depth4", "Tab(a,b)-symbols300",
                              "Tab(a)-depth5-stratum120"])
def test_id_keys_are_exact_when_equal_values_are_distinct_objects(run, calls):
    ground, caps = run
    cfg = SampleConfig(seed=0, cases=200)
    fresh = _FreshTab(set(ground))
    assert fresh.one() is not fresh.one()
    fresh.calls["one"] = 0
    got = represent(fresh, cfg, caps).to_json()
    want = represent(TableAlgebra(set(ground)), cfg, caps).to_json()
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
    assert fresh.calls == calls


def test_membership_does_not_depend_on_the_head_object():
    # the terms of H, then each symbol over the first stratum of Tab({a,b}):
    # 45 of those 324 are admissible.  Each head is a fresh copy, dropped
    # after its call, so the ids of unkept copies are reused; a memo keyed
    # on them would give stale hits
    builder = RepresentationBuilder(TableAlgebra({"a", "b"}))
    builder.build_H()
    pool = builder.terms[:builder.strata_sizes[1]]
    candidates = [*builder.terms, *(GroundTerm(v, combo) for v, n in builder.symbols
                                    for combo in itertools.permutations(pool, n))]
    want = [builder.satisfies_membership_characterization(t) for t in candidates]
    assert sum(want) == 45 + 45 and len(want) == 45 + 324
    fresh = RepresentationBuilder(TableAlgebra({"a", "b"}))
    fresh.build_H()
    for t, ok in zip(candidates, want):
        head = copy.copy(t.head)
        assert head == t.head and head is not t.head
        assert fresh.satisfies_membership_characterization(GroundTerm(head, t.children)) == ok
    assert all(fresh._kept[v] is v for v, _ in fresh.symbols)


class _LeftMeetTab(TableAlgebra):
    """Tab(G) whose meet of incomparable tables is its left operand, so that
    the meet does not commute."""

    def meet(self, u, v):
        return natural_join(u, v) if leq(u, v) or leq(v, u) else u


def test_meet_memo_keeps_the_operand_order():
    # meet-incomparable-zero commutes on Tab(G), whose order is antisymmetric,
    # so the pinned calls above see the order only where a fold meets two
    # values in both orders; here every kept pair is met in both orders
    inst = _LeftMeetTab({"a", "b"})
    builder = RepresentationBuilder(inst)
    builder.build_H()
    kept = list(builder._kept)[:30]
    pairs = list(itertools.permutations(kept, 2))
    assert sum(inst.meet(u, v) != inst.meet(v, u) for u, v in pairs) > 100
    for u, v in pairs:
        assert builder._meet(u, v) == inst.meet(u, v)


def test_a_warm_alpha_pass_hashes_and_compares_no_table_or_transform(monkeypatch):
    calls = dict.fromkeys(["Table.__hash__", "Table.__eq__",
                           "FPTransform.__hash__", "FPTransform.__eq__"], 0)
    for cls in (Table, FPTransform):
        for name in ("__hash__", "__eq__"):
            def counted(*args, f=getattr(cls, name), key=f"{cls.__name__}.{name}"):
                calls[key] += 1
                return f(*args)
            monkeypatch.setattr(cls, name, counted)
    builder = RepresentationBuilder(TableAlgebra({"a", "b"}))
    builder.build_H()
    pairs = _pair_tuples(builder.terms)
    cold = [builder.alpha(t) for t in pairs]
    assert calls["Table.__hash__"] > 0  # each new result is kept by value
    calls.update(dict.fromkeys(calls, 0))
    warm = [builder.alpha(t) for t in pairs]
    assert calls == dict.fromkeys(calls, 0)
    assert all(u is v for u, v in zip(warm, cold))
