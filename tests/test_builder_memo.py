"""The builder's memoized kappa and alpha against the free reference
functions, the fold prefixes that kappa's cache holds, its indexed build_H
against the per-candidate admission loop, and harvested draws that do not
depend on the hash seed."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orbsemi
from orbsemi.mutants import MUTANTS, make_mutant
from orbsemi.orbital import SampleConfig
from orbsemi.representation import (GroundTerm, HSet, RepCaps, RepresentationBuilder,
                                     alpha_tilde, base_tuple_for, harvested_checks, kappa)
from orbsemi.tables import TableAlgebra
from orbsemi.transforms import FPTransform, astrict, compose
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


#: Tab(G) at depth 2 and with deep shared fold prefixes, and every mutant at
#: depth 2, whose meet may not commute, which pins the fold order
_MEMO_CASES = [
    pytest.param("ab", None, RepCaps(), id="Tab(a,b)"),
    pytest.param("a", None, RepCaps(depth=4), id="Tab(a)-depth4"),
    pytest.param("ab", None, RepCaps(max_symbols=300), id="Tab(a,b)-symbols300"),
    *(pytest.param("ab", m, RepCaps(), id=m) for m in sorted(MUTANTS)),
    *(pytest.param("a", m, RepCaps(), id=f"Tab(a)-{m}") for m in sorted(MUTANTS)),
]


@pytest.mark.parametrize("ground, mutant_id, caps", _MEMO_CASES)
def test_builder_matches_the_free_reference(ground, mutant_id, caps):
    inst = _instance(ground, mutant_id)
    builder = RepresentationBuilder(inst, caps)
    H = builder.build_H()
    assert H.terms
    rng = random.Random(0)
    for b in builder.base_pool(rng):
        assert builder.kappa(b) == kappa(b, inst)
        if b.pairs:
            for duplicate in (False, True):
                b_xi = _reordered(b, rng, duplicate)
                assert b_xi.is_injective() != duplicate
                assert builder.kappa(b_xi) == kappa(b_xi, inst)
    for t in _pair_tuples(sorted(H.terms, key=GroundTerm.sort_key)):
        assert base_tuple_for(t) == _reference_base_tuple(t)
        assert builder.alpha(t) == alpha_tilde(t, inst)


@pytest.mark.parametrize("mutant_id", [None, "meet-incomparable-zero"],
                         ids=lambda m: m or "Tab(a,b)")
def test_shared_folds_do_not_depend_on_the_order_of_evaluation(mutant_id):
    inst = _instance("ab", mutant_id)
    forward, backward = RepresentationBuilder(inst), RepresentationBuilder(inst)
    terms = sorted(forward.build_H().terms, key=GroundTerm.sort_key)
    backward.build_H()
    bases = list(dict.fromkeys(base_tuple_for(t) for t in _pair_tuples(terms)))
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


def _build_H_per_candidate(builder) -> HSet:
    """The admission loop that tests each (symbol, children) pair with
    ``admissible``, kept as the reference for the indexed ``build_H``."""
    strata, current, stratum_truncated = [frozenset()], set(), False
    for _ in range(builder.caps.depth):
        admitted = []
        pool = sorted(current, key=GroundTerm.sort_key)
        for v, n in builder.symbols:
            for combo in itertools.permutations(pool, n):
                term = GroundTerm(v, combo)
                if term not in current and builder.admissible(v, combo):
                    admitted.append(term)
        admitted.sort(key=GroundTerm.sort_key)
        room = builder.caps.max_terms_per_stratum - len(current)
        if len(admitted) > room:
            admitted, stratum_truncated = admitted[:room], True
        current |= set(admitted)
        strata.append(frozenset(current))
    return HSet(strata, builder.symbols_truncated, stratum_truncated)


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
    H = builder.build_H()
    want = _build_H_per_candidate(RepresentationBuilder(inst, caps))
    assert H == want
    assert builder.terms == sorted(want.terms, key=GroundTerm.sort_key)


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


def _probe(hash_seed):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_harvested_draws_do_not_depend_on_the_hash_seed():
    first, *others = (_probe(s) for s in (0, 1, 2))
    assert first.count("\n") == 12  # eleven rep-* reports and the meet count
    assert all(out == first for out in others)
