"""The builder's memoized kappa and alpha against the free reference
functions, and harvested draws that do not depend on the hash seed."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orbsemi
from orbsemi.mutants import MUTANTS, make_mutant
from orbsemi.representation import (GroundTerm, RepresentationBuilder, alpha_tilde,
                                     base_tuple_for, kappa)
from orbsemi.tables import TableAlgebra
from orbsemi.transforms import FPTransform, compose
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


@pytest.mark.parametrize("mutant_id", [None, *sorted(MUTANTS)],
                         ids=lambda m: m or "Tab(a,b)")
def test_builder_matches_the_free_reference(mutant_id):
    base = TableAlgebra({"a", "b"})
    inst = base if mutant_id is None else make_mutant(mutant_id, base)
    builder = RepresentationBuilder(inst)
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
    terms = sorted(H.terms, key=GroundTerm.sort_key)
    for g, h in itertools.product(terms, repeat=2):
        t = NTuple.of({1: g, 2: h})
        assert base_tuple_for(t) == _reference_base_tuple(t)
        assert builder.alpha(t) == alpha_tilde(t, inst)


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
