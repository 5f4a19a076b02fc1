"""Kill matrix: which checks fail under each mutant on Tab({a,b}).

Each mutant perturbs one operation of Tab(G) (see ``orbsemi.mutants``).  The
matrix pins, for every mutant, the failing ids among the 13 axioms, the 17
derived properties and the labeling laws L1-L4 plus the ``emb-*`` checks of
the singleton labeling, so a change to the checker or to the mutants that
alters what is caught shows up here.  The measure follows mutation analysis
(DeMillo, Lipton and Sayward, 1978).  The ``rep-*`` column pins what
``represent`` reports on Tab({a}); the rest of the pipeline column is ROADMAP
item 4.
"""

import pytest

from orbsemi.labeling import (QuotientError, check_embedding, check_labeling,
                              singleton_labeling)
from orbsemi.mutants import MUTANTS, make_mutant
from orbsemi.orbital import SampleConfig, check_all_axioms, check_all_derived, check_derived
from orbsemi.representation import represent
from orbsemi.tables import TableAlgebra

CFG = SampleConfig(cases=100)

#: mutant id -> (failing axioms, failing derived properties,
#:               failing labeling and embedding checks)
KILLS = {
    "empty-proj-zero": (
        ["A1", "A4", "A7", "A8", "A11"],
        ["one-absorbs-act", "act-astrict-dom", "injective-act-meet"],
        ["L2", "emb-act"],
    ),
    "zero-act-top": (
        ["A2", "A3", "A5"],
        ["order-via-dom-projection", "injective-act-meet"],
        ["emb-act"],
    ),
    "meet-incomparable-zero": (
        ["A3", "A6"],
        ["folding-below-diagonal"],
        ["emb-meet"],
    ),
    "proj-drop-row": (
        ["A3", "A4", "A5", "A6", "A7", "A8", "A10"],
        ["act-astrict-dom", "order-via-dom-projection", "injective-act-meet",
         "diag-rename-single", "diag-rename-pair", "duplication-meet",
         "duplication-fixed"],
        ["emb-act"],
    ),
    "act-zero-big": (
        ["A1", "A3", "A4", "A5", "A6", "A8", "A10", "A11"],
        ["order-via-dom-projection", "injective-act-meet", "diag-rename-single",
         "diag-rename-pair", "duplication-meet", "duplication-fixed"],
        ["emb-act"],
    ),
    "diag-full": (
        ["A6", "A10"],
        ["duplication-meet", "duplication-fixed"],
        ["L4", "emb-diag"],
    ),
    "act-trim-map": (
        ["A3", "A6", "A7", "A8", "A10", "A11"],
        ["act-astrict-dom", "order-via-dom-projection", "injective-act-meet",
         "diag-rename-pair", "folding-below-diagonal", "duplication-meet",
         "duplication-fixed"],
        ["L2", "L3", "emb-act"],
    ),
    "neutral-inflate": (
        ["A3", "A7", "A8"],
        ["act-astrict-dom", "order-via-dom-projection", "injective-act-meet",
         "diag-rename-pair", "duplication-meet", "duplication-fixed"],
        ["L2", "L3", "emb-act"],
    ),
    "diag-xx-empty": (
        ["A9", "A10", "A13"],
        ["diag-dom", "folding-below-diagonal"],
        ["emb-diag"],
    ),
    "diag-top": (
        ["A6", "A10"],
        ["diag-dom", "duplication-meet", "duplication-fixed"],
        ["L4", "emb-diag"],
    ),
    "dom-drop-max": (
        ["A3", "A6", "A8", "A11", "A13"],
        ["diag-dom", "one-iff-empty-dom", "act-astrict-dom", "meet-dom-union",
         "order-via-dom-projection", "injective-act-meet", "duplication-meet",
         "duplication-fixed"],
        ["L1", "L3", "emb-dom", "emb-injective", "emb-act", "emb-diag"],
    ),
    "dom-top-all": (
        ["A11", "A12", "A13"],
        ["dom-antitone", "nonzero-iff-finite-dom", "one-iff-empty-dom",
         "meet-dom-union"],
        ["L1"],  # the emb-* checks raise; see the test below
    ),
    "dom-extra-var": (
        ["A11", "A13"],
        ["diag-dom", "one-iff-empty-dom", "meet-dom-union", "folding-below-diagonal"],
        ["L1", "emb-dom", "emb-injective", "emb-diag", "emb-bounds"],
    ),
}


@pytest.fixture(scope="module")
def base():
    return TableAlgebra({"a", "b"})


def _failing(reports):
    return [r.check_id for r in reports if not r.passed]


def test_matrix_covers_every_mutant():
    assert set(KILLS) == set(MUTANTS)


@pytest.mark.parametrize("mutant_id", sorted(KILLS))
def test_kill_matrix_row(base, mutant_id):
    axioms, derived, labeling = KILLS[mutant_id]
    inst = make_mutant(mutant_id, base)
    assert _failing(check_all_axioms(inst, CFG)) == axioms
    assert _failing(check_all_derived(inst, CFG)) == derived
    alpha = singleton_labeling(inst)
    got = _failing(check_labeling(alpha, "full", CFG))
    if mutant_id != "dom-top-all":
        got += _failing(check_embedding(alpha, CFG))
    assert got == labeling


#: (mutant, derived property) pairs that 100 cases do not catch at seed 0:
#: the property's hypothesis is a filter on freely drawn variables, so few
#: cases apply.  400 cases catch each of them at seeds 0-4.
SLOW_KILLS = [
    ("zero-act-top", "folding-below-diagonal"),
    ("meet-incomparable-zero", "duplication-meet"),
    ("dom-top-all", "folding-below-diagonal"),
]


@pytest.mark.parametrize("mutant_id, prop_id", SLOW_KILLS)
def test_slow_kill_at_400_cases(base, mutant_id, prop_id):
    inst = make_mutant(mutant_id, base)
    for seed in range(5):
        assert not check_derived(inst, prop_id, SampleConfig(cases=400, seed=seed)).passed


def test_dom_top_all_embedding_raises(base):
    # ROADMAP item 4: dom(1) = ALL makes extent(1) raise instead of failing a
    # check with a counterexample
    alpha = singleton_labeling(make_mutant("dom-top-all", base))
    with pytest.raises(ValueError, match="extent needs a finite domain"):
        check_embedding(alpha, CFG)


#: mutant id -> the rep-* checks that fail when ``represent`` runs on Tab({a})
#: under it, for the mutants that catch any; every other rep-* check passes
REP_KILLS = {
    "dom-drop-max": ["rep-membership", "rep-kappa-dom"],
    "dom-extra-var": ["rep-membership", "rep-kappa-dom"],
    "empty-proj-zero": ["rep-nested-reduction", "rep-extended-eta"],
}

#: mutant id -> what ``represent`` on Tab({a}) raises instead of reporting
#: (ROADMAP item 4)
REP_RAISES = {
    "act-trim-map": (QuotientError, "relation is not an equivalence"),
    "dom-top-all": (ValueError, "extent needs a finite domain"),
}


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS))
def test_rep_kill_column(mutant_id):
    inst = make_mutant(mutant_id, TableAlgebra({"a"}))
    if mutant_id in REP_RAISES:
        error, text = REP_RAISES[mutant_id]
        with pytest.raises(error, match=text):
            represent(inst, SampleConfig())
        return
    checks = represent(inst, SampleConfig()).checks
    assert _failing(c for c in checks if c.check_id.startswith("rep-")) == \
        REP_KILLS.get(mutant_id, [])
