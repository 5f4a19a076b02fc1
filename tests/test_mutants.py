import pytest

from orbsemi.mutants import MUTANTS, TARGETS, MutantAlgebra, make_mutant
from orbsemi.orbital import AXIOM_IDS, OrbitalInstance, SampleConfig, check_axiom
from orbsemi.tables import TableAlgebra


@pytest.fixture(scope="module")
def base():
    return TableAlgebra({"a", "b"})


def test_corpus_covers_every_axiom():
    assert set(TARGETS) == set(AXIOM_IDS)
    assert len(MUTANTS) == 13
    assert TARGETS["A10"] == "diag-top"


@pytest.mark.parametrize("axiom_id", AXIOM_IDS)
def test_targeted_checker_catches_mutant(base, axiom_id):
    mutant = make_mutant(TARGETS[axiom_id], base)
    report = check_axiom(mutant, axiom_id, SampleConfig(cases=300))
    assert not report.passed, f"{mutant.mutant_id} slipped past {axiom_id}"
    assert report.counterexample is not None
    assert "case_index" in report.counterexample


@pytest.mark.parametrize("axiom_id", AXIOM_IDS)
def test_counterexample_replayable(base, axiom_id):
    mutant = make_mutant(TARGETS[axiom_id], base)
    cfg = SampleConfig(cases=300, seed=5)
    first = check_axiom(mutant, axiom_id, cfg)
    second = check_axiom(mutant, axiom_id, cfg)
    assert first.counterexample == second.counterexample
    assert first.counterexample["case_index"] == second.counterexample["case_index"]


def test_unknown_mutant_rejected(base):
    with pytest.raises(ValueError):
        make_mutant("no-such-mutant", base)


def test_base_still_passes_other_axiom(base):
    # a mutant is a local perturbation, not a global scramble: the wrapped
    # base algebra itself stays green
    report = check_axiom(base, "A10", SampleConfig(cases=200))
    assert report.passed


def test_mutant_is_a_delegating_instance(base):
    mutant = make_mutant("diag-top", base)
    assert isinstance(mutant, OrbitalInstance)
    assert mutant.mutant_id == "diag-top" and mutant.target_axiom == "A10"
    assert mutant.ground == base.ground
    assert mutant.diag(1, 2) == base.one()  # the replaced operation
    assert mutant.diag(1, 1) == base.diag(1, 1)
    assert mutant.meet(base.diag(1, 2), base.one()) == base.diag(1, 2)  # delegated
    with pytest.raises(ValueError):
        MutantAlgebra(base, "bad", "A1", leq=lambda b, u, v: True)


def test_mutant_leq_sees_the_replaced_meet(base):
    # a meet that always gives 0 leaves only 0 below anything
    mutant = MutantAlgebra(base, "meet-zero", None, meet=lambda b, u, v: b.zero())
    assert base.leq(base.one(), base.one())
    assert not mutant.leq(base.one(), base.one())
    assert mutant.leq(base.zero(), base.one())
