"""Unit tests of the case loop in ``orbital._run_check``, which every check
family runs on.

The contexts below hand out the numbers 0, 1, 2, ... as their terms, so a
body that declares ``term`` sees case ``i`` as the number ``i``."""

from types import SimpleNamespace

from orbsemi.labeling import check_embedding, check_labeling, singleton_labeling
from orbsemi.orbital import (SampleConfig, _run_check, check_all_axioms,
                             check_all_derived)
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import Table, TableAlgebra
from orbsemi.transforms import FPTransform
from orbsemi.tuples import NTuple


class Numbers(list):
    """The terms 0 .. n-1, recording the index of each one handed out."""

    def __init__(self, n):
        super().__init__(range(n))
        self.drawn = []

    def __getitem__(self, i):
        self.drawn.append(i)
        return super().__getitem__(i)


def _run(ctx, body, seed=0):
    # cases=1: the check runs one case per term
    return _run_check(ctx, "demo", body, SampleConfig(cases=1, seed=seed))


def _context(n):
    return SimpleNamespace(terms=Numbers(n))


def _detail_never_called():
    raise AssertionError("detail built on a passing case")


def test_stops_at_first_failure_with_its_index():
    seen = []

    def body(ctx, term):
        seen.append(term)
        if term % 2:
            return None  # odd cases do not apply
        if term == 6:
            return False, lambda: {"n": term}
        return True, _detail_never_called

    report = _run(_context(20), body, seed=7)
    assert not report.passed
    assert report.counterexample == {"term": 6, "n": 6, "case_index": 6}
    assert seen == [0, 1, 2, 3, 4, 5, 6]
    assert report.cases_run == 7
    assert report.cases_applicable == 4  # 0, 2, 4 and 6
    assert report.seed == 7
    assert not report.vacuous


def test_counts_on_a_passing_run():
    report = _run(_context(10),
                  lambda ctx, term: None if term < 3 else (True, _detail_never_called))
    assert report.passed and not report.vacuous
    assert report.counterexample is None
    assert (report.cases_run, report.cases_applicable) == (10, 7)


def test_empty_and_inapplicable_runs_are_vacuous():
    # a body without variables runs one case, here one that does not apply
    empty = _run(_context(0), lambda ctx: None)
    assert empty.vacuous and empty.passed
    assert (empty.cases_run, empty.cases_applicable) == (1, 0)
    skipped = _run(_context(5), lambda ctx, term: None)
    assert skipped.vacuous and skipped.passed
    assert (skipped.cases_run, skipped.cases_applicable) == (5, 0)
    assert skipped.to_json()["status"] == "vacuous"


def test_cases_are_drawn_lazily_and_not_past_a_failure():
    def body(ctx, term):
        # the run has drawn exactly the cases handed out so far
        assert ctx.terms.drawn == list(range(term + 1))
        return term != 3, lambda: {}

    ctx = _context(100)
    report = _run(ctx, body)
    assert report.counterexample == {"term": 3, "case_index": 3}
    assert ctx.terms.drawn == [0, 1, 2, 3]  # nothing was drawn after the failing case


def test_detail_only_built_on_failure():
    built = []

    def body(ctx, term):
        return term < 50, lambda: built.append(term) or {"n": term}

    report = _run(_context(100), body)
    assert built == [50]
    assert report.counterexample == {"term": 50, "n": 50, "case_index": 50}


def test_passing_checks_build_no_counterexample_text(monkeypatch):
    # every family on Tab(G) passes, so no value may be rendered
    def no_repr(self):
        raise AssertionError(f"repr of a {type(self).__name__} on a passing run")

    for cls in (Table, NTuple, FPTransform):
        monkeypatch.setattr(cls, "__repr__", no_repr)
    alg = TableAlgebra({"a", "b"})
    cfg = SampleConfig(cases=60)
    reports = check_all_axioms(alg, cfg) + check_all_derived(alg, cfg)
    alpha = singleton_labeling(alg)
    reports += check_labeling(alpha, "full", cfg) + check_embedding(alpha, cfg)
    reports += represent(TableAlgebra({"a"}), cfg, RepCaps(depth=2)).checks
    assert all(r.passed for r in reports)
