"""Unit tests of ``orbital.run_cases``, the loop every check family runs on."""

import itertools

from orbsemi.labeling import check_embedding, check_labeling, singleton_labeling
from orbsemi.orbital import SampleConfig, check_all_axioms, check_all_derived, run_cases
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import Table, TableAlgebra
from orbsemi.transforms import FPTransform
from orbsemi.tuples import NTuple


def _detail_never_called():
    raise AssertionError("detail built on a passing case")


def test_stops_at_first_failure_with_its_index():
    seen = []

    def body(n):
        seen.append(n)
        if n % 2:
            return None  # odd cases do not apply
        if n == 6:
            return False, lambda: {"n": n}
        return True, _detail_never_called

    report = run_cases("demo", 7, range(20), body)
    assert not report.passed
    assert report.counterexample == {"n": 6, "case_index": 6}
    assert seen == [0, 1, 2, 3, 4, 5, 6]
    assert report.cases_run == 7
    assert report.cases_applicable == 4  # 0, 2, 4 and 6
    assert report.seed == 7
    assert not report.vacuous


def test_counts_on_a_passing_run():
    report = run_cases("demo", 0, range(10),
                       lambda n: None if n < 3 else (True, _detail_never_called))
    assert report.passed and not report.vacuous
    assert report.counterexample is None
    assert (report.cases_run, report.cases_applicable) == (10, 7)


def test_empty_and_inapplicable_runs_are_vacuous():
    empty = run_cases("demo", 0, [], lambda n: (False, lambda: {}))
    assert empty.vacuous and empty.passed
    assert (empty.cases_run, empty.cases_applicable) == (0, 0)
    skipped = run_cases("demo", 0, range(5), lambda n: None)
    assert skipped.vacuous and skipped.passed
    assert (skipped.cases_run, skipped.cases_applicable) == (5, 0)
    assert skipped.to_json()["status"] == "vacuous"


def test_cases_are_drawn_lazily_and_not_past_a_failure():
    counter = itertools.count()
    drawn = []

    def cases():
        for n in counter:
            drawn.append(n)
            yield n

    def body(n):
        # the generator has drawn exactly the cases handed out so far
        assert drawn == list(range(n + 1))
        return n != 3, lambda: {}

    report = run_cases("demo", 0, cases(), body)
    assert report.counterexample == {"case_index": 3}
    assert drawn == [0, 1, 2, 3]
    assert next(counter) == 4  # nothing was drawn after the failing case


def test_detail_only_built_on_failure():
    built = []

    def body(n):
        return n < 50, lambda: built.append(n) or {"n": n}

    report = run_cases("demo", 0, range(100), body)
    assert built == [50]
    assert report.counterexample == {"n": 50, "case_index": 50}


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
