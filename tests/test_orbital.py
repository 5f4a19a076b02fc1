import random

import pytest

from orbsemi.orbital import (
    AXIOM_IDS,
    DERIVED_IDS,
    TRANSFORM_BUDGET,
    SampleConfig,
    _AXIOMS,
    _DERIVED,
    _domains,
    _duplication_case,
    _random_folding,
    _random_injection,
    _run_check,
    _transform_pool,
    check_all_axioms,
    check_all_derived,
    check_axiom,
    check_derived,
    e_diag,
)
from orbsemi import labeling
from orbsemi.labeling import _EMBEDDING, _LABELING
from orbsemi.mutants import TARGETS, make_mutant
from orbsemi.representation import (_REPRESENTATION, RepresentationBuilder, _arranged,
                                     _picked, _subset)
from orbsemi.tables import TableAlgebra, natural_join
from orbsemi.transforms import EMPTY, FPTransform, is_folding, partial_identity


@pytest.fixture(scope="module")
def alg():
    return TableAlgebra({"a", "b"})


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(var_window=1)
    with pytest.raises(ValueError, match="cases must be >= 1"):
        SampleConfig(cases=0)
    assert SampleConfig(var_window=3).window == {1, 2, 3}


def test_axioms_pass_on_tab(alg):
    cfg = SampleConfig(cases=150)
    for report in check_all_axioms(alg, cfg):
        assert report.passed, report.summary()
        assert not report.vacuous, report.check_id


def test_derived_pass_on_tab(alg):
    cfg = SampleConfig(cases=150)
    for report in check_all_derived(alg, cfg):
        assert report.passed, report.summary()
        assert not report.vacuous, report.check_id


def test_unknown_ids_rejected(alg):
    cfg = SampleConfig()
    with pytest.raises(ValueError):
        check_axiom(alg, "A99", cfg)
    with pytest.raises(ValueError):
        check_derived(alg, "nope", cfg)


def test_reports_deterministic_by_seed(alg):
    cfg = SampleConfig(cases=80, seed=7)
    r1 = check_axiom(alg, "A3", cfg)
    r2 = check_axiom(alg, "A3", cfg)
    assert r1.to_json() == r2.to_json()


def test_seed_changes_sampling(alg):
    a = check_axiom(alg, "A3", SampleConfig(cases=80, seed=1))
    b = check_axiom(alg, "A3", SampleConfig(cases=80, seed=2))
    # same verdict, applicable counts may differ
    assert a.passed and b.passed
    assert a.seed != b.seed


def test_transform_pool_exhaustive_for_window_three():
    cfg = SampleConfig(var_window=3)
    pool = _transform_pool(cfg, random.Random(0))
    assert len(pool) == 4 ** 3
    assert len(set(pool)) == len(pool)


def test_transform_pool_sampled_for_window_four():
    # 5 ** 4 = 625 transformations are too many to enumerate, so the pool is
    # the empty map, the identity on the window and seeded random draws
    cfg = SampleConfig(var_window=4)
    pool = _transform_pool(cfg, random.Random(0))
    assert len(set(pool)) == len(pool) == TRANSFORM_BUDGET  # a repeat re-runs cases
    assert pool[:2] == [EMPTY, partial_identity({1, 2, 3, 4})]
    for lam in pool:
        assert lam.df <= cfg.window and lam.rng <= cfg.window
    assert _transform_pool(cfg, random.Random(0)) == pool
    assert _transform_pool(cfg, random.Random(1)) != pool


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_random_injection_is_injective(width):
    # injective-act-meet relies on this: its targets come from rng.sample
    window = list(range(1, width + 1))
    for seed in range(200):
        lam = _random_injection(random.Random(seed), window)
        assert lam.is_injective()
        assert lam.df <= set(window) and lam.rng <= set(window)


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_random_foldings_land_in_the_window_or_the_retract(width):
    # folding-below-diagonal and the duplication laws take delta as drawn:
    # its domain lies in the window and its values in the retract, the
    # points that delta fixes
    window = list(range(1, width + 1))
    for seed in range(200):
        delta = _random_folding(random.Random(seed), window)
        assert is_folding(delta) and delta.df <= set(window)
        assert delta.rng == {x for x, y in delta.pairs if x == y}


def _declared(body) -> list:
    code = body.__code__
    return list(code.co_varnames[1:code.co_argcount])


#: every registered check body, by its check id
BODIES = [*_AXIOMS.items(), *_DERIVED.items(), *_LABELING.items(), *_EMBEDDING.items(),
          *_REPRESENTATION.items()]


@pytest.mark.parametrize("check_id, body", BODIES)
def test_every_quantified_variable_names_a_domain(check_id, body):
    # an undeclared name would raise KeyError, which the CLI reports as a
    # usage error (exit 2) instead of a verification fault
    domains = _domains(random.Random(0), [])
    context = "ctx" if check_id in {*_LABELING, *_EMBEDDING, *_REPRESENTATION} else "inst"
    assert body.__code__.co_varnames[0] == context
    assert set(_declared(body)) <= set(domains), check_id


def test_every_domain_is_declared_by_some_body():
    # the other direction: a domain that no check quantifies over is dead code
    declared = {name for _, body in BODIES for name in _declared(body)}
    assert set(_domains(random.Random(0), [])) - declared == set()


class CountingTab(TableAlgebra):
    """Tab(G) that counts the element pools built from it."""

    element_pools = 0

    def element_pool(self, cfg, rng):
        self.element_pools += 1
        return super().element_pool(cfg, rng)


@pytest.mark.parametrize("check_id, body", BODIES)
def test_pools_follow_the_declared_variables(check_id, body, monkeypatch):
    # a check builds the element pool only when it draws u, v or vs, the
    # tuple pool only when it draws t, and the base pool only when it draws b
    tuple_pools, base_pools = [], []
    tuple_pool = labeling._Laws.tuple_pool
    monkeypatch.setattr(labeling._Laws, "tuple_pool",
                        lambda ctx, cfg, rng: tuple_pools.append(1) or tuple_pool(ctx, cfg, rng))
    base_pool = RepresentationBuilder.base_pool
    monkeypatch.setattr(RepresentationBuilder, "base_pool",
                        lambda ctx, rng: base_pools.append(1) or base_pool(ctx, rng))
    inst, cfg = CountingTab({"a"}), SampleConfig(cases=1)
    if check_id in _AXIOMS:
        check_axiom(inst, check_id, cfg)
    elif check_id in _DERIVED:
        check_derived(inst, check_id, cfg)
    elif check_id in _REPRESENTATION:
        builder = RepresentationBuilder(inst)
        builder.build_H()
        _run_check(builder, check_id, body, cfg)
    else:
        labeling.check_law(labeling.singleton_labeling(inst), check_id, cfg)
    declared = set(_declared(body))
    assert inst.element_pools == bool(declared & {"u", "v", "vs"}), check_id
    assert len(tuple_pools) == ("t" in declared), check_id
    assert len(base_pools) == ("b" in declared), check_id


@pytest.mark.parametrize("axiom_id", AXIOM_IDS)
def test_counterexample_lists_only_the_declared_variables(alg, axiom_id):
    # the declared variables in order, then the body's extra fields, then
    # case_index; no variable that the axiom does not quantify over
    report = check_axiom(make_mutant(TARGETS[axiom_id], alg), axiom_id,
                         SampleConfig(cases=100))
    keys = list(report.counterexample)
    declared = _declared(_AXIOMS[axiom_id])
    assert keys[:len(declared)] == declared
    assert keys[-1] == "case_index"
    extras = keys[len(declared):-1]
    assert extras and not set(extras) & set(_domains(random.Random(0), []))


@pytest.mark.parametrize("body", [*_AXIOMS.values(), *_DERIVED.values(), _duplication_case,
                                  *_LABELING.values(), *_EMBEDDING.values(),
                                  *_REPRESENTATION.values(), _subset, _picked, _arranged])
def test_bodies_draw_nothing_themselves(body):
    # every value a case needs comes from the declared domains
    assert not {"random", "choice", "sample", "randrange"} & set(body.__code__.co_names)


@pytest.mark.parametrize("prop_id", ["zero-dom-all", "zero-neq-one"])
def test_a_check_without_variables_runs_one_case(alg, prop_id):
    # the case draws nothing, so more cases would repeat it
    report = check_derived(alg, prop_id, SampleConfig(cases=50))
    assert (report.cases_run, report.cases_applicable, report.passed) == (1, 1, True)


def test_e_diag(alg):
    delta = FPTransform.of({1: 1, 2: 1})
    e = e_diag(alg, delta)
    assert e == natural_join(alg.diag(1, 1), alg.diag(2, 1))
    with pytest.raises(ValueError):
        e_diag(alg, FPTransform.of({1: 2}))  # not a folding
    assert e_diag(alg, partial_identity({1})) == alg.diag(1, 1)


def test_check_id_sets():
    assert len(AXIOM_IDS) == 13
    assert set(DERIVED_IDS) >= {"dom-antitone", "order-via-dom-projection",
                                "injective-act-meet", "diag-rename-single",
                                "diag-rename-pair", "diag-symmetric",
                                "folding-below-diagonal", "duplication-meet",
                                "duplication-fixed"}


def test_report_json_shape(alg):
    r = check_axiom(alg, "A1", SampleConfig(cases=50))
    data = r.to_json()
    assert data["id"] == "A1"
    assert data["status"] == "pass"
    assert data["cases"] >= 50  # at least cfg.cases; pool sweep may add more
    assert data["counterexample"] is None
