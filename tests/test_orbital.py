import random

import pytest

from orbsemi.orbital import (
    AXIOM_IDS,
    DERIVED_IDS,
    TRANSFORM_BUDGET,
    SampleConfig,
    _transform_pool,
    check_all_axioms,
    check_all_derived,
    check_axiom,
    check_derived,
    e_diag,
)
from orbsemi.tables import TableAlgebra, natural_join
from orbsemi.transforms import EMPTY, FPTransform, partial_identity


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
    assert len(pool) == TRANSFORM_BUDGET
    assert pool[:2] == [EMPTY, partial_identity({1, 2, 3, 4})]
    for lam in pool:
        assert lam.df <= cfg.window and lam.rng <= cfg.window
    assert _transform_pool(cfg, random.Random(0)) == pool
    assert _transform_pool(cfg, random.Random(1)) != pool


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
