"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import json
import random
import sys
import time

from orbsemi.cli import main
from orbsemi.exprlang import eval_expr, parse, print_expr
from orbsemi.labeling import check_labeling, extent, singleton_labeling
from orbsemi.mutants import TARGETS, make_mutant
from orbsemi.orbital import (
    AXIOM_IDS,
    DERIVED_IDS,
    SampleConfig,
    _DERIVED,
    check_all_axioms,
    check_all_derived,
    check_axiom,
)
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import (
    Table,
    TableAlgebra,
    act_table,
    diagonal,
    enumerate_tables,
    natural_join,
    subsets,
)
from orbsemi.tableio import table_to_csv, table_to_json
from orbsemi.transforms import (
    all_transforms,
    compose,
    decompose,
    is_folding,
    is_injective,
    is_partial_identity,
    partial_identity,
)
from orbsemi.tuples import NTuple

from exprgen import random_expr


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
    print(line)
    print(line, file=sys.__stderr__)
    assert ok, line


def small_schemas():
    return [X for X in subsets([1, 2])]


def test_criterion_1_axiom_suite_on_tab():
    start = time.monotonic()
    total_cases = 0
    for ground in ({"a"}, {"a", "b"}, {"a", "b", "c"}):
        alg = TableAlgebra(ground)
        cfg = SampleConfig(var_window=3, cases=800, seed=0)
        # the element pool must contain the full exhaustive core
        pool = alg.element_pool(cfg, random.Random(cfg.seed))
        core = enumerate_tables(ground, small_schemas())
        assert all(T in pool for T in core)
        if len(ground) == 2:
            # 15 + 3 + 3 nonempty tables plus top and bottom; enumerating the
            # empty row set once per schema would count 26 with multiplicity
            assert len(core) == 23
        ground_cases = 0
        for r in check_all_axioms(alg, cfg):
            assert r.passed, r.summary()
            assert not r.vacuous, r.check_id
            ground_cases += r.cases_run
        assert ground_cases >= 10_000, ground_cases
        total_cases += ground_cases
    elapsed = time.monotonic() - start
    report("criterion 1", elapsed < 60,
           f"3 grounds x 13 axioms, {total_cases} cases, {elapsed:.1f}s")


def test_criterion_2_decomposition_exhaustive():
    start = time.monotonic()
    count = 0
    for f in all_transforms(range(1, 5), range(1, 5)):
        delta, sigma, pi = decompose(f)
        assert is_folding(delta), f
        assert is_injective(sigma), f
        assert is_partial_identity(pi), f
        assert compose(pi, compose(sigma, delta)) == f, f
        count += 1
    elapsed = time.monotonic() - start
    assert count == 625
    report("criterion 2", elapsed < 10, f"{count} transforms, {elapsed:.2f}s")


def test_criterion_3_folding_criterion_equivalence():
    count = 0
    for f in all_transforms(range(1, 5), range(1, 5)):
        pi = partial_identity(f.rng)
        assert is_folding(f) == (compose(f, pi) == pi), f
        count += 1
    report("criterion 3", count == 625, f"{count} transforms")


def test_criterion_4_derived_suite():
    alg = TableAlgebra({"a", "b"})
    cfg = SampleConfig(cases=400, seed=0)
    weakest = None
    for r in check_all_derived(alg, cfg):
        assert r.passed, r.summary()
        if _DERIVED[r.check_id].__code__.co_argcount == 1:
            # a law without variables runs once, and that case decides it
            assert (r.cases_run, r.cases_applicable) == (1, 1), r.check_id
            continue
        assert r.cases_applicable >= 100, (r.check_id, r.cases_applicable)
        if weakest is None or r.cases_applicable < weakest[1]:
            weakest = (r.check_id, r.cases_applicable)
    report("criterion 4", True,
           f"{len(DERIVED_IDS)} properties, weakest {weakest[0]} with "
           f"{weakest[1]} applicable cases")


def test_criterion_5_mutation_sensitivity():
    alg = TableAlgebra({"a", "b"})
    cfg = SampleConfig(cases=300, seed=0)
    caught = 0
    for axiom_id in AXIOM_IDS:
        mutant = make_mutant(TARGETS[axiom_id], alg)
        r = check_axiom(mutant, axiom_id, cfg)
        assert not r.passed, f"{mutant.mutant_id} slipped past {axiom_id}"
        assert r.counterexample is not None
        replay = check_axiom(mutant, axiom_id, cfg)
        assert replay.counterexample == r.counterexample
        caught += 1
    report("criterion 5", caught == 13, f"{caught}/13 mutants caught")


def test_criterion_6_labeling_and_extent():
    alg = TableAlgebra({"a", "b"})
    alpha = singleton_labeling(alg)
    for r in check_labeling(alpha, "full", SampleConfig(cases=300)):
        assert r.passed and not r.vacuous, r.summary()
    tables = enumerate_tables(alg.ground, small_schemas())
    ext = {T: extent(alpha, T) for T in tables}
    assert all(ext[T] == T for T in tables)
    # the per-operation embedding equations on the exhaustive set
    for u in tables:
        for v in tables:
            assert ext[u] != ext[v] or u == v
            assert extent(alpha, natural_join(u, v)) == natural_join(
                ext[u], ext[v])
        for lam in all_transforms([1, 2], [1, 2]):
            assert extent(alpha, act_table(u, lam)) == act_table(ext[u], lam)
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            assert extent(alpha, alg.diag(x, y)) == diagonal(x, y, alg.ground)
    assert extent(alpha, alg.zero()) == alg.zero()
    assert extent(alpha, alg.one()) == alg.one()
    report("criterion 6", True,
           f"L1-L4 plus {len(tables)}-table extent identity and equations")


def test_criterion_7_representation_pipeline():
    start = time.monotonic()
    required = {"rep-membership", "rep-kappa-dom", "rep-kappa-reorder",
                "rep-kappa-split", "rep-base-independence", "rep-eta-recovery",
                "rep-nested-reduction", "rep-kappa-nonzero"}
    for ground in ({"a"}, {"a", "b"}):
        rep = represent(TableAlgebra(ground), SampleConfig(cases=150, seed=0),
                        RepCaps(depth=2))
        assert rep.error is None
        assert rep.passed, [r.summary() for r in rep.checks if not r.passed]
        ids = {r.check_id for r in rep.checks}
        assert required <= ids
        for r in rep.checks:
            if r.check_id in required:
                assert not r.vacuous, r.check_id
        emb = [r for r in rep.checks if r.check_id.startswith("emb-")]
        assert emb and all(r.passed for r in emb)
    elapsed = time.monotonic() - start
    report("criterion 7", elapsed < 300,
           f"Tab({{a}}) and Tab({{a,b}}) at depth 2, {elapsed:.1f}s")


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    rng = random.Random(2024)
    for _ in range(1000):
        e = random_expr(rng)
        assert parse(print_expr(e)) == e
    # golden corpus: CLI output must match direct library evaluation bit-exactly
    G = frozenset({"a", "b"})
    t1 = Table.from_rows(G, {NTuple.of({1: "a", 2: "b"}),
                             NTuple.of({1: "b", 2: "a"})})
    t2 = Table.from_rows(G, {NTuple.of({1: "a"})})
    p1 = tmp_path / "T1.csv"
    p1.write_text(table_to_csv(t1))
    p2 = tmp_path / "T2.csv"
    p2.write_text(table_to_csv(t2))
    corpus = [
        "T1 JOIN T2",
        "T1.project{x2}",
        "T1.rename{x3->x1} JOIN DIAG(x1,x2)",
        "TOP JOIN T1",
        "BOTTOM JOIN T1",
        "DIAG(x1,x2).project{x1}",
        "T2 JOIN T2.rename{x2->x1}",
        "T1.project{}",
    ]
    env = {"T1": t1, "T2": t2}
    for src in corpus:
        code = main(["eval", src, "--tables", str(p1), str(p2),
                     "--ground", "a,b", "--format", "json"])
        assert code == 0, src
        got = capsys.readouterr().out
        want = json.dumps(table_to_json(eval_expr(parse(src), env, G)),
                          indent=2) + "\n"
        assert got == want, src
    report("criterion 8", True, "1000 round-trips, golden corpus of "
           f"{len(corpus)} expressions")
