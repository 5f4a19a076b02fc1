import json

import pytest

from orbsemi import labeling
from orbsemi.cli import main
from orbsemi.tableio import table_to_csv, table_to_json
from orbsemi.tables import Table
from orbsemi.tuples import NTuple

G = frozenset({"a", "b"})


def T(*rows):
    return Table.from_rows(G, {NTuple.of(r) for r in rows})


@pytest.fixture
def table_files(tmp_path):
    t1 = T({1: "a", 2: "b"}, {1: "b", 2: "a"})
    t2 = T({1: "a"})
    p1 = tmp_path / "T1.csv"
    p1.write_text(table_to_csv(t1))
    p2 = tmp_path / "T2.json"
    p2.write_text(json.dumps(table_to_json(t2)))
    return str(p1), str(p2)


def test_eval_grid(table_files, capsys):
    p1, p2 = table_files
    code = main(["eval", "T1 JOIN T2", "--tables", p1, p2, "--ground", "a,b"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x1" in out and "x2" in out
    assert "a" in out


def test_eval_json_matches_library(table_files, capsys):
    p1, _ = table_files
    code = main(["eval", "T1.project{x2} JOIN DIAG(x1,x2)", "--tables", p1,
                 "--ground", "a,b", "--format", "json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    from orbsemi.exprlang import eval_expr, parse

    want = eval_expr(parse("T1.project{x2} JOIN DIAG(x1,x2)"),
                     {"T1": T({1: "a", 2: "b"}, {1: "b", 2: "a"})}, G)
    assert got == table_to_json(want)


def test_eval_usage_errors(capsys):
    assert main(["eval", "T1 JOIN", "--ground", "a,b"]) == 2
    assert main(["eval", "NOPE", "--ground", "a,b"]) == 2
    assert main(["eval", "TOP"]) == 2  # no ground and no tables
    capsys.readouterr()


@pytest.mark.parametrize("expression, message", [
    ("T1 @ T2", "at position 3: expected token, found '@'"),
    ("T1.project{x1,}", "at position 14: expected var, found '}'"),
    ("T1.rename{x1->x2, x1->x3}",
     "at position 18: expected fresh source variable, found 'x1'"),
    ("T1.rename{x1}", "at position 12: expected ->, found '}'"),
    # the end of input sits after trailing whitespace
    ("T1 JOIN  ", "at position 9: expected BOTTOM, DIAG, NAME, TOP, found end of input"),
    # a bad character is placed after the whitespace before it
    ("T1   $", "at position 5: expected token, found '$'"),
])
def test_eval_parse_error_texts(expression, message, capsys):
    assert main(["eval", expression, "--ground", "a,b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eval_rejects_a_column_named_twice(tmp_path, capsys):
    dup = tmp_path / "dup.csv"
    dup.write_text("x1,x1\na,b\n")
    assert main(["eval", "dup", "--tables", str(dup)]) == 2
    assert "names a variable twice" in capsys.readouterr().err


def test_eval_rejects_two_tables_with_one_stem(tmp_path, capsys):
    paths = []
    for d, row in (("d1", "a"), ("d2", "b")):
        (tmp_path / d).mkdir()
        paths.append(tmp_path / d / "T.csv")
        paths[-1].write_text(f"x1\n{row}\n")
    assert main(["eval", "T", "--tables", *map(str, paths)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: two table files are named 'T'; a table's name is "
                            "its file's stem\n")


def test_check_axioms_pass(capsys):
    code = main(["check-axioms", "--ground", "a,b", "--only", "A1,A2",
                 "--cases", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A1: PASS" in out and "A2: PASS" in out


def test_check_axioms_json(capsys):
    code = main(["check-axioms", "--ground", "a,b", "--only", "A9",
                 "--cases", "40", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["id"] == "A9"
    assert data["checks"][0]["status"] == "pass"


def test_check_axioms_mutant_fails(capsys):
    code = main(["check-axioms", "--ground", "a,b", "--mutate", "diag-top",
                 "--only", "A10", "--cases", "100"])
    out = capsys.readouterr().out
    assert code == 1
    assert "A10: FAIL" in out
    assert "counterexample" in out


def test_check_axioms_dom_top_all_reports_instead_of_crashing(capsys):
    # dom(1) = ALL used to reach set(ALL) in A11's preimage
    code = main(["check-axioms", "--ground", "a,b", "--mutate", "dom-top-all",
                 "--format", "json"])
    assert code == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["A11"]["status"] == "fail"
    assert checks["A11"]["counterexample"] is not None
    assert main(["check-props", "--ground", "a,b", "--mutate", "dom-top-all"]) == 1
    capsys.readouterr()


def test_check_axioms_rejects_zero_cases(capsys):
    assert main(["check-axioms", "--ground", "a", "--cases", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cases must be >= 1\n"


def test_check_axioms_unknown_id(capsys):
    assert main(["check-axioms", "--ground", "a,b", "--only", "A99"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check-axioms", "check-props", "check-labeling"])
@pytest.mark.parametrize("only", [",", " , ", ""])
def test_empty_only_is_a_usage_error(command, only, capsys):
    # an empty selection would run no check and report a vacuous pass
    assert main([command, "--ground", "a", "--only", only, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: no checks match --only {only!r}\n"


@pytest.mark.parametrize("command, only, ids", [
    ("check-axioms", "A2,A1,A2,A1", ["A2", "A1"]),
    ("check-props", "diag-dom,zero-neq-one,diag-dom", ["diag-dom", "zero-neq-one"]),
    ("check-labeling", "emb-diag,L1,emb-diag,L1", ["emb-diag", "L1"]),
])
def test_repeated_only_ids_run_once_in_the_order_first_named(command, only, ids, capsys):
    # check ids are unique within a report
    assert main([command, "--ground", "a", "--cases", "20", "--only", only,
                 "--format", "json"]) == 0
    assert [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]] == ids


def test_check_props(capsys):
    code = main(["check-props", "--ground", "a,b", "--only", "diag-symmetric",
                 "--cases", "50"])
    assert code == 0
    assert "diag-symmetric: PASS" in capsys.readouterr().out


def test_check_labeling(capsys):
    code = main(["check-labeling", "--ground", "a,b", "--cases", "80"])
    out = capsys.readouterr().out
    assert code == 0
    for cid in ("L1", "L2", "L3", "L4", "emb-meet", "emb-act"):
        assert f"{cid}: PASS" in out


def test_check_labeling_only(capsys, monkeypatch):
    assert main(["check-labeling", "--ground", "a", "--only", "L1,bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
    # --only chooses what runs: no other law is evaluated
    ran = []
    run_check = labeling._run_check
    monkeypatch.setattr(labeling, "_run_check",
                        lambda ctx, cid, *rest: ran.append(cid) or run_check(ctx, cid, *rest))
    assert main(["check-labeling", "--ground", "a", "--only", "L2,emb-diag",
                 "--format", "json"]) == 0
    ids = [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert ids == ran == ["L2", "emb-diag"]
    # the quasi level knows no L4
    assert main(["check-labeling", "--ground", "a", "--only", "L4",
                 "--level", "quasi"]) == 2
    assert "unknown check ids ['L4']" in capsys.readouterr().err
    assert ran == ["L2", "emb-diag"]


def test_decompose(capsys):
    code = main(["decompose", "{x1->x3, x2->x3}", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["recomposition_ok"] is True
    assert data["folding"] == "{x1->x1, x2->x1}"
    assert data["partial_identity"] == "pi{x3}"


DECOMPOSE_TEXT = """\
input:            {x1->x3, x2->x3}
folding:          {x1->x1, x2->x1}
bijection:        {x1->x3}
partial identity: pi{x3}
recomposition:    ok
"""


def test_decompose_text_output(capsys):
    assert main(["decompose", "{x1->x3, x2->x3}"]) == 0
    assert capsys.readouterr().out == DECOMPOSE_TEXT


def test_decompose_bad_input(capsys):
    assert main(["decompose", "x1->x2"]) == 2
    capsys.readouterr()


def test_embed_single_atom(capsys):
    code = main(["embed", "--ground", "a", "--depth", "2", "--cases", "40"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"
    assert data["strata_sizes"] == [0, 1, 2]


EMBED_DEPTH1_TEXT = """\
H strata sizes: [0, 1]
symbols: 3
quotient classes: 1
rep-membership: PASS (1/1 applicable cases)
rep-kappa-dom: PASS (2/2 applicable cases)
rep-kappa-reorder: PASS (1/2 applicable cases)
rep-kappa-split: VACUOUS (0/2 applicable cases)
rep-base-independence: PASS (1/2 applicable cases)
rep-eta-recovery: PASS (1/1 applicable cases)
rep-nested-reduction: PASS (2/2 applicable cases)
rep-eval-via-cover: PASS (1/2 applicable cases)
rep-kappa-nonzero: PASS (2/2 applicable cases)
rep-extended-eta: PASS (1/1 applicable cases)
rep-extension-witness: PASS (1/1 applicable cases)
quasi/L1: PASS (200/200 applicable cases)
quasi/L2: PASS (200/200 applicable cases)
quasi/L3: PASS (175/200 applicable cases)
quotient-equivalence: PASS (1/1 applicable cases)
quotient-exchange: PASS (200/200 applicable cases)
full/L1: PASS (200/200 applicable cases)
full/L2: PASS (200/200 applicable cases)
full/L3: PASS (175/200 applicable cases)
full/L4: PASS (63/200 applicable cases)
emb-dom: PASS (200/200 applicable cases)
emb-injective: PASS (154/200 applicable cases)
emb-meet: PASS (200/200 applicable cases)
emb-act: PASS (200/200 applicable cases)
emb-diag: PASS (1/1 applicable cases)
emb-bounds: PASS (1/1 applicable cases)
"""


def test_embed_text_output(capsys):
    main(["embed", "--ground", "a", "--depth", "1", "--format", "text"])
    assert capsys.readouterr().out == EMBED_DEPTH1_TEXT


def test_embed_exits_3_when_a_check_is_vacuous(capsys):
    # rep-kappa-split finds no applicable case at depth 1; nothing fails
    assert main(["embed", "--ground", "a", "--depth", "1"]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks if c["status"] == "vacuous"] == ["rep-kappa-split"]
    assert all(c["status"] != "fail" for c in checks)


def test_embed_reports_carry_the_seed(capsys):
    # a report's seed replays it, so every check of the run must carry it
    assert main(["embed", "--ground", "a", "--seed", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert any(c["id"].startswith("rep-") for c in checks)
    assert {c["seed"] for c in checks} == {3}


def test_embed_caps_flag(capsys):
    code = main(["embed", "--ground", "a", "--depth", "1", "--cases", "30",
                 "--caps", "symbols=8,stratum=16"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3  # rep-kappa-split is vacuous at depth 1
    assert data["symbol_count"] <= 8
    assert main(["embed", "--ground", "a", "--caps", "bogus=1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cap", ["symbols=0", "stratum=0", "vars=0"])
def test_embed_caps_below_one_rejected(cap, capsys):
    assert main(["embed", "--ground", "a", "--caps", cap]) == 2
    captured = capsys.readouterr()
    assert "caps must be >= 1" in captured.err
    assert captured.out == ""


def test_bad_subcommand_usage(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
