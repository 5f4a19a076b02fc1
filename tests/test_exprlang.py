import random

import pytest

from orbsemi.exprlang import (
    Act,
    Bottom,
    Diag,
    EvalError,
    Join,
    ParseError,
    Project,
    TableRef,
    Top,
    eval_expr,
    parse,
    print_expr,
)
from orbsemi.tables import Table, bottom, natural_join, top
from orbsemi.transforms import FPTransform, partial_identity
from orbsemi.tuples import NTuple

from exprgen import random_expr

G = frozenset({"a", "b"})


def T(*rows):
    return Table.from_rows(G, {NTuple.of(r) for r in rows})


def test_parse_examples():
    assert parse("T1 JOIN DIAG(x1,x2)") == Join(TableRef("T1"), Diag(1, 2))
    assert parse("T1.project{x1}") == Act(TableRef("T1"), partial_identity({1}))
    assert parse("TOP") == Top()
    assert parse("BOTTOM") == Bottom()
    assert parse("T1.rename{x1->x3, x2->x3}") == Act(
        TableRef("T1"), FPTransform.of({1: 3, 2: 3}))


def test_join_left_associative():
    e = parse("A JOIN B JOIN C")
    assert e == Join(Join(TableRef("A"), TableRef("B")), TableRef("C"))


def test_postfix_binds_tighter_than_join():
    e = parse("A JOIN B.project{x1}")
    assert e == Join(TableRef("A"), Act(TableRef("B"), partial_identity({1})))


def test_parse_errors_carry_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("T1 JOIN")
    assert exc.value.position == len("T1 JOIN")
    assert "NAME" in exc.value.expected
    assert exc.value.found == "end of input"
    with pytest.raises(ParseError):
        parse("DIAG(x1 x2)")
    with pytest.raises(ParseError) as exc:
        parse("T1 T2")
    assert exc.value.found == "'T2'"
    with pytest.raises(ParseError):
        parse("T1.{x1}")
    with pytest.raises(ParseError):
        parse("T1.rename{x1->x2,x1->x3}")
    with pytest.raises(ParseError):
        parse("")


def test_project_desugars_to_act():
    assert Project(TableRef("T"), {1, 2}) == Act(
        TableRef("T"), partial_identity({1, 2}))


def test_print_uses_project_for_partial_identities():
    e = Act(TableRef("T"), partial_identity({1, 3}))
    assert print_expr(e) == "T.project{x1,x3}"
    e2 = Act(TableRef("T"), FPTransform.of({1: 2}))
    assert print_expr(e2) == "T.rename{x1->x2}"


def test_parse_print_parse_identity_on_random_exprs():
    rng = random.Random(42)
    for _ in range(1000):
        e = random_expr(rng)
        assert parse(print_expr(e)) == e


def test_eval_examples():
    assert eval_expr(Top(), {}, G) == top(G)
    assert eval_expr(Join(Bottom(), TableRef("T")), {"T": T({1: "a"})}, G) == \
        bottom(G)
    T1 = T({1: "a"})
    T2 = T({1: "a", 2: "a"}, {1: "a", 2: "b"})
    got = eval_expr(parse("T1 JOIN T2"), {"T1": T1, "T2": T2}, G)
    assert got == natural_join(T1, T2)


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_expr(TableRef("missing"), {}, G)
    other = Table.from_rows({"a"}, {NTuple.of({1: "a"})})
    with pytest.raises(EvalError):
        eval_expr(TableRef("T"), {"T": other}, G)


def test_eval_of_printed_expr_matches():
    rng = random.Random(7)
    env = {"T1": T({1: "a"}), "T2": T({1: "a", 2: "b"}, {1: "b", 2: "a"}),
           "T3": top(G)}
    for _ in range(300):
        e = random_expr(rng)
        assert eval_expr(parse(print_expr(e)), env, G) == eval_expr(e, env, G)
