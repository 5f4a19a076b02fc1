"""A small relational-expression language over tables.

Grammar:

  expr   := term ('JOIN' term)*
  term   := NAME | 'DIAG(' var ',' var ')' | 'TOP' | 'BOTTOM' | term '.' action
  action := 'rename{' x1->x2, ... '}' | 'project{' x1, ... '}'

JOIN is left-associative; postfix actions bind tighter than JOIN.  Projection
is sugar for acting with a partial identity, so the AST has no separate
projection node and printing emits ``.project{...}`` exactly when the
transformation is a partial identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .tables import Table, act_table, bottom, diagonal, natural_join, top
from .transforms import (
    FPTransform,
    is_partial_identity,
    partial_identity,
    var_name,
)


class ParseError(ValueError):
    def __init__(self, position: int, expected, found: str):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        opts = ", ".join(sorted(self.expected))
        super().__init__(f"at position {position}: expected {opts}, found {found}")


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class TableRef:
    name: str


@dataclass(frozen=True)
class Join:
    left: object
    right: object


@dataclass(frozen=True)
class Act:
    expr: object
    lam: FPTransform


@dataclass(frozen=True)
class Diag:
    x: int
    y: int


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


def Project(expr, Y) -> Act:
    """Sugar: projection is right multiplication by a partial identity."""
    return Act(expr, partial_identity(Y))


_KEYWORDS = {"JOIN", "DIAG", "TOP", "BOTTOM", "rename", "project"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[(),.{}])"
    r"|(?P<bad>\S))"
)


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(pos, {"token"}, repr(text))
        if kind in ("arrow", "punct") or text in _KEYWORDS:
            kind = text
        tokens.append((kind, text, pos))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, *kinds):
        kind, text, pos = self.tokens[self.i]
        if kinds and kind not in kinds:
            raise ParseError(pos, kinds, repr(text) if text else "end of input")
        self.i += 1
        return kind, text, pos

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, {"JOIN", "end of input"}, repr(text))
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] == "JOIN":
            self.take("JOIN")
            e = Join(e, self.term())
        return e

    def term(self):
        kind, text, pos = self.peek()
        if kind == "name":
            self.take()
            e = TableRef(text)
        elif kind == "DIAG":
            self.take()
            self.take("(")
            x = self.var()
            self.take(",")
            y = self.var()
            self.take(")")
            e = Diag(x, y)
        elif kind == "TOP":
            self.take()
            e = Top()
        elif kind == "BOTTOM":
            self.take()
            e = Bottom()
        else:
            raise ParseError(pos, {"NAME", "DIAG", "TOP", "BOTTOM"},
                             repr(text) if text else "end of input")
        while self.peek()[0] == ".":
            self.take(".")
            e = Act(e, self.action())
        return e

    def var(self) -> int:
        _, text, _ = self.take("var")
        return int(text[1:])

    def action(self) -> FPTransform:
        kind, _, _ = self.take("rename", "project")
        self.take("{")
        pairs = {}
        if self.peek()[0] == "var":
            self._entry(kind, pairs)
            while self.peek()[0] == ",":
                self.take(",")
                self._entry(kind, pairs)
        self.take("}")
        return FPTransform.of(pairs)

    def _entry(self, kind, pairs):
        """One list entry: ``x_i`` for a projection, ``x_i->x_j`` with a fresh
        source ``x_i`` for a renaming."""
        _, text, pos = self.take("var")
        src = int(text[1:])
        if kind == "project":
            pairs[src] = src
            return
        if src in pairs:
            raise ParseError(pos, {"fresh source variable"}, repr(text))
        self.take("->")
        pairs[src] = self.var()


def parse(src: str):
    """Parse an expression; raises ParseError with position and expected set."""
    return _Parser(src).parse()


def print_expr(e) -> str:
    if isinstance(e, Join):
        return f"{print_expr(e.left)} JOIN {print_expr(e.right)}"
    return _print_term(e)


def _print_term(e) -> str:
    if isinstance(e, TableRef):
        return e.name
    if isinstance(e, Diag):
        return f"DIAG({var_name(e.x)},{var_name(e.y)})"
    if isinstance(e, Top):
        return "TOP"
    if isinstance(e, Bottom):
        return "BOTTOM"
    if isinstance(e, Act):
        if is_partial_identity(e.lam):
            body = ",".join(var_name(x) for x, _ in e.lam.pairs)
            return f"{_print_term(e.expr)}.project{{{body}}}"
        body = ",".join(f"{var_name(x)}->{var_name(y)}" for x, y in e.lam.pairs)
        return f"{_print_term(e.expr)}.rename{{{body}}}"
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e, env: dict, G) -> Table:
    """Structural evaluation; all referenced tables must share the ground set."""
    G = frozenset(G)
    if isinstance(e, TableRef):
        if e.name not in env:
            raise EvalError(f"unbound table name {e.name!r}")
        T = env[e.name]
        if T.ground != G:
            raise EvalError(
                f"table {e.name!r} has ground set {sorted(map(str, T.ground))}, "
                f"expected {sorted(map(str, G))}")
        return T
    if isinstance(e, Join):
        return natural_join(eval_expr(e.left, env, G), eval_expr(e.right, env, G))
    if isinstance(e, Act):
        return act_table(eval_expr(e.expr, env, G), e.lam)
    if isinstance(e, Diag):
        return diagonal(e.x, e.y, G)
    if isinstance(e, Top):
        return top(G)
    if isinstance(e, Bottom):
        return bottom(G)
    raise TypeError(f"not an expression node: {e!r}")
