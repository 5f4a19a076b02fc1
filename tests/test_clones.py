"""Proper subalgebras of Tab({a,b}): relational clones.

For an operation f on {a, b}, the tables whose rows are closed under f,
column by column, are closed under join, renaming, projection and
diagonals, so they form an orbital semilattice inside Tab({a,b}).  The
axiom and derived suites and ``represent`` at depth 2 must pass on each.
Depth 3 is left out: there ``represent`` reports false FAILs from the
witness-closed fragment (ROADMAP item 10)."""

import itertools
import random

import pytest

from orbsemi.orbital import SampleConfig, check_all_axioms, check_all_derived
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import TableAlgebra
from orbsemi.transforms import FPTransform
from orbsemi.tuples import NTuple


class CloneAlgebra(TableAlgebra):
    """The tables over {a, b} whose rows are closed under the ``arity``-ary
    operation f, column by column."""

    def __init__(self, f, arity):
        super().__init__({"a", "b"})
        self.f, self.arity = f, arity

    def closed(self, u) -> bool:
        """f applied column-wise to any ``arity`` rows of u gives a row of u."""
        return all(NTuple.of({x: self.f(*(r(x) for r in rows)) for x in u.schema}) in u.rows
                   for rows in itertools.product(u.rows, repeat=self.arity))

    def element_pool(self, cfg, rng):
        return [u for u in super().element_pool(cfg, rng) if self.closed(u)]

    def elements_with_schema(self, X):
        return (u for u in super().elements_with_schema(X) if self.closed(u))


def _majority(x, y, z):
    return x if x in (y, z) else y


def _xor3(x, y, z):
    # a is 0 and b is 1
    return "ab"[(x == "b") ^ (y == "b") ^ (z == "b")]


def _swap(x):
    return "b" if x == "a" else "a"


def _const_a(x):
    return "a"


#: (f, arity, element pool size, quotient classes of represent at depth 2)
CLONES = {
    "min": (min, 2, 51, 17),
    "majority": (_majority, 3, 59, 18),
    "xor3": (_xor3, 3, 44, 13),
    "swap": (_swap, 1, 14, 3),
    "const-a": (_const_a, 1, 33, 15),
}

_CFG = SampleConfig(cases=100)


@pytest.fixture(scope="module", params=sorted(CLONES))
def clone(request):
    f, arity, pool_size, classes = CLONES[request.param]
    return CloneAlgebra(f, arity), pool_size, classes


def test_the_pool_holds_only_closed_tables(clone):
    inst, pool_size, _ = clone
    pool = inst.element_pool(_CFG, random.Random(_CFG.seed))
    assert len(pool) == pool_size
    assert all(inst.closed(u) for u in pool)


def test_the_axioms_and_derived_checks_pass_and_none_is_vacuous(clone):
    inst, _, _ = clone
    reports = check_all_axioms(inst, _CFG) + check_all_derived(inst, _CFG)
    assert len(reports) == 30
    assert [r.check_id for r in reports if r.status != "pass"] == []


def test_represent_passes_at_depth_2(clone):
    inst, _, classes = clone
    report = represent(inst, _CFG, RepCaps(depth=2))
    assert report.passed, [r.check_id for r in report.checks if not r.passed]
    assert report.quotient_classes == classes


def _results_not_closed(inst):
    """The meet, act and diag results, over 200 seeded draws from the
    instance's pool, that ``inst.closed`` rejects."""
    rng = random.Random(0)
    pool = inst.element_pool(_CFG, rng)
    window = _CFG.window
    out = []
    for _ in range(200):
        u, v = rng.choice(pool), rng.choice(pool)
        lam = FPTransform.of({y: rng.choice(window) for y in window if rng.random() < 0.7})
        x, y = rng.choice(window), rng.choice(window)
        out.extend(w for w in (inst.meet(u, v), inst.act(u, lam), inst.diag(x, y))
                   if not inst.closed(w))
    return out


def test_the_operations_keep_the_pool_closed(clone):
    inst, _, _ = clone
    assert _results_not_closed(inst) == []


class _AtMostTwoRows(TableAlgebra):
    """Not a clone: the tables of Tab({a,b}) with at most two rows."""

    def closed(self, u) -> bool:
        return len(u.rows) <= 2

    def element_pool(self, cfg, rng):
        return [u for u in super().element_pool(cfg, rng) if self.closed(u)]


def test_a_filter_that_is_not_a_clone_fails_the_closure_check():
    inst = _AtMostTwoRows({"a", "b"})
    assert _results_not_closed(inst)
