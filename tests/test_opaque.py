"""Verdicts that do not depend on how elements are written (ROADMAP item 17).

``Opaque`` shows Tab(G) through integer ids, handed out in the order in
which elements first appear, counting up from 0 or down from 10**6.  Its
operations are Tab(G)'s, so every check must give the same verdict and the
same case counts on it.  Integers have no ``sort_key``, so the term order
then reads ``str(id)``, which the two id assignments order differently.

Only the cases that agree today are pinned.  ``represent`` on Tab({a,b})
gives different reports on the copies: at depth 2 the reports differ,
although both copies have 18 classes as Tab({a,b}) does; at depth 3 the copy
has 161 classes (ids up) or 34 (ids down), where Tab({a,b}) has 153."""

import pytest

from orbsemi.orbital import (OrbitalInstance, SampleConfig, check_all_axioms,
                             check_all_derived)
from orbsemi.representation import RepCaps, represent
from orbsemi.tables import TableAlgebra


class Opaque(OrbitalInstance):
    """Tab(G) with each table shown as the integer ``first + step * k``,
    where k counts the tables seen before it."""

    def __init__(self, ground, first, step):
        self.base, self.first, self.step = TableAlgebra(ground), first, step
        self._ids, self._tables = {}, []

    def _id(self, u):
        got = self._ids.get(u)
        if got is None:
            got = self._ids[u] = self.first + self.step * len(self._tables)
            self._tables.append(u)
        return got

    def _table(self, i):
        return self._tables[(i - self.first) // self.step]

    def meet(self, u, v):
        return self._id(self.base.meet(self._table(u), self._table(v)))

    def zero(self):
        return self._id(self.base.zero())

    def one(self):
        return self._id(self.base.one())

    def act(self, u, lam):
        return self._id(self.base.act(self._table(u), lam))

    def diag(self, x, y):
        return self._id(self.base.diag(x, y))

    def dom(self, u):
        return self.base.dom(self._table(u))

    def leq(self, u, v):
        return self.base.leq(self._table(u), self._table(v))

    def element_pool(self, cfg, rng):
        return [self._id(u) for u in self.base.element_pool(cfg, rng)]

    def elements_with_schema(self, X):
        return (self._id(u) for u in self.base.elements_with_schema(X))


#: ids counting up from 0, and counting down from 10**6
ID_ORDERS = {"ids-up": (0, 1), "ids-down": (10**6, -1)}


def _outcomes(reports):
    return [(r.check_id, r.status, r.cases_run, r.cases_applicable) for r in reports]


def _suite(inst):
    cfg = SampleConfig(cases=200)
    return _outcomes(check_all_axioms(inst, cfg) + check_all_derived(inst, cfg))


@pytest.mark.parametrize("order", sorted(ID_ORDERS))
@pytest.mark.parametrize("ground", ["a", "ab"])
def test_the_30_checks_agree_on_the_opaque_copy(ground, order):
    want = _suite(TableAlgebra(set(ground)))
    assert len(want) == 30
    assert _suite(Opaque(set(ground), *ID_ORDERS[order])) == want


@pytest.mark.parametrize("order", sorted(ID_ORDERS))
@pytest.mark.parametrize("depth", [2, 3])
def test_represent_agrees_on_the_opaque_copy_of_tab_a(depth, order):
    caps = RepCaps(depth=depth)
    want = represent(TableAlgebra({"a"}), SampleConfig(), caps)
    got = represent(Opaque({"a"}, *ID_ORDERS[order]), SampleConfig(), caps)
    assert _outcomes(got.checks) == _outcomes(want.checks)
    assert (got.strata_sizes, got.quotient_classes) == (want.strata_sizes, want.quotient_classes)
