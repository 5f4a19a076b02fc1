"""Deliberately broken table-algebra variants, one per axiom.

Each mutant perturbs exactly one operation so that its targeted axiom checker
must fail with a replayable counterexample.  Because the axioms are
interdependent, a mutant may violate further axioms as well; the regression
contract is only that the targeted checker catches it.

A mutant is a row of ``MUTANTS``: its target axiom, the operation it
replaces and the replacement, called as ``f(base, *args)`` in place of
``base.<operation>(*args)``.
"""

from __future__ import annotations

from functools import partial

from .orbital import OrbitalInstance
from .tables import Table, TableAlgebra, all_rows
from .transforms import (
    ALL,
    FPTransform,
    is_partial_identity,
    partial_identity,
    schema_is_all,
)

OPERATIONS = ("meet", "zero", "one", "act", "diag", "dom", "element_pool",
              "elements_with_schema")


class MutantAlgebra:
    """A base TableAlgebra with some operations replaced; the others are the
    base's own.  ``leq`` stays the meet-based default, so it sees a replaced
    meet.  The operations are set per instance, so the class is registered as
    an OrbitalInstance instead of implementing its abstract methods."""

    leq = OrbitalInstance.leq

    def __init__(self, base: TableAlgebra, mutant_id: str, target_axiom: str,
                 **overrides):
        unknown = sorted(set(overrides) - set(OPERATIONS))
        if unknown:
            raise ValueError(f"cannot override {unknown} (operations: {OPERATIONS})")
        self.base = base
        self.ground = base.ground
        self.mutant_id = mutant_id
        self.target_axiom = target_axiom
        for op in OPERATIONS:
            f = overrides.get(op)
            setattr(self, op, partial(f, base) if f else getattr(base, op))

    def __repr__(self):
        return f"{self.base!r}[mutant:{self.mutant_id}]"


OrbitalInstance.register(MutantAlgebra)


def _empty_proj_zero(base, u, lam):
    """u·π_∅ collapses to 0 instead of 1."""
    if not lam.pairs and u != base.zero():
        return base.zero()
    return base.act(u, lam)


def _zero_act_top(base, u, lam):
    """0·λ jumps to the top element."""
    if u == base.zero():
        return base.one()
    return base.act(u, lam)


def _meet_incomparable_zero(base, u, v):
    """Meet of incomparable elements collapses to 0 (breaks distributivity)."""
    if base.leq(u, v):
        return u
    if base.leq(v, u):
        return v
    return base.zero()


def _proj_drop_row(base, u, lam):
    """Projections silently lose a row."""
    out = base.act(u, lam)
    if is_partial_identity(lam) and lam.pairs and len(out.rows) > 1:
        rows = out.sorted_rows()[:-1]
        return Table.from_rows(out.ground, rows)
    return out


def _act_zero_big(base, u, lam):
    """Right multiplication annihilates tables with more than one row."""
    if len(u.rows) > 1:
        return base.zero()
    return base.act(u, lam)


def _diag_full(base, x, y):
    """Off-diagonal d_xy inflated to the full two-column table."""
    if x == y:
        return base.diag(x, y)
    return Table.from_rows(base.ground, all_rows(base.ground, {x, y}))


def _act_trim_map(base, u, lam):
    """Transformations with two or more sources lose their smallest source."""
    if len(lam.pairs) >= 2:
        lam = FPTransform(lam.pairs[1:])
    return base.act(u, lam)


def _neutral_inflate(base, u, lam):
    """u·π_{dom(u)} blows up to the full table over the schema."""
    if (
        u.rows
        and not schema_is_all(u.schema)
        and lam == partial_identity(u.schema)
        and u.schema
    ):
        return Table.from_rows(base.ground, all_rows(base.ground, u.schema))
    return base.act(u, lam)


def _diag_xx_empty(base, x, y):
    """d_xx degenerates to the empty table."""
    if x == y:
        return base.zero()
    return base.diag(x, y)


def _diag_top(base, x, y):
    """Off-diagonal d_xy replaced by the top element."""
    if x != y:
        return base.one()
    return base.diag(x, y)


def _dom_drop_max(base, u):
    """dom forgets the largest schema variable."""
    d = base.dom(u)
    if not schema_is_all(d) and d:
        return d - {max(d)}
    return d


def _dom_top_all(base, u):
    """dom(1) pretends to be the infinite variable set."""
    if u == base.one():
        return ALL
    return base.dom(u)


def _dom_extra_var(base, u):
    """dom reports one variable too many."""
    d = base.dom(u)
    if schema_is_all(d):
        return d
    extra = 1
    while extra in d:
        extra += 1
    return d | {extra}


#: mutant id -> (target axiom, replaced operation, replacement)
MUTANTS = {
    "empty-proj-zero": ("A1", "act", _empty_proj_zero),
    "zero-act-top": ("A2", "act", _zero_act_top),
    "meet-incomparable-zero": ("A3", "meet", _meet_incomparable_zero),
    "proj-drop-row": ("A4", "act", _proj_drop_row),
    "act-zero-big": ("A5", "act", _act_zero_big),
    "diag-full": ("A6", "diag", _diag_full),
    "act-trim-map": ("A7", "act", _act_trim_map),
    "neutral-inflate": ("A8", "act", _neutral_inflate),
    "diag-xx-empty": ("A9", "diag", _diag_xx_empty),
    "diag-top": ("A10", "diag", _diag_top),
    "dom-drop-max": ("A11", "dom", _dom_drop_max),
    "dom-top-all": ("A12", "dom", _dom_top_all),
    "dom-extra-var": ("A13", "dom", _dom_extra_var),
}

#: axiom id -> mutant id, for the 13/13 regression sweep
TARGETS = {axiom: mutant_id for mutant_id, (axiom, _, _) in MUTANTS.items()}


def make_mutant(mutant_id: str, base: TableAlgebra) -> MutantAlgebra:
    if mutant_id not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant_id!r} (known: {sorted(MUTANTS)})")
    axiom, op, f = MUTANTS[mutant_id]
    return MutantAlgebra(base, mutant_id, axiom, **{op: f})
