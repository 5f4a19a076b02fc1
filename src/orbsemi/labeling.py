"""Tuple labelings, the extent map, embedding checks and the quotient
construction.

A labeling maps named tuples over a ground set into an orbital-semilattice
instance.  A quasi-labeling satisfies L1-L3, a full labeling additionally L4:

  L1  dom(alpha(t)) = df(t)
  L2  alpha(t ∘ lam) = alpha(t) · lam
  L3  df(t) ⊆ dom(v) and alpha(t) ≤ v·π_{df(t)}
        ⇒ some extension t~ over dom(v) has alpha(t~) ≤ v
  L4  alpha(t) ≤ d_{xy} ⇒ t(x) = t(y)

L3's existential is decided by exhaustive witness search over G^{dom(v)};
a fixed cap keeps the search bounded, and cap hits are reported
separately from failures.

The quotient divides the ground atoms by g ~ h iff alpha(<x1:g, x2:h>) ≤ d_12.
It builds the classes and then reports, as two laws, that ~ is an
equivalence and that alpha is constant on classes; a labeling that breaks
either gets failing reports, never an exception.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from types import SimpleNamespace

from .orbital import (ELEMENT_BUDGET, WITNESS_CAP, CheckReport, OrbitalInstance,
                      SampleConfig, _run_check)
from .tables import Table, TableAlgebra, _table, all_rows, bottom, natural_join, subsets
from .tables import act_table, diagonal
from .transforms import partial_identity, schema_is_all
from .tuples import NTuple, act, atom_key, merge


class Labeling:
    """Evaluation callback plus declared ground set and target instance.

    The callback must be pure; evaluations are memoized.  ``atoms`` is the
    ground in atom order."""

    def __init__(self, ground, inst: OrbitalInstance, func):
        self.ground = frozenset(ground)
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        self.atoms = sorted(self.ground, key=atom_key)
        self.inst = inst
        self.func = func
        self._cache = {}
        self._extents = {}  # element -> extent, kept for the embedding laws
        self._candidates = {}  # schema X -> [(t, alpha(t))] for t in G^X, dom alpha(t) = X

    def __call__(self, t: NTuple):
        got = self._cache.get(t)
        if got is None:
            got = self._cache[t] = self.func(t)
        return got


def singleton_labeling(algebra: TableAlgebra) -> Labeling:
    """t ↦ {t}: the canonical full labeling of Tab(G) into itself."""
    return Labeling(
        algebra.ground, algebra,
        lambda t: Table.from_rows(algebra.ground, {t}),
    )


def extent(alpha: Labeling, u) -> Table:
    """All tuples whose label lies below u, with matching domain: none when
    dom(u) is ALL, as for the bottom element, since no tuple is that wide.
    The tuples over dom(u) whose label has that domain are kept with their
    labels in ``alpha._candidates``, so each schema is labeled once."""
    inst = alpha.inst
    du = inst.dom(u)
    if schema_is_all(du):
        return bottom(alpha.ground)
    cands = alpha._candidates.get(du)
    if cands is None:
        labeled = ((t, alpha(t)) for t in all_rows(alpha.ground, du))
        cands = alpha._candidates[du] = [(t, a) for t, a in labeled if inst.dom(a) == du]
    rows = [t for t, a in cands if inst.leq(a, u)]
    return _table(alpha.ground, du, rows) if rows else bottom(alpha.ground)


class _Laws:
    """The context of a labeling or embedding law: the labeling, the window,
    the ground in atom order (the L3 witness search ranges over it), the
    atoms that sampled tuples use and the elements, if any, that replace the
    instance pool."""

    def __init__(self, alpha: Labeling, cfg: SampleConfig, tuple_atoms, elements):
        self.alpha, self.inst = alpha, alpha.inst
        self.window = cfg.window
        self.atoms = alpha.atoms
        self.t_atoms = self.atoms if tuple_atoms is None else sorted(tuple_atoms, key=atom_key)
        self.elements = elements
        self.capped = 0  # L3 cases whose witness search the cap skipped

    def ext(self, u) -> Table:
        """extent(alpha, u), computed once per labeling and element."""
        got = self.alpha._extents.get(u)
        if got is None:
            got = self.alpha._extents[u] = extent(self.alpha, u)
        return got

    def element_pool(self, cfg: SampleConfig, rng: random.Random) -> list:
        """The given elements, else the instance pool."""
        return self.inst.element_pool(cfg, rng) if self.elements is None else self.elements

    def tuple_pool(self, cfg: SampleConfig, rng: random.Random) -> list:
        """The tuples that ``t`` walks, over the tuple atoms: exhaustive over
        two-variable schemas inside the window (when affordable), sampled
        beyond."""
        window, atoms = cfg.window, self.t_atoms
        tuples = [NTuple(())]
        small = [X for X in subsets(window) if 1 <= len(X) <= 2]
        if sum(len(atoms) ** len(X) for X in small) <= 4 * ELEMENT_BUDGET:
            for X in small:
                tuples.extend(all_rows(atoms, X))
        while len(tuples) < ELEMENT_BUDGET:
            X = [x for x in window if rng.random() < 0.6]
            tuples.append(NTuple.of({x: rng.choice(atoms) for x in X}))
        return tuples


# ---------------------------------------------------------------------------
# Law bodies.  As for the axioms (see orbital._run_check), a body's parameters
# after ``ctx`` are the variables it quantifies over.


def _l1(ctx, t):
    d = ctx.inst.dom(ctx.alpha(t))
    return d == t.df, lambda: {"alpha(t)": ctx.alpha(t), "dom": d}


def _l2(ctx, t, lam):
    lhs = ctx.alpha(act(t, lam))
    rhs = ctx.inst.act(ctx.alpha(t), lam)
    return lhs == rhs, lambda: {"alpha(t∘lam)": lhs, "alpha(t)·lam": rhs}


def _l3(ctx, t, v, Y, k):
    # the hypothesis steers t when the drawn one misses it: then t is the
    # k-th (cyclically) of the tuples over X = Y ∩ dom(v) below v·π_X
    alpha, inst = ctx.alpha, ctx.inst
    dv = inst.dom(v)
    if schema_is_all(dv):
        return None
    if not (t.df <= dv and inst.leq(alpha(t), inst.act(v, partial_identity(t.df)))):
        X = Y & dv
        if len(ctx.t_atoms) ** len(X) > WITNESS_CAP:
            return None
        u = inst.act(v, partial_identity(X))
        below = [s for s in all_rows(ctx.t_atoms, X) if inst.leq(alpha(s), u)]
        if not below:
            return None
        t = below[k % len(below)]
    missing = sorted(dv - t.df)
    if len(ctx.atoms) ** len(missing) > WITNESS_CAP:
        ctx.capped += 1
        return None
    found = any(inst.leq(alpha(merge(t, NTuple.of(dict(zip(missing, combo))))), v)
                for combo in itertools.product(ctx.atoms, repeat=len(missing)))
    return found, lambda: {"t_used": t}


def _l4(ctx, t, x, y):
    if not ctx.inst.leq(ctx.alpha(t), ctx.inst.diag(x, y)):
        return None
    return t.get(x) == t.get(y), lambda: {}


def _emb_dom(ctx, u):
    e = ctx.ext(u)
    return e.schema == ctx.inst.dom(u), lambda: {"ext(u)": e}


def _emb_injective(ctx, u, v):
    if u == v:
        return None
    return ctx.ext(u) != ctx.ext(v), lambda: {"ext": ctx.ext(u)}


def _emb_meet(ctx, u, v):
    lhs = ctx.ext(ctx.inst.meet(u, v))
    rhs = natural_join(ctx.ext(u), ctx.ext(v))
    return lhs == rhs, lambda: {"ext(u^v)": lhs, "ext(u)⋈ext(v)": rhs}


def _emb_act(ctx, u, lam):
    lhs = ctx.ext(ctx.inst.act(u, lam))
    rhs = act_table(ctx.ext(u), lam)
    return lhs == rhs, lambda: {"ext(u·lam)": lhs, "ext(u)·lam": rhs}


def _emb_diag(ctx):
    for x, y in itertools.product(ctx.window, repeat=2):
        lhs, rhs = ctx.ext(ctx.inst.diag(x, y)), diagonal(x, y, ctx.alpha.ground)
        if lhs != rhs:
            return False, lambda: {"x": x, "y": y, "ext(d_xy)": lhs, "E_xy": rhs}
    return True, lambda: {}


def _emb_bounds(ctx):
    e0, e1 = ctx.ext(ctx.inst.zero()), ctx.ext(ctx.inst.one())
    return not e0.rows and e1.rows == {NTuple(())}, lambda: {"ext(0)": e0, "ext(1)": e1}


_LABELING = {"L1": _l1, "L2": _l2, "L3": _l3, "L4": _l4}
_EMBEDDING = {
    "emb-dom": _emb_dom, "emb-injective": _emb_injective, "emb-meet": _emb_meet,
    "emb-act": _emb_act, "emb-diag": _emb_diag, "emb-bounds": _emb_bounds,
}

LABELING_IDS = tuple(_LABELING)
EMBEDDING_IDS = tuple(_EMBEDDING)
#: the labeling laws that each level checks
LEVELS = {"quasi": LABELING_IDS[:3], "full": LABELING_IDS}


def check_law(alpha: Labeling, law_id: str, cfg: SampleConfig, tuple_atoms=None,
              elements=None) -> CheckReport:
    """Check one labeling law (L1-L4) or embedding law (``emb-*``) of
    ``alpha`` on its own stream, seeded by ``cfg.seed``.  ``tuple_atoms`` and
    ``elements`` are as in check_labeling and check_embedding."""
    body = _LABELING.get(law_id) or _EMBEDDING.get(law_id)
    if body is None:
        raise ValueError(f"unknown law id {law_id!r}")
    ctx = _Laws(alpha, cfg, tuple_atoms, elements)
    report = _run_check(ctx, law_id, body, cfg)
    if law_id == "L3":
        report.notes["witness_search_capped"] = ctx.capped
    return report


def check_labeling(alpha: Labeling, level: str, cfg: SampleConfig,
                   tuple_atoms=None) -> list:
    """Run the labeling laws; ``level`` is "quasi" (L1-L3) or "full" (adds L4).

    ``tuple_atoms`` restricts the atoms used to build sampled tuples; the L3
    witness search still ranges over the whole ground set.  This keeps the
    check sound on truncated grounds, where witnesses for the deepest atoms
    would fall outside the built fragment.

    Returns one CheckReport per law.  Each law draws from its own stream, so
    its report is the one that check_law gives for it alone.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be 'quasi' or 'full', got {level!r}")
    if tuple_atoms is not None and not frozenset(tuple_atoms) <= alpha.ground:
        raise ValueError("tuple_atoms must lie inside the ground set")
    return [check_law(alpha, law, cfg, tuple_atoms=tuple_atoms) for law in LEVELS[level]]


def check_embedding(alpha: Labeling, cfg: SampleConfig, elements=None) -> list:
    """Verify on samples that the extent map is an injective homomorphism:
    meets go to joins, right multiplication and diagonals are preserved, and
    schemas match domains.

    ``elements`` overrides the instance pool, e.g. to restrict the check to
    elements reachable as labels.  The laws share the labeling's extents."""
    return [check_law(alpha, law, cfg, elements=elements) for law in EMBEDDING_IDS]


def _quotient_equivalence(ctx, term):
    # ~ is an equivalence iff each R(g) is exactly the class built for it; it
    # fails at (g, h) for h in R(g) Δ members[R(g)]
    cls = ctx.related[term]
    wrong = cls.symmetric_difference(ctx.members[cls])
    return not wrong, lambda: {"h": next(h for h in ctx.terms if h in wrong)}


def _quotient_exchange(ctx, tt):
    rep = NTuple.trusted((x, ctx.rep_of[a]) for x, a in tt)
    lhs, rhs = ctx.alpha(tt), ctx.alpha(rep)
    return lhs == rhs, lambda: {"rep∘tt": rep, "alpha(tt)": lhs, "alpha(rep∘tt)": rhs}


def quotient(alpha: Labeling, cfg: SampleConfig):
    """Collapse ground atoms whose two-column label sits below the diagonal.

    Returns the map from each atom to its class representative (the least
    member in atom order), the induced labeling over the representatives and
    the reports of two laws, which can fail only when alpha is not a
    quasi-labeling: ``quotient-equivalence`` checks at every atom that the
    relation is an equivalence, and ``quotient-exchange`` that alpha keeps its
    value on tuples over the window when each atom becomes its
    representative.  It never raises on a bad labeling.
    """
    inst = alpha.inst
    atoms = alpha.atoms
    d12 = inst.diag(1, 2)
    below = {}  # id of a label -> label <= d12; alpha's cache keeps each label alive

    def is_related(g, h):
        u = alpha(NTuple.trusted(((1, g), (2, h))))
        if id(u) not in below:
            below[id(u)] = inst.leq(u, d12)
        return below[id(u)]

    related = {g: frozenset(h for h in atoms if is_related(g, h)) for g in atoms}
    members = {}  # class -> its atoms, in atom order
    for a in atoms:
        members.setdefault(related[a], []).append(a)
    rep_of = {a: members[related[a]][0] for a in atoms}
    ctx = SimpleNamespace(terms=atoms, alpha=alpha, related=related, members=members,
                          rep_of=rep_of)
    reports = [
        _run_check(ctx, "quotient-equivalence", _quotient_equivalence, replace(cfg, cases=1)),
        _run_check(ctx, "quotient-exchange", _quotient_exchange, cfg),
    ]
    return rep_of, Labeling(rep_of.values(), inst, alpha), reports
