"""Tuple labelings, the extent map, embedding checks and the quotient
construction.

A labeling maps named tuples over a ground set into an orbital-semilattice
instance.  A quasi-labeling satisfies L1-L3, a full labeling additionally L4:

  L1  dom(alpha(t)) = df(t)
  L2  alpha(t ∘ lam) = alpha(t) · lam
  L3  df(t) ⊆ dom(v) and alpha(t) ≤ v·π_{df(t)}
        ⇒ some extension t~ over dom(v) has alpha(t~) ≤ v
  L4  alpha(t) ≤ d_{z1 z2} ⇒ t(z1) = t(z2)

L3's existential is decided by exhaustive witness search over G^{dom(v)};
a fixed cap keeps the search bounded, and cap hits are reported
separately from failures.
"""

from __future__ import annotations

import functools
import itertools
import random

from .orbital import (ELEMENT_BUDGET, OrbitalInstance, SampleConfig, _random_subset,
                      _transform_pool, run_cases)
from .tables import Table, TableAlgebra, all_rows, bottom, natural_join, subsets
from .tables import act_table, diagonal
from .transforms import partial_identity, schema_is_all
from .tuples import NTuple, act, atom_key, merge


class QuotientError(ValueError):
    """The input violated a quasi-labeling law during quotient construction."""


class Labeling:
    """Evaluation callback plus declared ground set and target instance.

    The callback must be pure; evaluations are memoized.
    """

    def __init__(self, ground, inst: OrbitalInstance, func):
        self.ground = frozenset(ground)
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        self.inst = inst
        self.func = func
        self._cache = {}

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
    """All tuples whose label lies below u, with matching domain."""
    inst = alpha.inst
    if u == inst.zero():
        return bottom(alpha.ground)
    du = inst.dom(u)
    if schema_is_all(du):
        raise ValueError("extent needs a finite domain (or the bottom element)")
    rows = [
        t for t in all_rows(alpha.ground, du)
        if inst.dom(alpha(t)) == du and inst.leq(alpha(t), u)
    ]
    return Table.from_rows(alpha.ground, rows)


def _sample_tuples(atoms: list, cfg: SampleConfig, rng: random.Random) -> list:
    """Deterministic tuple pool over the sorted ``atoms``: exhaustive over
    two-variable schemas inside the window (when affordable), sampled beyond."""
    window = sorted(cfg.window)
    pool = [NTuple(())]
    small = [X for X in subsets(window) if 1 <= len(X) <= 2]
    budgeted = sum(len(atoms) ** len(X) for X in small) <= 4 * ELEMENT_BUDGET
    if budgeted:
        for X in small:
            pool.extend(all_rows(atoms, X))
    while len(pool) < ELEMENT_BUDGET:
        X = [x for x in window if rng.random() < 0.6]
        pool.append(NTuple.of({x: rng.choice(atoms) for x in X}))
    return pool


#: the labeling laws in run order; level "quasi" runs the first three
LABELING_IDS = ("L1", "L2", "L3", "L4")
EMBEDDING_IDS = ("emb-dom", "emb-injective", "emb-meet", "emb-act", "emb-diag",
                 "emb-bounds")


#: the largest tuple space the L3 check enumerates
_WITNESS_CAP = 256


def check_labeling(alpha: Labeling, level: str, cfg: SampleConfig,
                   tuple_atoms=None) -> list:
    """Run the labeling laws; ``level`` is "quasi" (L1-L3) or "full" (adds L4).

    ``tuple_atoms`` restricts the atoms used to build sampled tuples; the L3
    witness search still ranges over the whole ground set.  This keeps the
    check sound on truncated grounds, where witnesses for the deepest atoms
    would fall outside the built fragment.

    Returns one CheckReport per law.  The laws draw from one rng in order, so
    a law's cases depend on the laws run before it.
    """
    if level not in ("quasi", "full"):
        raise ValueError(f"level must be 'quasi' or 'full', got {level!r}")
    if tuple_atoms is not None and not frozenset(tuple_atoms) <= alpha.ground:
        raise ValueError("tuple_atoms must lie inside the ground set")
    inst = alpha.inst
    rng = random.Random(cfg.seed)
    atoms = sorted(alpha.ground, key=atom_key)
    t_atoms = atoms if tuple_atoms is None else sorted(tuple_atoms, key=atom_key)
    tuples = _sample_tuples(t_atoms, cfg, rng)
    transforms = _transform_pool(cfg, rng)
    elements = inst.element_pool(cfg, rng)
    window = sorted(cfg.window)

    def pick(i):
        return tuples[i] if i < len(tuples) else rng.choice(tuples)

    def l1(t):
        d = inst.dom(alpha(t))
        return d == t.df, lambda: {"t": repr(t), "alpha(t)": repr(alpha(t)),
                                   "dom": repr(d)}

    def l2(case):
        t, lam = case
        lhs = alpha(act(t, lam))
        rhs = inst.act(alpha(t), lam)
        return lhs == rhs, lambda: {"t": repr(t), "lam": repr(lam),
                                    "alpha(t∘lam)": repr(lhs),
                                    "alpha(t)·lam": repr(rhs)}

    capped = 0

    def l3(_):
        nonlocal capped
        if rng.random() < 0.5 and elements:
            # directed: project a sampled element and pick a tuple below it
            v = rng.choice(elements)
            dv = inst.dom(v)
            if v == inst.zero() or schema_is_all(dv):
                return None
            X = _random_subset(rng, sorted(dv))
            u = inst.act(v, partial_identity(X))
            candidates = [
                t for t in all_rows(t_atoms, X)
                if inst.leq(alpha(t), u)
            ] if len(t_atoms) ** len(X) <= _WITNESS_CAP else []
            if not candidates:
                return None
            t = rng.choice(candidates)
        else:
            t = rng.choice(tuples)
            v = rng.choice(elements)
            dv = inst.dom(v)
            if schema_is_all(dv) or not t.df <= dv:
                return None
            if not inst.leq(alpha(t), inst.act(v, partial_identity(t.df))):
                return None
        missing = sorted(dv - t.df)
        if len(atoms) ** len(missing) > _WITNESS_CAP:
            capped += 1
            return None
        found = any(inst.leq(alpha(merge(t, NTuple.of(dict(zip(missing, combo))))), v)
                    for combo in itertools.product(atoms, repeat=len(missing)))
        return found, lambda: {"t": repr(t), "v": repr(v)}

    def l4(case):
        t, z1, z2 = case
        if not inst.leq(alpha(t), inst.diag(z1, z2)):
            return None
        return t.get(z1) == t.get(z2), lambda: {"t": repr(t), "z1": z1, "z2": z2}

    n = max(cfg.cases, len(tuples))
    reports = [
        run_cases("L1", cfg.seed, tuples, l1),
        run_cases("L2", cfg.seed, ((pick(i), rng.choice(transforms)) for i in range(n)), l2),
        run_cases("L3", cfg.seed, range(cfg.cases), l3),
    ]
    reports[-1].notes["witness_search_capped"] = capped
    if level == "full":
        cases = ((pick(i), rng.choice(window), rng.choice(window))
                 for i in range(cfg.cases))
        reports.append(run_cases("L4", cfg.seed, cases, l4))
    return reports


def check_embedding(alpha: Labeling, cfg: SampleConfig, elements=None) -> list:
    """Verify on samples that the extent map is an injective homomorphism:
    meets go to joins, right multiplication and diagonals are preserved, and
    schemas match domains.

    ``elements`` overrides the instance pool, e.g. to restrict the check to
    elements reachable as labels."""
    inst = alpha.inst
    rng = random.Random(cfg.seed)
    if elements is None:
        elements = inst.element_pool(cfg, rng)
    transforms = _transform_pool(cfg, rng)
    window = sorted(cfg.window)
    ext_of = functools.cache(lambda u: extent(alpha, u))

    def pairs_with(pool):
        """Every element in turn, then random ones, each with a draw from pool."""
        return ((elements[i] if i < len(elements) else rng.choice(elements),
                 rng.choice(pool)) for i in range(max(cfg.cases, len(elements))))

    def schema_is_dom(u):
        return ext_of(u).schema == inst.dom(u), lambda: {"u": repr(u),
                                                         "ext(u)": repr(ext_of(u))}

    def injective(case):
        u, v = case
        if u == v:
            return None
        return ext_of(u) != ext_of(v), lambda: {"u": repr(u), "v": repr(v),
                                                "ext": repr(ext_of(u))}

    def meet_to_join(case):
        u, v = case
        lhs = ext_of(inst.meet(u, v))
        rhs = natural_join(ext_of(u), ext_of(v))
        return lhs == rhs, lambda: {"u": repr(u), "v": repr(v),
                                    "ext(u^v)": repr(lhs), "ext(u)⋈ext(v)": repr(rhs)}

    def act_preserved(case):
        u, lam = case
        lhs = ext_of(inst.act(u, lam))
        rhs = act_table(ext_of(u), lam)
        return lhs == rhs, lambda: {"u": repr(u), "lam": repr(lam),
                                    "ext(u·lam)": repr(lhs), "ext(u)·lam": repr(rhs)}

    def diag_preserved(case):
        x, y = case
        lhs = ext_of(inst.diag(x, y))
        rhs = diagonal(x, y, alpha.ground)
        return lhs == rhs, lambda: {"x": x, "y": y, "ext(d_xy)": repr(lhs),
                                    "E_xy": repr(rhs)}

    def bound_preserved(case):
        name, u, rows = case
        return ext_of(u).rows == rows, lambda: {name: repr(ext_of(u))}

    bounds = [("ext(0)", inst.zero(), frozenset()),
              ("ext(1)", inst.one(), frozenset({NTuple(())}))]
    return [
        run_cases("emb-dom", cfg.seed, elements, schema_is_dom),
        run_cases("emb-injective", cfg.seed, pairs_with(elements), injective),
        run_cases("emb-meet", cfg.seed, pairs_with(elements), meet_to_join),
        run_cases("emb-act", cfg.seed, pairs_with(transforms), act_preserved),
        run_cases("emb-diag", cfg.seed, itertools.product(window, window),
                  diag_preserved),
        run_cases("emb-bounds", cfg.seed, bounds, bound_preserved),
    ]


#: exchange-property spot checks that ``quotient`` draws
_SPOT_CHECKS = 200


def quotient(alpha: Labeling, seed: int = 0, window=(1, 2, 3)):
    """Collapse ground atoms whose two-column label sits below the diagonal.

    Returns the map from each atom to its class representative (the least
    member in atom order) and the induced labeling over the representatives.
    Raises QuotientError if the computed relation is not an equivalence or
    violates the exchange property (both only possible when alpha was not a
    quasi-labeling).  The exchange spot checks draw tuples over the variables
    in ``window``.
    """
    inst = alpha.inst
    atoms = sorted(alpha.ground, key=atom_key)
    d12 = inst.diag(1, 2)
    related = {g: frozenset(h for h in atoms
                            if inst.leq(alpha(NTuple.of({1: g, 2: h})), d12))
               for g in atoms}
    members = {}  # class -> its atoms, in atom order
    for a in atoms:
        members.setdefault(related[a], []).append(a)
    # an equivalence fails at (g, h) exactly for h in R(g) Δ members[R(g)];
    # the classes come in the order of their least atoms
    for cls, group in members.items():
        wrong = cls.symmetric_difference(group)
        if wrong:
            h = next(h for h in atoms if h in wrong)
            raise QuotientError(
                f"relation is not an equivalence at ({group[0]}, {h}); "
                "input was not a quasi-labeling")

    rng = random.Random(seed)
    for _ in range(_SPOT_CHECKS):
        X = [x for x in window if rng.random() < 0.7]
        s = NTuple.of({x: rng.choice(atoms) for x in X})
        t = NTuple.of({x: rng.choice(members[related[s(x)]]) for x in X})
        if alpha(s) != alpha(t):
            raise QuotientError(
                f"exchange property violated on {s} vs {t}; "
                "input was not a quasi-labeling")

    rep_of = {a: members[related[a]][0] for a in atoms}
    return rep_of, Labeling(rep_of.values(), inst, alpha)
