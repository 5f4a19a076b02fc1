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
a configurable cap keeps the search bounded, and cap hits are reported
separately from failures.
"""

from __future__ import annotations

import itertools
import random

from .orbital import CheckReport, OrbitalInstance, SampleConfig, _random_subset
from .tables import Table, TableAlgebra, all_rows, bottom, natural_join
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
    if not rows:
        return bottom(alpha.ground)
    return Table.from_rows(alpha.ground, rows)


def _sample_tuples(alpha: Labeling, cfg: SampleConfig, rng: random.Random,
                   atoms=None) -> list:
    """Deterministic tuple pool: exhaustive over two-variable schemas inside
    the window (when affordable), sampled beyond."""
    atoms = sorted(alpha.ground if atoms is None else atoms, key=atom_key)
    window = sorted(cfg.window)
    pool = [NTuple(())]
    small = [X for X in _subsets(window) if 1 <= len(X) <= 2]
    budgeted = sum(len(atoms) ** len(X) for X in small) <= 4 * cfg.element_budget
    if budgeted:
        for X in small:
            pool.extend(all_rows(atoms, X))
    while len(pool) < cfg.element_budget:
        X = [x for x in window if rng.random() < 0.6]
        pool.append(NTuple.of({x: rng.choice(atoms) for x in X}))
    return pool


def _subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


def check_labeling(alpha: Labeling, level: str, cfg: SampleConfig,
                   witness_cap: int = 256, tuple_atoms=None) -> list:
    """Run the labeling laws; ``level`` is "quasi" (L1-L3) or "full" (adds L4).

    ``tuple_atoms`` restricts the atoms used to build sampled tuples; the L3
    witness search still ranges over the whole ground set.  This keeps the
    check sound on truncated grounds, where witnesses for the deepest atoms
    would fall outside the built fragment.

    Returns one CheckReport per law.
    """
    if level not in ("quasi", "full"):
        raise ValueError(f"level must be 'quasi' or 'full', got {level!r}")
    if tuple_atoms is not None and not frozenset(tuple_atoms) <= alpha.ground:
        raise ValueError("tuple_atoms must lie inside the ground set")
    inst = alpha.inst
    rng = random.Random(cfg.seed)
    tuples = _sample_tuples(alpha, cfg, rng, atoms=tuple_atoms)
    transforms = _labeling_transform_pool(cfg, rng)
    elements = inst.element_pool(cfg, rng)
    atoms = sorted(alpha.ground, key=atom_key)
    t_atoms = atoms if tuple_atoms is None else sorted(tuple_atoms, key=atom_key)

    reports = []

    r1 = CheckReport(check_id="L1", seed=cfg.seed)
    for i, t in enumerate(tuples):
        r1.cases_run += 1
        r1.cases_applicable += 1
        if inst.dom(alpha(t)) != t.df:
            r1.passed = False
            r1.counterexample = {"t": repr(t), "alpha(t)": repr(alpha(t)),
                                 "dom": repr(inst.dom(alpha(t))), "case_index": i}
            break
    reports.append(r1)

    r2 = CheckReport(check_id="L2", seed=cfg.seed)
    for i in range(max(cfg.cases, len(tuples))):
        t = tuples[i] if i < len(tuples) else rng.choice(tuples)
        lam = rng.choice(transforms)
        r2.cases_run += 1
        r2.cases_applicable += 1
        lhs = alpha(act(t, lam))
        rhs = inst.act(alpha(t), lam)
        if lhs != rhs:
            r2.passed = False
            r2.counterexample = {"t": repr(t), "lam": repr(lam),
                                 "alpha(t∘lam)": repr(lhs),
                                 "alpha(t)·lam": repr(rhs), "case_index": i}
            break
    reports.append(r2)

    r3 = CheckReport(check_id="L3", seed=cfg.seed)
    capped = 0
    for i in range(cfg.cases):
        r3.cases_run += 1
        if rng.random() < 0.5 and elements:
            # directed: project a sampled element and pick a tuple below it
            v = rng.choice(elements)
            dv = inst.dom(v)
            if v == inst.zero() or schema_is_all(dv):
                continue
            X = _random_subset(rng, sorted(dv))
            u = inst.act(v, partial_identity(X))
            candidates = [
                t for t in all_rows(t_atoms, X)
                if inst.leq(alpha(t), u)
            ] if len(t_atoms) ** len(X) <= witness_cap else []
            if not candidates:
                continue
            t = rng.choice(candidates)
        else:
            t = rng.choice(tuples)
            v = rng.choice(elements)
            dv = inst.dom(v)
            if schema_is_all(dv) or not t.df <= dv:
                continue
            if not inst.leq(alpha(t), inst.act(v, partial_identity(t.df))):
                continue
            dv = inst.dom(v)
        missing = dv - t.df
        if len(atoms) ** len(missing) > witness_cap:
            capped += 1
            continue
        r3.cases_applicable += 1
        found = False
        for combo in itertools.product(atoms, repeat=len(missing)):
            tt = merge(t, NTuple.of(dict(zip(sorted(missing), combo))))
            if inst.leq(alpha(tt), v):
                found = True
                break
        if not found:
            r3.passed = False
            r3.counterexample = {"t": repr(t), "v": repr(v), "case_index": i}
            break
    r3.notes["witness_search_capped"] = capped
    reports.append(r3)

    if level == "full":
        r4 = CheckReport(check_id="L4", seed=cfg.seed)
        window = sorted(cfg.window)
        for i in range(cfg.cases):
            t = tuples[i] if i < len(tuples) else rng.choice(tuples)
            z1 = rng.choice(window)
            z2 = rng.choice(window)
            r4.cases_run += 1
            if not inst.leq(alpha(t), inst.diag(z1, z2)):
                continue
            r4.cases_applicable += 1
            if t.get(z1) != t.get(z2):
                r4.passed = False
                r4.counterexample = {"t": repr(t), "z1": z1, "z2": z2,
                                     "case_index": i}
                break
        reports.append(r4)

    for r in reports:
        r.vacuous = r.cases_applicable == 0
    return reports


def _labeling_transform_pool(cfg, rng):
    from .orbital import _transform_pool

    return _transform_pool(cfg, rng)


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
    transforms = _labeling_transform_pool(cfg, rng)
    window = sorted(cfg.window)
    ext = {}

    def ext_of(u):
        got = ext.get(u)
        if got is None:
            got = ext[u] = extent(alpha, u)
        return got

    reports = []

    r_dom = CheckReport(check_id="emb-dom", seed=cfg.seed)
    for u in elements:
        r_dom.cases_run += 1
        r_dom.cases_applicable += 1
        if ext_of(u).schema != inst.dom(u):
            r_dom.passed = False
            r_dom.counterexample = {"u": repr(u), "ext(u)": repr(ext_of(u))}
            break
    reports.append(r_dom)

    r_inj = CheckReport(check_id="emb-injective", seed=cfg.seed)
    for i in range(max(cfg.cases, len(elements))):
        u = elements[i] if i < len(elements) else rng.choice(elements)
        v = rng.choice(elements)
        r_inj.cases_run += 1
        if u == v:
            continue
        r_inj.cases_applicable += 1
        if ext_of(u) == ext_of(v):
            r_inj.passed = False
            r_inj.counterexample = {"u": repr(u), "v": repr(v),
                                    "ext": repr(ext_of(u)), "case_index": i}
            break
    reports.append(r_inj)

    r_meet = CheckReport(check_id="emb-meet", seed=cfg.seed)
    for i in range(max(cfg.cases, len(elements))):
        u = elements[i] if i < len(elements) else rng.choice(elements)
        v = rng.choice(elements)
        r_meet.cases_run += 1
        r_meet.cases_applicable += 1
        lhs = ext_of(inst.meet(u, v))
        rhs = natural_join(ext_of(u), ext_of(v))
        if lhs != rhs:
            r_meet.passed = False
            r_meet.counterexample = {"u": repr(u), "v": repr(v),
                                     "ext(u^v)": repr(lhs),
                                     "ext(u)⋈ext(v)": repr(rhs), "case_index": i}
            break
    reports.append(r_meet)

    r_act = CheckReport(check_id="emb-act", seed=cfg.seed)
    for i in range(max(cfg.cases, len(elements))):
        u = elements[i] if i < len(elements) else rng.choice(elements)
        lam = rng.choice(transforms)
        r_act.cases_run += 1
        r_act.cases_applicable += 1
        lhs = ext_of(inst.act(u, lam))
        rhs = act_table(ext_of(u), lam)
        if lhs != rhs:
            r_act.passed = False
            r_act.counterexample = {"u": repr(u), "lam": repr(lam),
                                    "ext(u·lam)": repr(lhs),
                                    "ext(u)·lam": repr(rhs), "case_index": i}
            break
    reports.append(r_act)

    r_diag = CheckReport(check_id="emb-diag", seed=cfg.seed)
    for x in window:
        for y in window:
            r_diag.cases_run += 1
            r_diag.cases_applicable += 1
            lhs = ext_of(inst.diag(x, y))
            rhs = diagonal(x, y, alpha.ground)
            if lhs != rhs:
                r_diag.passed = False
                r_diag.counterexample = {"x": x, "y": y, "ext(d_xy)": repr(lhs),
                                         "E_xy": repr(rhs)}
                break
        if not r_diag.passed:
            break
    reports.append(r_diag)

    r_bounds = CheckReport(check_id="emb-bounds", seed=cfg.seed)
    r_bounds.cases_run = r_bounds.cases_applicable = 2
    if ext_of(inst.zero()).rows:
        r_bounds.passed = False
        r_bounds.counterexample = {"ext(0)": repr(ext_of(inst.zero()))}
    elif ext_of(inst.one()).rows != frozenset({NTuple(())}):
        r_bounds.passed = False
        r_bounds.counterexample = {"ext(1)": repr(ext_of(inst.one()))}
    reports.append(r_bounds)

    for r in reports:
        r.vacuous = r.cases_applicable == 0
    return reports


def extent_act_inclusion(alpha: Labeling, u, lam) -> bool:
    """The unconditional inclusion ext(u)·lam ⊆ ext(u·lam) (holds for any
    labeling, surjective or not)."""
    lhs = act_table(extent(alpha, u), lam)
    rhs = extent(alpha, alpha.inst.act(u, lam))
    return lhs.rows <= rhs.rows


class Equivalence:
    """Union-find partition of a finite atom set."""

    def __init__(self, atoms):
        self.parent = {a: a for a in atoms}

    def find(self, a):
        p = self.parent[a]
        while p != self.parent[p]:
            p = self.parent[p]
        # path compression
        while self.parent[a] != p:
            self.parent[a], a = p, self.parent[a]
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the canonically smaller atom as root
            if atom_key(rb) < atom_key(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)

    def blocks(self) -> dict:
        out = {}
        for a in self.parent:
            out.setdefault(self.find(a), set()).add(a)
        return out

    def representatives(self) -> frozenset:
        return frozenset(self.blocks())


def quotient(alpha: Labeling, spot_checks: int = 200, seed: int = 0,
             window=(1, 2, 3)):
    """Collapse ground atoms whose two-column label sits below the diagonal.

    Returns the equivalence and the induced labeling over the block
    representatives.  Raises QuotientError if the computed relation is not an
    equivalence or violates the exchange property (both only possible when
    alpha was not a quasi-labeling).  The exchange spot checks draw tuples
    over the variables in ``window``.
    """
    inst = alpha.inst
    atoms = sorted(alpha.ground, key=atom_key)
    d12 = inst.diag(1, 2)

    def related(g, h):
        return inst.leq(alpha(NTuple.of({1: g, 2: h})), d12)

    raw = {(g, h) for g in atoms for h in atoms if related(g, h)}
    eq = Equivalence(atoms)
    for g, h in raw:
        eq.union(g, h)
    for g in atoms:
        for h in atoms:
            if eq.same(g, h) != ((g, h) in raw):
                raise QuotientError(
                    f"relation is not an equivalence at ({g}, {h}); "
                    "input was not a quasi-labeling")

    rng = random.Random(seed)
    reps = sorted(eq.representatives(), key=atom_key)
    members = {}  # class root -> its atoms, in atom order
    for a in atoms:
        members.setdefault(eq.find(a), []).append(a)
    for _ in range(spot_checks):
        X = [x for x in window if rng.random() < 0.7]
        s = NTuple.of({x: rng.choice(atoms) for x in X})
        t = NTuple.of({x: rng.choice(members[eq.find(s(x))]) for x in X})
        if alpha(s) != alpha(t):
            raise QuotientError(
                f"exchange property violated on {s} vs {t}; "
                "input was not a quasi-labeling")

    quotient_alpha = Labeling(reps, inst, lambda t: alpha(t))
    return eq, quotient_alpha
