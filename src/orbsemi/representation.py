"""The representation construction: ground terms over an instance's signature,
base tuples, the kappa/alpha evaluation maps, the stratified admissible-term
set H, and the end-to-end desk-scale embedding pipeline.

Elements whose domain is an initial variable segment {x1, ..., x_{n+1}} act as
n-ary function symbols.  The set H of admissible ground terms is built in
strata up to a depth cap; H is infinite in general, so truncation is reported,
never silent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import FrozenInstanceError, dataclass, field, replace

from .labeling import Labeling, check_embedding, check_labeling, quotient
from .orbital import ELEMENT_BUDGET, OrbitalInstance, SampleConfig, _run_check
from .tables import all_rows
from .transforms import (FPTransform, astrict, compose, partial_identity, restrict,
                         schema_is_all)
from .tuples import NTuple, atom_key, merge


class GroundTerm:
    """A term v t1...tn whose head is an instance element of matching arity.

    Immutable.  The hash (that of ``(head, children)``) and the depth are
    computed once at construction, the sort key and the subterm closure once
    on first use, so none of them walks the subtree again.
    """

    __slots__ = ("head", "children", "depth", "_hash", "_sort_key", "_subterms")

    def __init__(self, head, children: tuple = ()):
        init = object.__setattr__
        init(self, "head", head)
        init(self, "children", children)
        init(self, "depth", 1 + max((c.depth for c in children), default=0))
        init(self, "_hash", hash((head, children)))
        init(self, "_sort_key", None)
        init(self, "_subterms", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GroundTerm, (self.head, self.children)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GroundTerm:
            return NotImplemented
        return (self._hash == other._hash and self.head == other.head
                and self.children == other.children)

    def sort_key(self):
        # depth-first key: any total order extending the subterm order works,
        # determinism is what matters
        key = self._sort_key
        if key is None:
            key = (self.depth, _head_key(self.head),
                   tuple(c.sort_key() for c in self.children))
            object.__setattr__(self, "_sort_key", key)
        return key

    def subterms(self) -> frozenset:
        """The subterm closure of {self}."""
        out = self._subterms
        if out is None:
            out = frozenset({self}).union(*(c.subterms() for c in self.children))
            object.__setattr__(self, "_subterms", out)
        return out

    def __repr__(self):
        if not self.children:
            return f"T<{self.head!r}>"
        return f"T<{self.head!r}>({', '.join(repr(c) for c in self.children)})"


def _head_key(head):
    sk = getattr(head, "sort_key", None)
    if sk is not None:
        return sk()
    return str(head)


def arity(inst: OrbitalInstance, v):
    """n if dom(v) = {x1, ..., x_{n+1}}, else None (not a function symbol)."""
    d = inst.dom(v)
    if schema_is_all(d) or not d:
        return None
    n = len(d) - 1
    if d != frozenset(range(1, n + 2)):
        return None
    return n


def subterm_closure(terms) -> frozenset:
    return frozenset().union(*(t.subterms() for t in terms))


def is_base_tuple(b: NTuple) -> bool:
    """b is injective and its range is subterm-closed."""
    terms = b.rng
    return b.is_injective() and all(c in terms for t in terms for c in t.children)


def base_tuple_for(t: NTuple) -> NTuple:
    """The canonical base tuple covering t: the subterm closure of its range,
    enumerated in term order and assigned to x1, x2, ..."""
    ordered = sorted(subterm_closure(t.rng), key=GroundTerm.sort_key)
    return NTuple.trusted(tuple(enumerate(ordered, start=1)))


def eta(term: GroundTerm) -> NTuple:
    """<x1:t1, ..., xn:tn, x_{n+1}: v t1...tn>."""
    return NTuple.trusted((*enumerate(term.children, start=1),
                           (len(term.children) + 1, term)))


def _inverse_after(b: NTuple, t: NTuple) -> FPTransform:
    """b^{-r} ∘ t: the transformation y ↦ the least variable b maps to t(y),
    defined where t(y) lies in rng(b)."""
    inv = {a: x for x, a in reversed(b.pairs)}  # the least x is written last
    # t.pairs is sorted by variable, so the result is too
    return FPTransform.trusted(tuple((y, inv[a]) for y, a in t.pairs if a in inv))


def kappa(b: NTuple, inst: OrbitalInstance):
    """Meet over the terms in rng(b) of head · (eta^{-r} ∘ b)."""
    out = inst.one()
    for term in sorted(b.rng, key=GroundTerm.sort_key):
        out = inst.meet(out, inst.act(term.head, _inverse_after(eta(term), b)))
    return out


def alpha_tilde(t: NTuple, inst: OrbitalInstance, base: NTuple | None = None):
    """kappa(b_t) · (b_t^{-1} ∘ t); independent of the base-tuple choice."""
    b = base_tuple_for(t) if base is None else base
    return inst.act(kappa(b, inst), _inverse_after(b, t))


@dataclass
class RepCaps:
    """Size limits for the (in general infinite) construction."""

    depth: int = 2
    max_symbols: int = 64
    max_terms_per_stratum: int = 256
    max_symbol_vars: int = 3  # symbols have dom {x1..x_{n+1}} with n+1 <= this

    def __post_init__(self):
        if min(self.depth, self.max_symbols, self.max_terms_per_stratum,
               self.max_symbol_vars) < 1:
            raise ValueError("caps must be >= 1")


@dataclass
class HSet:
    """Strata H^(0) ⊆ H^(1) ⊆ ... of admissible terms, with truncation flags."""

    strata: list
    symbols_truncated: bool = False
    stratum_truncated: bool = False

    @property
    def terms(self) -> frozenset:
        return self.strata[-1] if self.strata else frozenset()


class RepresentationBuilder:
    """Stateful driver: signature enumeration, memoized evaluation maps, and
    the stratified fixpoint loop for H.

    The builder calls the instance's ``meet``, ``act`` and ``one`` through
    one memo, so each distinct operation is computed once per builder; this
    relies on them being pure (see ``OrbitalInstance``).  ``kappa`` and
    ``alpha`` are the free ``kappa`` and ``alpha_tilde`` over that memo,
    cached per argument; ``kappa``'s cache also holds the prefixes of each
    fold, so base tuples that share a prefix share its meets."""

    def __init__(self, inst: OrbitalInstance, caps: RepCaps | None = None):
        self.inst = inst
        self.caps = caps or RepCaps()
        self._kappa_cache = {}
        self._alpha_cache = {}
        self._ops = {}  # (operation, *args) -> the instance's result
        self.symbols, self.symbols_truncated = self._enumerate_symbols()
        self._symbol_names = {v: f"s{i}" for i, (v, _) in enumerate(self.symbols)}

    def _enumerate_symbols(self):
        signature = ((v, width - 1)
                     for width in range(1, self.caps.max_symbol_vars + 1)
                     for v in self.inst.elements_with_schema(frozenset(range(1, width + 1))))
        out = list(itertools.islice(signature, self.caps.max_symbols))
        return out, next(signature, None) is not None

    def _op(self, name, *args):
        """``self.inst.<name>(*args)``, computed once per distinct arguments."""
        key = (name, *args)
        got = self._ops.get(key)
        if got is None:
            got = self._ops[key] = getattr(self.inst, name)(*args)
        return got

    def kappa(self, b: NTuple):
        """The free ``kappa(b, inst)``, one recursion over ``_kappa_cache``:
        κ(<>) = one, and κ(b) = κ(b restricted to rng(b) − {s}) ∧
        s.head · (η(s)⁻ʳ ∘ b) for s the last term of rng(b) in term order.
        A term's children sort before it, so the prefix of a subterm-closed b
        is subterm-closed, no earlier step sees s, and the meets run in the
        free fold's order.  The cache holds every prefix of b's fold."""
        got = self._kappa_cache.get(b)
        if got is None:
            if b.pairs:
                rng = b.rng
                last = max(rng, key=GroundTerm.sort_key)
                step = self._op("act", last.head, _inverse_after(eta(last), b))
                got = self._op("meet", self.kappa(astrict(b, rng - {last})), step)
            else:
                got = self._op("one")
            self._kappa_cache[b] = got
        return got

    def alpha(self, t: NTuple):
        got = self._alpha_cache.get(t)
        if got is None:
            got = self._alpha_cache[t] = self.eval_via(base_tuple_for(t), t)
        return got

    def eval_via(self, b: NTuple, t: NTuple):
        """kappa(b) · (b^{-1} ∘ t) for a base tuple b whose range covers t's."""
        return self._op("act", self.kappa(b), _inverse_after(b, t))

    def format_term(self, t: GroundTerm) -> str:
        name = self._symbol_names.get(t.head, "?")
        if not t.children:
            return name
        return f"{name}({', '.join(self.format_term(c) for c in t.children)})"

    def admissible(self, v, children: tuple) -> bool:
        """The stratum admission condition: v·π_{x1..xn} = alpha(<x1:t1,...>)."""
        n = len(children)
        lhs = self._op("act", v, partial_identity(range(1, n + 1)))
        rhs = self.alpha(NTuple.of({i + 1: c for i, c in enumerate(children)}))
        return lhs == rhs

    def build_H(self) -> HSet:
        """The strata of H up to ``caps.depth``: each adds the new terms over
        the last that ``admissible`` would accept.  The symbols of each arity
        n are indexed by v·π_{x1..xn}, so a combination of children costs one
        alpha and one lookup.  Also builds ``base_pool``'s fixed head."""
        heads = {}  # n -> {v·π_{x1..xn}: the symbols v of arity n with it}
        for v, n in self.symbols:
            lhs = self._op("act", v, partial_identity(range(1, n + 1)))
            heads.setdefault(n, {}).setdefault(lhs, []).append(v)
        strata = [frozenset()]
        stratum_truncated = False
        current = set()
        for _ in range(self.caps.depth):
            admitted = []
            pool = sorted(current, key=GroundTerm.sort_key)
            for n, by_lhs in heads.items():
                for combo in itertools.permutations(pool, n):
                    rhs = self.alpha(NTuple.trusted(tuple(enumerate(combo, start=1))))
                    for v in by_lhs.get(rhs, ()):
                        term = GroundTerm(v, combo)
                        if term not in current:
                            admitted.append(term)
            admitted.sort(key=GroundTerm.sort_key)
            room = self.caps.max_terms_per_stratum - len(current)
            if len(admitted) > room:
                admitted = admitted[:room]
                stratum_truncated = True
            current = set(current) | set(admitted)
            strata.append(frozenset(current))
        self.H = HSet(strata=strata, symbols_truncated=self.symbols_truncated,
                      stratum_truncated=stratum_truncated)
        self.terms = sorted(current, key=GroundTerm.sort_key)
        self._base_head = dict.fromkeys(
            [NTuple(())] + [base_tuple_for(NTuple.of({1: t})) for t in self.terms])
        return self.H

    def base_pool(self, rng: random.Random) -> list:
        """Base tuples over H: the empty tuple, the closure of each term in
        term order, then random closures of one to three terms while the pool
        holds fewer than ELEMENT_BUDGET tuples.  So it holds 1 + |H| tuples
        when that is at least ELEMENT_BUDGET, else at most ELEMENT_BUDGET.
        ``build_H`` builds the head before the random closures."""
        terms = self.terms
        out = dict(self._base_head)
        budget = ELEMENT_BUDGET
        while len(out) < budget and terms:
            picks = rng.sample(terms, rng.randrange(1, min(3, len(terms)) + 1))
            b = base_tuple_for(NTuple.of({i + 1: p for i, p in enumerate(picks)}))
            if b in out:
                budget -= 1  # avoid spinning when the space is exhausted
            out[b] = None
        return list(out)

    def satisfies_membership_characterization(self, term: GroundTerm) -> bool:
        """Independent re-check of admission: children in H, pairwise distinct,
        head domain an initial segment, and the admission equation."""
        cs = term.children
        return (len(set(cs)) == len(cs) and all(c in self.H.terms for c in cs)
                and arity(self.inst, term.head) == len(cs) and self.admissible(term.head, cs))


def build_H(inst: OrbitalInstance, depth: int = 2, caps: RepCaps | None = None) -> HSet:
    caps = RepCaps(depth=depth) if caps is None else replace(caps, depth=depth)
    return RepresentationBuilder(inst, caps).build_H()


# ---------------------------------------------------------------------------
# Harvested-case property checks.  As for the axioms (see orbital._run_check),
# a body's parameters after the builder ``ctx`` are the variables it
# quantifies over; a body reduces the integers ``bits`` and ``ks`` against
# the terms of ``b``, which it takes in the order b lists them.


def _subset(b: NTuple, bits: int) -> list:
    """The terms of b at the set bits of ``bits``."""
    return [a for i, (_, a) in enumerate(b.pairs) if bits >> i & 1]


def _picked(b: NTuple, ks) -> NTuple:
    """<x1: the k1-th term of b, x2: the k2-th, ...>, each k taken modulo |b|."""
    return NTuple.of({i: b.pairs[k % len(b.pairs)][1] for i, k in enumerate(ks, start=1)})


def _arranged(items, bits: int) -> list:
    """The items in the order that ``bits`` picks, read as the digits of a
    factorial-base number."""
    items, out = list(items), []
    while items:
        bits, r = divmod(bits, len(items))
        out.append(items.pop(r))
    return out


def _rep_membership(ctx, term):
    return ctx.satisfies_membership_characterization(term), lambda: {
        "term": ctx.format_term(term)}


def _rep_kappa_dom(ctx, b):
    k = ctx.kappa(b)
    if k == ctx.inst.zero():
        return None
    return ctx.inst.dom(k) == b.df, lambda: {"kappa": k}


def _rep_kappa_reorder(ctx, b, bits):
    n = len(b.pairs)
    if not n:
        return None
    # xi sends n of x1 .. x_{2n+1} onto df(b) = {x1 .. xn}, as bits orders them
    order = _arranged(range(1, 2 * n + 2), bits)
    xi = FPTransform.of(dict(zip(sorted(order[:n]), [x for x in order if x <= n])))
    lhs = ctx.kappa(compose(b, xi))
    rhs = ctx.inst.act(ctx.kappa(b), xi)
    return lhs == rhs, lambda: {"xi": xi, "kappa(b∘xi)": lhs, "kappa(b)·xi": rhs}


def _rep_kappa_split(ctx, b, bits):
    if len(b.pairs) < 2:
        return None
    half = frozenset(_subset(b, bits))
    b1 = astrict(b, subterm_closure(half))
    b2 = astrict(b, subterm_closure(b.rng - half))
    # each pair of b is kept in b1 or in b2, so b is their merge
    lhs = ctx.kappa(b)
    rhs = ctx.inst.meet(ctx.kappa(b1), ctx.kappa(b2))
    return lhs == rhs, lambda: {"b1": b1, "b2": b2, "kappa(b)": lhs, "meet": rhs}


def _rep_base_independence(ctx, b, bits, ks):
    if not b.pairs:
        return None
    t = _picked(b, ks)
    if subterm_closure(t.rng) != b.rng:
        return None
    # re-evaluate through a differently-ordered base tuple with the same range
    xi = FPTransform.of(dict(zip(sorted(b.df), _arranged(sorted(b.df), bits))))
    b2 = compose(b, xi)
    lhs = ctx.alpha(t)
    rhs = ctx.eval_via(b2, t)
    return lhs == rhs, lambda: {"t": t, "b2": b2, "alpha(t)": lhs, "via b2": rhs}


def _rep_eta_recovery(ctx, term):
    lhs = ctx.alpha(eta(term))
    return lhs == term.head, lambda: {"term": ctx.format_term(term), "alpha(eta)": lhs}


def _rep_nested_reduction(ctx, b, bits):
    # b astricted to the subterm closure of some of its terms is again a
    # base tuple, below b
    a = astrict(b, subterm_closure(_subset(b, bits)))
    lhs = ctx.inst.act(ctx.kappa(b), partial_identity(a.df))
    rhs = ctx.kappa(a)
    return lhs == rhs, lambda: {"a": a, "kappa(b)·pi": lhs, "kappa(a)": rhs}


def _rep_eval_via_cover(ctx, b, ks):
    if not b.pairs:
        return None
    t = _picked(b, ks)
    lhs = ctx.alpha(t)
    rhs = ctx.eval_via(b, t)
    return lhs == rhs, lambda: {"t": t, "alpha(t)": lhs, "kappa(b)·(b^-1∘t)": rhs}


def _rep_kappa_nonzero(ctx, b):
    return ctx.kappa(b) != ctx.inst.zero(), lambda: {}


def _rep_extended_eta(ctx, term):
    e = eta(term)  # defined on x1 .. x_{n+1}
    rest = sorted(term.subterms() - e.rng, key=GroundTerm.sort_key)
    b = NTuple(e.pairs + tuple(enumerate(rest, start=len(e.pairs) + 1)))
    if not is_base_tuple(b):
        return None
    inst, k = ctx.inst, ctx.kappa(b)
    i_ok = inst.act(k, partial_identity(e.df)) == term.head
    a = astrict(b, subterm_closure(term.children))
    ii_ok = inst.act(k, partial_identity(a.df)) == ctx.kappa(a)
    return i_ok and ii_ok, lambda: {"term": ctx.format_term(term), "b": b,
                                    "i_ok": i_ok, "ii_ok": ii_ok}


def _rep_extension_witness(ctx, tt, Y):
    # alpha(t) = v·pi_{df(t)} must admit an extension with alpha = v exactly
    v = ctx.alpha(tt)
    t, missing = restrict(tt, Y), sorted(tt.df - Y)
    if len(ctx.terms) ** len(missing) > 512:
        return None
    for combo in itertools.product(ctx.terms, repeat=len(missing)):
        if ctx.alpha(merge(t, NTuple.of(dict(zip(missing, combo))))) == v:
            return True, None
    return False, lambda: {"t": t, "v": v}


_REPRESENTATION = {
    "rep-membership": _rep_membership,
    "rep-kappa-dom": _rep_kappa_dom,
    "rep-kappa-reorder": _rep_kappa_reorder,
    "rep-kappa-split": _rep_kappa_split,
    "rep-base-independence": _rep_base_independence,
    "rep-eta-recovery": _rep_eta_recovery,
    "rep-nested-reduction": _rep_nested_reduction,
    "rep-eval-via-cover": _rep_eval_via_cover,
    "rep-kappa-nonzero": _rep_kappa_nonzero,
    "rep-extended-eta": _rep_extended_eta,
    "rep-extension-witness": _rep_extension_witness,
}


def harvested_checks(builder: RepresentationBuilder, cfg: SampleConfig) -> list:
    """The property suite over the terms and base tuples of the builder's H
    (``build_H`` must have run, with H nonempty).  Each law runs on its own
    stream, one case per value of the pool it walks."""
    cfg = replace(cfg, cases=1)
    return [_run_check(builder, check_id, body, cfg)
            for check_id, body in _REPRESENTATION.items()]


@dataclass
class PipelineReport:
    """End-to-end representation run: strata, harvested checks, quotient and
    embedding verification."""

    strata_sizes: list = field(default_factory=list)
    symbol_count: int = 0
    symbols_truncated: bool = False
    stratum_truncated: bool = False
    terms: list = field(default_factory=list)
    quotient_classes: int = 0
    fragment_classes: int = 0
    reachable_count: int = 0
    coverage: float = 0.0
    error: str | None = None
    checks: list = field(default_factory=list)  # last: to_json keeps this order

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.checks)

    def to_json(self) -> dict:
        return {**vars(self), "checks": [r.to_json() for r in self.checks],
                "status": "pass" if self.passed else "fail"}


#: tuple schemas with more label combinations than this are sampled, not enumerated
_PAIR_CAP = 4096


def _labeling_checks(alpha: Labeling, level: str, cfg: SampleConfig, atoms) -> list:
    """The labeling laws at ``level``, each id prefixed by the level (``quasi/L1``,
    ``full/L1``), so that the two runs keep apart in one report."""
    reports = check_labeling(alpha, level, cfg, tuple_atoms=atoms)
    for r in reports:
        r.check_id = f"{level}/{r.check_id}"
    return reports


def _reachable_elements(alpha_bar: Labeling, rng: random.Random) -> list:
    """Distinct label values over tuples with small domains, plus the bounds."""
    inst = alpha_bar.inst
    atoms = sorted(alpha_bar.ground, key=atom_key)
    seen = {}
    for u in (inst.zero(), inst.one()):
        seen.setdefault(u, None)
    for X in (frozenset(), frozenset({1}), frozenset({1, 2})):
        if len(atoms) ** len(X) > _PAIR_CAP:
            tuples = (NTuple.of({x: rng.choice(atoms) for x in sorted(X)})
                      for _ in range(_PAIR_CAP // 4))
        else:
            tuples = all_rows(atoms, X)
        for t in tuples:
            seen.setdefault(alpha_bar(t), None)
    return list(seen)


def represent(inst: OrbitalInstance, cfg: SampleConfig,
              caps: RepCaps | None = None) -> PipelineReport:
    """build_H -> induced quasi-labeling -> quotient -> extent verification."""
    caps = caps or RepCaps()
    builder = RepresentationBuilder(inst, caps)
    H = builder.build_H()
    report = PipelineReport(
        strata_sizes=[len(s) for s in H.strata],
        symbol_count=len(builder.symbols),
        symbols_truncated=H.symbols_truncated,
        stratum_truncated=H.stratum_truncated,
        terms=[builder.format_term(t) for t in builder.terms],
    )
    if not H.terms:
        report.error = "H is empty (no constants in the signature)"
        return report

    report.checks.extend(harvested_checks(builder, cfg))

    # Witness-closed fragment: tuples draw atoms from the penultimate stratum,
    # so every L3-style witness (one stratum deeper) exists in the built H.
    # Checks on the truncated top stratum would report spurious failures.
    if len(H.strata) >= 3 and H.strata[-2]:
        frag_terms = H.strata[-2]
    else:
        frag_terms = H.terms

    alpha = Labeling(H.terms, inst, builder.alpha)
    report.checks.extend(_labeling_checks(alpha, "quasi", cfg, frag_terms))

    rep_of, alpha_bar, quotient_checks = quotient(alpha, cfg)
    report.checks.extend(quotient_checks)
    report.quotient_classes = len(alpha_bar.ground)
    # class representatives are minimal in the depth-first term order, so
    # fragment-term classes are represented by fragment-depth terms
    frag_reps = frozenset(rep_of[t] for t in frag_terms)
    report.fragment_classes = len(frag_reps)
    report.checks.extend(_labeling_checks(alpha_bar, "full", cfg, frag_reps))

    alpha_frag = Labeling(frag_reps, inst, builder.alpha)
    rng = random.Random(cfg.seed)
    reachable = _reachable_elements(alpha_frag, rng)
    report.reachable_count = len(reachable)
    report.checks.extend(check_embedding(alpha_frag, cfg, elements=reachable))

    pool = inst.element_pool(cfg, rng)
    reach = set(reachable)
    hit = sum(1 for u in pool if u in reach)
    report.coverage = hit / len(pool) if pool else 0.0
    return report
