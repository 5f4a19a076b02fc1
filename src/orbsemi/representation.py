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

from .labeling import Labeling, check_embedding, check_labeling, extension, quotient
from .orbital import ELEMENT_BUDGET, OrbitalInstance, SampleConfig, _run_check
from .tables import all_rows
from .transforms import (FPTransform, astrict, compose, partial_identity, restrict,
                         schema_is_all)
from .tuples import NTuple, atom_key


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
            key = (self.depth, atom_key(self.head),
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


def arity(inst: OrbitalInstance, v):
    """n if dom(v) = {x1, ..., x_{n+1}}, else None (not a function symbol)."""
    d = inst.dom(v)
    symbol = not schema_is_all(d) and d and d == frozenset(range(1, len(d) + 1))
    return len(d) - 1 if symbol else None


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


def _inverse_after(b: NTuple, t: NTuple) -> tuple:
    """The pairs of b^{-r} ∘ t, the transformation y ↦ the least variable b
    maps to t(y), defined where t(y) lies in rng(b)."""
    inv = {a: x for x, a in reversed(b.pairs)}  # the least x is written last
    # t.pairs is sorted by variable, so the result is too
    return tuple((y, inv[a]) for y, a in t.pairs if a in inv)


def kappa(b: NTuple, inst: OrbitalInstance):
    """Meet over the terms in rng(b) of head · (eta^{-r} ∘ b)."""
    out = inst.one()
    for term in sorted(b.rng, key=GroundTerm.sort_key):
        lam = FPTransform.trusted(_inverse_after(eta(term), b))
        out = inst.meet(out, inst.act(term.head, lam))
    return out


def alpha_tilde(t: NTuple, inst: OrbitalInstance, base: NTuple | None = None):
    """kappa(b_t) · (b_t^{-1} ∘ t); independent of the base-tuple choice."""
    b = base_tuple_for(t) if base is None else base
    return inst.act(kappa(b, inst), FPTransform.trusted(_inverse_after(b, t)))


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


class RepresentationBuilder:
    """Stateful driver: signature enumeration, memoized evaluation maps, and
    the stratified fixpoint loop for H.

    The builder hash-conses the instance's values: ``_kept`` holds each
    symbol and each distinct ``meet``, ``act`` and ``one`` result as one
    object for the builder's life, so an id names one value.  ``_ops`` keys
    u·λ by (id(u), λ's pairs) and u ∧ v by (id(u), id(v)), for kept u and v
    only (a value from outside is kept first): each distinct operation, which
    must be pure (see ``OrbitalInstance``), is computed once per builder, and
    a hit hashes only ints and tuples.  ``kappa`` and ``alpha`` are the free
    ``kappa`` and ``alpha_tilde`` over that memo.
    ``kappa``'s cache holds every prefix of each fold, so base tuples that
    share a prefix share its meets; ``alpha`` keeps no memo beyond these.

    ``build_H`` keeps H in one list, ``terms``, in term order: the stratum
    H^(k) is the prefix ``terms[:strata_sizes[k]]``.  It gives ``terms[i]``
    the rank i, the closure mask ``_masks[i]``, the int whose set bits are
    the ranks of its subterms, and ``_eta_ranks[i]``, the ranks of its η's
    terms, so ``alpha`` takes a subterm-closed set of terms as one int and
    builds, sorts and hashes no base tuple, and a fold step of
    ``_mask_kappa`` hashes no term.  A hit of ``alpha`` is one lookup in
    ``_mask_kappa_cache`` and one in ``_ops``, made in ``alpha`` itself."""

    def __init__(self, inst: OrbitalInstance, caps: RepCaps | None = None):
        self.inst = inst
        self.caps = caps or RepCaps()
        self._kappa_cache = {}
        self._mask_kappa_cache = {}
        self._kept = {}  # instance value -> the one object of it the builder passes on
        self._ops = {}  # (id(u), λ's pairs) -> u·λ, (id(u), id(v)) -> u ∧ v; both kept
        signature = ((v, width - 1)
                     for width in range(1, self.caps.max_symbol_vars + 1)
                     for v in inst.elements_with_schema(frozenset(range(1, width + 1))))
        self.symbols = [(self._keep(v), n)
                        for v, n in itertools.islice(signature, self.caps.max_symbols)]
        self.symbols_truncated = next(signature, None) is not None
        self._symbol_names = {v: f"s{i}" for i, (v, _) in enumerate(self.symbols)}

    def _keep(self, value):
        """The builder's one object equal to ``value``: the first it was given."""
        return self._kept.setdefault(value, value)

    def _act(self, u, lam: tuple):
        """u·λ for a kept u and λ's pairs, asked of the instance once."""
        if (got := self._ops.get((id(u), lam))) is None:
            got = self._ops[id(u), lam] = self._keep(self.inst.act(u, FPTransform.trusted(lam)))
        return got

    def _meet(self, u, v):
        """u ∧ v for kept u and v, in this order, asked of the instance once."""
        if (got := self._ops.get((id(u), id(v)))) is None:
            got = self._ops[id(u), id(v)] = self._keep(self.inst.meet(u, v))
        return got

    def kappa(self, b: NTuple):
        """The free ``kappa(b, inst)``, one recursion over ``_kappa_cache``:
        κ(<>) = one, and κ(b) = κ(b restricted to rng(b) − {s}) ∧
        s.head · (η(s)⁻ʳ ∘ b) for s the last term of rng(b) in term order.
        A term's children sort before it, so the prefix of a subterm-closed b
        is subterm-closed, no earlier step sees s, and the meets run in the
        free fold's order.  The cache holds every prefix of b's fold."""
        if (got := self._kappa_cache.get(b)) is None:
            if b.pairs:
                rng = b.rng
                last = max(rng, key=GroundTerm.sort_key)
                step = self._act(self._keep(last.head), _inverse_after(eta(last), b))
                got = self._meet(self.kappa(astrict(b, rng - {last})), step)
            else:
                got = self._mask_kappa(0)
            self._kappa_cache[b] = got
        return got

    def _mask_kappa(self, mask: int):
        """κ(b_M) for the base tuple b_M over the terms at the ranks in M,
        the recursion of ``kappa`` with the same instance calls: κ(0) = one,
        and κ(M) = κ(M without its top rank r) ∧ s.head · (η(s)⁻ʳ ∘ b_M)
        for s = ``terms[r]``."""
        if (got := self._mask_kappa_cache.get(mask)) is None:
            if mask:
                r = mask.bit_length() - 1
                # η(s) is injective: the children of a term of H are distinct
                lam = tuple(sorted(((mask & ((1 << c) - 1)).bit_count() + 1, x)
                                   for x, c in enumerate(self._eta_ranks[r], start=1)))
                step = self._act(self.terms[r].head, lam)  # build_H kept H's heads
                got = self._meet(self._mask_kappa(mask ^ (1 << r)), step)
            else:
                got = self._keep(self.inst.one())
            self._mask_kappa_cache[mask] = got
        return got

    def alpha(self, t: NTuple):
        """α(t) = κ(b_t)·(b_t⁻¹ ∘ t) for a tuple t over H, with M the union
        of the closure masks of t's terms: t(y) of rank r sits in b_t at one
        more than the number of ranks in M below r.  A hit reads both memos
        itself; ``_mask_kappa`` and ``_act`` run only on a miss."""
        rank, masks = self._rank, self._masks
        ranks, mask = [], 0
        for _, a in t:
            r = rank[a]
            ranks.append(r)
            mask |= masks[r]
        lam = tuple([(y, (mask & ((1 << r) - 1)).bit_count() + 1)
                     for (y, _), r in zip(t, ranks)])
        if (k := self._mask_kappa_cache.get(mask)) is None:
            k = self._mask_kappa(mask)
        if (got := self._ops.get((id(k), lam))) is None:
            got = self._act(k, lam)
        return got

    def eval_via(self, b: NTuple, t: NTuple):
        """kappa(b) · (b^{-1} ∘ t) for a base tuple b whose range covers t's."""
        return self._act(self.kappa(b), _inverse_after(b, t))

    def format_term(self, t: GroundTerm) -> str:
        name = self._symbol_names.get(t.head, "?")
        if not t.children:
            return name
        return f"{name}({', '.join(self.format_term(c) for c in t.children)})"

    def admissible(self, v, children: tuple) -> bool:
        """The stratum admission condition: v·π_{x1..xn} = alpha(<x1:t1,...>)."""
        n = len(children)
        lhs = self._act(self._keep(v), tuple((i, i) for i in range(1, n + 1)))
        rhs = self.alpha(NTuple.of({i + 1: c for i, c in enumerate(children)}))
        return lhs == rhs

    def build_H(self) -> None:
        """Build H's terms up to ``caps.depth`` in term order into ``terms``,
        with the rank of each in ``_rank``, its closure mask in ``_masks``
        and the ranks of the terms of its η, its children and then itself,
        in ``_eta_ranks``, and ``stratum_truncated``.  ``strata_sizes``
        holds the lengths [0, |H^(1)|, ...] of the prefixes of ``terms``
        that are the strata H^(0) = ∅ ⊆ H^(1) ⊆ ....  Each stratum adds the
        new terms over the last that ``admissible`` would accept.  The
        symbols of each arity n are indexed by v·π_{x1..xn}, so a combination
        of children costs one alpha and one lookup.  Appending each stratum's
        new terms in term order keeps ``terms`` in term order: a term admitted
        at stratum k has depth k, as a child is new at k - 1 (else a cut left
        no room)."""
        heads = {}  # n -> {v·π_{x1..xn}: the symbols v of arity n with it}
        for v, n in self.symbols:
            lhs = self._act(v, tuple((i, i) for i in range(1, n + 1)))
            heads.setdefault(n, {}).setdefault(lhs, []).append(v)
        self.terms, self._rank, self._masks, self._eta_ranks = [], {}, [], []
        self.strata_sizes, self.stratum_truncated = [0], False
        for _ in range(self.caps.depth):
            admitted = []
            for n, by_lhs in heads.items():
                for combo in itertools.permutations(self.terms, n):
                    rhs = self.alpha(NTuple.trusted(tuple(enumerate(combo, start=1))))
                    for v in by_lhs.get(rhs, ()):
                        term = GroundTerm(v, combo)
                        if term not in self._rank:
                            admitted.append(term)
            admitted.sort(key=GroundTerm.sort_key)
            room = self.caps.max_terms_per_stratum - len(self.terms)
            if len(admitted) > room:
                admitted = admitted[:room]
                self.stratum_truncated = True
            for term in admitted:
                rank = self._rank[term] = len(self.terms)
                children = [self._rank[c] for c in term.children]
                mask = 1 << rank
                for c in children:
                    mask |= self._masks[c]
                self._masks.append(mask)
                self._eta_ranks.append((*children, rank))
                self.terms.append(term)
            self.strata_sizes.append(len(self.terms))

    def base_pool(self, rng: random.Random) -> list:
        """Base tuples over H: the empty tuple, the closure of each term in
        term order, then random closures of one to three terms while the pool
        holds fewer than ELEMENT_BUDGET tuples.  So it holds 1 + |H| tuples
        when that is at least ELEMENT_BUDGET, else at most ELEMENT_BUDGET."""
        terms = self.terms
        out = dict.fromkeys(
            [NTuple(())] + [base_tuple_for(NTuple.of({1: t})) for t in terms])
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
        return (len(set(cs)) == len(cs) and all(c in self._rank for c in cs)
                and arity(self.inst, term.head) == len(cs) and self.admissible(term.head, cs))


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


#: the most extensions of one case that ``rep-extension-witness`` searches;
#: a case whose |H|^(missing variables) exceeds it does not apply
EXTENSION_CAP = 512


def _rep_extension_witness(ctx, tt, Y):
    # alpha(t) = v·pi_{df(t)} must admit an extension with alpha = v exactly
    v = ctx.alpha(tt)
    t, missing = restrict(tt, Y), sorted(tt.df - Y)
    if len(ctx.terms) ** len(missing) > EXTENSION_CAP:
        return None
    for combo in itertools.product(ctx.terms, repeat=len(missing)):
        if ctx.alpha(extension(t, missing, combo)) == v:
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
    stream at ``cases`` = |H|: one case per value of the pool it walks, and
    |H| cases of ``rep-extension-witness``, which walks none."""
    cfg = replace(cfg, cases=len(builder.terms))
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


def _labeling_checks(alpha: Labeling, level: str, cfg: SampleConfig, atoms) -> list:
    """The labeling laws at ``level``, each id prefixed by the level (``quasi/L1``,
    ``full/L1``), so that the two runs keep apart in one report."""
    reports = check_labeling(alpha, level, cfg, tuple_atoms=atoms)
    for r in reports:
        r.check_id = f"{level}/{r.check_id}"
    return reports


def _reachable_elements(alpha: Labeling) -> list:
    """The bounds, then the distinct labels of the tuples over alpha's ground
    with domain ∅, {x1} and {x1, x2}, in that order."""
    inst = alpha.inst
    seen = dict.fromkeys((inst.zero(), inst.one()))
    for X in (frozenset(), frozenset({1}), frozenset({1, 2})):
        for t in all_rows(alpha.ground, X):
            seen.setdefault(alpha(t), None)
    return list(seen)


def represent(inst: OrbitalInstance, cfg: SampleConfig,
              caps: RepCaps | None = None) -> PipelineReport:
    """build_H -> induced quasi-labeling -> quotient -> extent verification."""
    caps = caps or RepCaps()
    builder = RepresentationBuilder(inst, caps)
    builder.build_H()
    report = PipelineReport(
        strata_sizes=builder.strata_sizes,
        symbol_count=len(builder.symbols),
        symbols_truncated=builder.symbols_truncated,
        stratum_truncated=builder.stratum_truncated,
        terms=[builder.format_term(t) for t in builder.terms],
    )
    if not builder.terms:
        report.error = "H is empty (no constants in the signature)"
        return report

    report.checks.extend(harvested_checks(builder, cfg))

    # Witness-closed fragment: tuples draw atoms from the penultimate stratum,
    # so every L3-style witness (one stratum deeper) exists in the built H.
    # Checks on the truncated top stratum would report spurious failures.
    sizes = builder.strata_sizes
    frag_terms = builder.terms[:sizes[-2] if len(sizes) >= 3 and sizes[-2] else sizes[-1]]

    alpha = Labeling(builder.terms, inst, builder.alpha)
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
    reachable = _reachable_elements(alpha_frag)
    report.reachable_count = len(reachable)
    report.checks.extend(check_embedding(alpha_frag, cfg, elements=reachable))

    pool = inst.element_pool(cfg, random.Random(cfg.seed))
    reach = set(reachable)
    hit = sum(1 for u in pool if u in reach)
    report.coverage = hit / len(pool) if pool else 0.0
    return report
