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
from .orbital import ELEMENT_BUDGET, OrbitalInstance, SampleConfig, run_cases
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


def term_key(t: GroundTerm):
    return t.sort_key()


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


def is_subterm_closed(terms) -> bool:
    terms = frozenset(terms)
    return all(c in terms for t in terms for c in t.children)


def is_base_tuple(b: NTuple) -> bool:
    return b.is_injective() and is_subterm_closed(b.rng)


def base_tuple_for(t: NTuple) -> NTuple:
    """The canonical base tuple covering t: the subterm closure of its range,
    enumerated in term order and assigned to x1, x2, ..."""
    ordered = sorted(subterm_closure(t.rng), key=term_key)
    return NTuple.trusted(tuple(enumerate(ordered, start=1)))


def eta(term: GroundTerm) -> NTuple:
    """<x1:t1, ..., xn:tn, x_{n+1}: v t1...tn>."""
    entries = {i + 1: c for i, c in enumerate(term.children)}
    entries[len(term.children) + 1] = term
    return NTuple.of(entries)


def _inverse_after(b: NTuple, t: NTuple) -> FPTransform:
    """b^{-r} ∘ t: the transformation y ↦ the least variable b maps to t(y),
    defined where t(y) lies in rng(b)."""
    inv = {a: x for x, a in reversed(b.pairs)}  # the least x is written last
    # t.pairs is sorted by variable, so the result is too
    return FPTransform.trusted(tuple((y, inv[a]) for y, a in t.pairs if a in inv))


def kappa(b: NTuple, inst: OrbitalInstance):
    """Meet over the terms in rng(b) of head · (eta^{-r} ∘ b)."""
    out = inst.one()
    for term in sorted(b.rng, key=term_key):
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

    @property
    def sizes(self) -> list:
        return [len(s) for s in self.strata]


class RepresentationBuilder:
    """Stateful driver: signature enumeration, memoized evaluation maps, and
    the stratified fixpoint loop for H.

    The builder calls the instance's ``meet``, ``act`` and ``one`` through
    one memo, so each distinct operation is computed once per builder; this
    relies on them being pure (see ``OrbitalInstance``).  ``kappa`` and
    ``alpha`` are the free ``kappa`` and ``alpha_tilde`` over that memo,
    cached per argument."""

    def __init__(self, inst: OrbitalInstance, caps: RepCaps | None = None):
        self.inst = inst
        self.caps = caps or RepCaps()
        self._kappa_cache = {}
        self._alpha_cache = {}
        self._ops = {}  # (operation, *args) -> the instance's result
        self._eta_inverses = {}  # term -> ((value, least variable of eta(term)), ...)
        self.symbols, self.symbols_truncated = self._enumerate_symbols()
        self._symbol_names = {v: f"s{i}" for i, (v, _) in enumerate(self.symbols)}

    def _enumerate_symbols(self):
        out = []
        truncated = False
        for width in range(1, self.caps.max_symbol_vars + 1):
            X = frozenset(range(1, width + 1))
            for v in self.inst.elements_with_schema(X):
                if len(out) >= self.caps.max_symbols:
                    truncated = True
                    break
                out.append((v, width - 1))
            if truncated:
                break
        return out, truncated

    def _op(self, name, *args):
        """``self.inst.<name>(*args)``, computed once per distinct arguments."""
        key = (name, *args)
        got = self._ops.get(key)
        if got is None:
            got = self._ops[key] = getattr(self.inst, name)(*args)
        return got

    def _eta_inverse(self, term: GroundTerm) -> tuple:
        got = self._eta_inverses.get(term)
        if got is None:
            inv = {a: x for x, a in reversed(eta(term).pairs)}  # least x last
            got = self._eta_inverses[term] = tuple(inv.items())
        return got

    def kappa(self, b: NTuple):
        got = self._kappa_cache.get(b)
        if got is None:
            got = self._kappa_cache[b] = self._kappa(b)
        return got

    def _kappa(self, b: NTuple):
        """The free ``kappa(b, inst)``, with b inverted once: each term's
        eta^{-r} ∘ b comes from the variables b sends to eta(term)'s values."""
        at = {}  # term -> the variables b maps to it
        for y, a in b.pairs:
            at.setdefault(a, []).append(y)
        out = self._op("one")
        for term in sorted(at, key=term_key):
            lam = sorted((y, x) for a, x in self._eta_inverse(term) for y in at.get(a, ()))
            out = self._op("meet", out,
                           self._op("act", term.head, FPTransform.trusted(tuple(lam))))
        return out

    def alpha(self, t: NTuple):
        got = self._alpha_cache.get(t)
        if got is None:
            got = self._alpha_cache[t] = self.eval_via(base_tuple_for(t), t)
        return got

    def eval_via(self, b: NTuple, t: NTuple):
        """kappa(b) · (b^{-1} ∘ t) for a base tuple b whose range covers t's."""
        return self._op("act", self.kappa(b), _inverse_after(b, t))

    def symbol_name(self, v) -> str:
        return self._symbol_names.get(v, "?")

    def format_term(self, t: GroundTerm) -> str:
        name = self.symbol_name(t.head)
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
        strata = [frozenset()]
        stratum_truncated = False
        current = set()
        for _ in range(self.caps.depth):
            admitted = []
            pool = sorted(current, key=term_key)
            for v, n in self.symbols:
                for combo in itertools.permutations(pool, n):
                    term = GroundTerm(v, combo)
                    if term in current:
                        continue
                    if self.admissible(v, combo):
                        admitted.append(term)
            admitted.sort(key=term_key)
            room = self.caps.max_terms_per_stratum - len(current)
            if len(admitted) > room:
                admitted = admitted[:room]
                stratum_truncated = True
            current = set(current) | set(admitted)
            strata.append(frozenset(current))
        return HSet(strata=strata, symbols_truncated=self.symbols_truncated,
                    stratum_truncated=stratum_truncated)

    def satisfies_membership_characterization(self, H: HSet, term: GroundTerm) -> bool:
        """Independent re-check of admission: children in H, pairwise distinct,
        head domain an initial segment, and the admission equation."""
        cs = term.children
        if len(set(cs)) != len(cs):
            return False
        if not all(c in H.terms for c in cs):
            return False
        if arity(self.inst, term.head) != len(cs):
            return False
        return self.admissible(term.head, cs)

    def labeling(self, H: HSet) -> Labeling:
        """alpha restricted to tuples over H, packaged for the labeling module."""
        if not H.terms:
            raise ValueError("H is empty (the instance has no constants)")
        return Labeling(H.terms, self.inst, self.alpha)


def build_H(inst: OrbitalInstance, depth: int = 2, caps: RepCaps | None = None) -> HSet:
    caps = RepCaps(depth=depth) if caps is None else replace(caps, depth=depth)
    return RepresentationBuilder(inst, caps).build_H()


# ---------------------------------------------------------------------------
# Harvested-case property checks


def _harvest_base_tuples(H: HSet, rng: random.Random, budget: int) -> list:
    """Base tuples over H: singletons' closures plus random multi-term closures."""
    terms = sorted(H.terms, key=term_key)
    out = [NTuple(())]
    seen = {NTuple(())}
    for t in terms:
        b = base_tuple_for(NTuple.of({1: t}))
        if b not in seen:
            seen.add(b)
            out.append(b)
    while len(out) < budget and terms:
        k = rng.randrange(1, min(3, len(terms)) + 1)
        picks = rng.sample(terms, k)
        b = base_tuple_for(NTuple.of({i + 1: p for i, p in enumerate(picks)}))
        if b not in seen:
            seen.add(b)
            out.append(b)
        else:
            budget -= 1  # avoid spinning when the space is exhausted
    return out


def _closed_subtuple(b: NTuple, rng: random.Random) -> NTuple:
    """Astrict b to the subterm closure of a random subset of its range;
    the result is again a base tuple below b."""
    kept = [a for a in sorted(b.rng, key=term_key) if rng.random() < 0.6]
    return astrict(b, subterm_closure(kept))


def harvested_checks(builder: RepresentationBuilder, H: HSet,
                     cfg: SampleConfig) -> list:
    """The property suite over base tuples and terms harvested from H.

    The checks draw from one rng in the order of the list at the end.  Draws
    over a set of terms walk it in term order, so the cases do not depend on
    the process's string-hash seed."""
    inst = builder.inst
    rng = random.Random(cfg.seed)
    bases = _harvest_base_tuples(H, rng, budget=ELEMENT_BUDGET)
    terms = sorted(H.terms, key=term_key)

    def membership(term):
        return builder.satisfies_membership_characterization(H, term), lambda: {
            "term": builder.format_term(term)}

    def kappa_dom(b):
        k = builder.kappa(b)
        if k == inst.zero():
            return None
        return inst.dom(k) == b.df, lambda: {"b": repr(b), "kappa": repr(k)}

    def kappa_reorder(b):
        if not b.pairs:
            return None
        srcs = rng.sample(range(1, 2 * len(b.pairs) + 2), len(b.pairs))
        tgts = list(b.df)
        rng.shuffle(tgts)
        xi = FPTransform.of(dict(zip(sorted(srcs), tgts)))
        b_xi = compose(b, xi)
        lhs = builder.kappa(b_xi)
        rhs = inst.act(builder.kappa(b), xi)
        return lhs == rhs, lambda: {"b": repr(b), "xi": repr(xi),
                                    "kappa(b∘xi)": repr(lhs), "kappa(b)·xi": repr(rhs)}

    def kappa_split(b):
        if len(b.pairs) < 2:
            return None
        half = frozenset(a for a in sorted(b.rng, key=term_key) if rng.random() < 0.5)
        b1 = astrict(b, subterm_closure(half))
        b2 = astrict(b, subterm_closure(b.rng - half))
        if merge(b1, b2) != b:
            return None
        lhs = builder.kappa(b)
        rhs = inst.meet(builder.kappa(b1), builder.kappa(b2))
        return lhs == rhs, lambda: {"b": repr(b), "b1": repr(b1), "b2": repr(b2),
                                    "kappa(b)": repr(lhs), "meet": repr(rhs)}

    def base_independence(b):
        if not b.pairs:
            return None
        # re-evaluate through a differently-ordered base tuple with the same range
        perm = list(b.df)
        rng.shuffle(perm)
        xi = FPTransform.of(dict(zip(sorted(b.df), perm)))
        b2 = compose(b, xi)
        t = NTuple.of({i + 1: rng.choice(sorted(b.rng, key=term_key))
                       for i in range(rng.randrange(1, 4))})
        lhs = builder.alpha(t)
        rhs = builder.eval_via(b2, t)
        if subterm_closure(t.rng) != frozenset(b.rng):
            return None
        return lhs == rhs, lambda: {"t": repr(t), "b2": repr(b2),
                                    "alpha(t)": repr(lhs), "via b2": repr(rhs)}

    def eta_recovery(term):
        lhs = builder.alpha(eta(term))
        return lhs == term.head, lambda: {"term": builder.format_term(term),
                                          "alpha(eta)": repr(lhs)}

    def nested_reduction(b):
        a = _closed_subtuple(b, rng)
        lhs = inst.act(builder.kappa(b), partial_identity(a.df))
        rhs = builder.kappa(a)
        return lhs == rhs, lambda: {"b": repr(b), "a": repr(a),
                                    "kappa(b)·pi": repr(lhs), "kappa(a)": repr(rhs)}

    def eval_via_cover(b):
        if not b.pairs:
            return None
        vals = sorted(b.rng, key=term_key)
        t = NTuple.of({i + 1: rng.choice(vals)
                       for i in range(rng.randrange(0, 4))})
        lhs = builder.alpha(t)
        rhs = builder.eval_via(b, t)
        return lhs == rhs, lambda: {"t": repr(t), "b": repr(b),
                                    "alpha(t)": repr(lhs), "kappa(b)·(b^-1∘t)": repr(rhs)}

    def kappa_nonzero(b):
        return builder.kappa(b) != inst.zero(), lambda: {"b": repr(b)}

    def extended_eta(term):
        closure = sorted(subterm_closure([term]), key=term_key)
        e = eta(term)  # defined on x1 .. x_{n+1}
        rest = [s for s in closure if s not in e.rng]
        b = NTuple(e.pairs + tuple(enumerate(rest, start=len(e.pairs) + 1)))
        if not is_base_tuple(b):
            return None
        n = len(term.children)
        i_ok = inst.act(builder.kappa(b),
                        partial_identity(range(1, n + 2))) == term.head
        a = astrict(b, subterm_closure(term.children))
        ii_ok = inst.act(builder.kappa(b),
                         partial_identity(a.df)) == builder.kappa(a)
        return i_ok and ii_ok, lambda: {"term": builder.format_term(term),
                                        "b": repr(b), "i_ok": i_ok, "ii_ok": ii_ok}

    def extension_witness(_):
        # alpha(t) = v·pi_{df(t)} must admit an extension with alpha = v exactly
        if not terms:
            return None
        X = frozenset(x for x in range(1, 4) if rng.random() < 0.7)
        tt = NTuple.of({x: rng.choice(terms) for x in X})
        v = builder.alpha(tt)
        keep = frozenset(x for x in X if rng.random() < 0.5)
        t = restrict(tt, keep)
        if len(terms) ** len(X - keep) > 512:
            return None
        for combo in itertools.product(terms, repeat=len(X - keep)):
            cand = merge(t, NTuple.of(dict(zip(sorted(X - keep), combo))))
            if builder.alpha(cand) == v:
                return True, None
        return False, lambda: {"t": repr(t), "v": repr(v)}

    return [
        run_cases("rep-membership", cfg.seed, terms, membership),
        run_cases("rep-kappa-dom", cfg.seed, bases, kappa_dom),
        run_cases("rep-kappa-reorder", cfg.seed, bases, kappa_reorder),
        run_cases("rep-kappa-split", cfg.seed, bases, kappa_split),
        run_cases("rep-base-independence", cfg.seed, bases, base_independence),
        run_cases("rep-eta-recovery", cfg.seed, terms, eta_recovery),
        run_cases("rep-nested-reduction", cfg.seed, bases, nested_reduction),
        run_cases("rep-eval-via-cover", cfg.seed, bases, eval_via_cover),
        run_cases("rep-kappa-nonzero", cfg.seed, bases, kappa_nonzero),
        run_cases("rep-extended-eta", cfg.seed, terms, extended_eta),
        run_cases("rep-extension-witness", cfg.seed, range(min(cfg.cases, 60)),
                  extension_witness),
    ]


@dataclass
class PipelineReport:
    """End-to-end representation run: strata, harvested checks, quotient and
    embedding verification."""

    strata_sizes: list = field(default_factory=list)
    symbol_count: int = 0
    symbols_truncated: bool = False
    stratum_truncated: bool = False
    terms: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    quotient_classes: int = 0
    fragment_classes: int = 0
    reachable_count: int = 0
    coverage: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.checks)

    def to_json(self) -> dict:
        return {
            "strata_sizes": self.strata_sizes,
            "symbol_count": self.symbol_count,
            "symbols_truncated": self.symbols_truncated,
            "stratum_truncated": self.stratum_truncated,
            "terms": self.terms,
            "quotient_classes": self.quotient_classes,
            "fragment_classes": self.fragment_classes,
            "reachable_count": self.reachable_count,
            "coverage": self.coverage,
            "error": self.error,
            "checks": [r.to_json() for r in self.checks],
            "status": "pass" if self.passed else "fail",
        }


#: tuple schemas with more label combinations than this are sampled, not enumerated
_PAIR_CAP = 4096


def _reachable_elements(alpha_bar: Labeling, cfg: SampleConfig,
                        rng: random.Random) -> list:
    """Distinct label values over tuples with small domains, plus the bounds."""
    inst = alpha_bar.inst
    atoms = sorted(alpha_bar.ground, key=atom_key)
    seen = {}
    for u in (inst.zero(), inst.one()):
        seen.setdefault(u, None)
    for X in (frozenset(), frozenset({1}), frozenset({1, 2})):
        if len(atoms) ** len(X) > _PAIR_CAP:
            combos = (tuple(rng.choice(atoms) for _ in range(len(X)))
                      for _ in range(_PAIR_CAP // 4))
        else:
            combos = itertools.product(atoms, repeat=len(X))
        for combo in combos:
            t = NTuple.of(dict(zip(sorted(X), combo)))
            seen.setdefault(alpha_bar(t), None)
    return list(seen)


def represent(inst: OrbitalInstance, cfg: SampleConfig,
              caps: RepCaps | None = None) -> PipelineReport:
    """build_H -> induced quasi-labeling -> quotient -> extent verification."""
    caps = caps or RepCaps()
    builder = RepresentationBuilder(inst, caps)
    H = builder.build_H()
    report = PipelineReport(
        strata_sizes=H.sizes,
        symbol_count=len(builder.symbols),
        symbols_truncated=H.symbols_truncated,
        stratum_truncated=H.stratum_truncated,
        terms=[builder.format_term(t) for t in sorted(H.terms, key=term_key)],
    )
    if not H.terms:
        report.error = "H is empty (no constants in the signature)"
        return report

    report.checks.extend(harvested_checks(builder, H, cfg))

    # Witness-closed fragment: tuples draw atoms from the penultimate stratum,
    # so every L3-style witness (one stratum deeper) exists in the built H.
    # Checks on the truncated top stratum would report spurious failures.
    if len(H.strata) >= 3 and H.strata[-2]:
        frag_terms = H.strata[-2]
    else:
        frag_terms = H.terms

    alpha = builder.labeling(H)
    report.checks.extend(check_labeling(alpha, "quasi", cfg,
                                        tuple_atoms=frag_terms))

    rep_of, alpha_bar = quotient(alpha, seed=cfg.seed, window=sorted(cfg.window))
    report.quotient_classes = len(alpha_bar.ground)
    # class representatives are minimal in the depth-first term order, so
    # fragment-term classes are represented by fragment-depth terms
    frag_reps = frozenset(rep_of[t] for t in frag_terms)
    report.fragment_classes = len(frag_reps)
    report.checks.extend(check_labeling(alpha_bar, "full", cfg,
                                        tuple_atoms=frag_reps))

    alpha_frag = Labeling(frag_reps, inst, builder.alpha)
    rng = random.Random(cfg.seed)
    reachable = _reachable_elements(alpha_frag, cfg, rng)
    report.reachable_count = len(reachable)
    report.checks.extend(check_embedding(alpha_frag, cfg, elements=reachable))

    pool = inst.element_pool(cfg, rng)
    reach = set(reachable)
    hit = sum(1 for u in pool if u in reach)
    report.coverage = hit / len(pool) if pool else 0.0
    return report
