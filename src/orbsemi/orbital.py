"""Abstract orbital-semilattice interface, the (A1)-(A13) axiom checker and the
derived-property suite.

The axioms quantify over infinite sets (all transformations, all finite variable
sets, all variables), so every check is bounded: elements come from the
instance's pool, transformations and variables from a finite window.  Sampling
is sound for refutation; exhaustion of the pool in the first quantifier position
gives small-scope confidence.  Each check draws only the variables it
quantifies over, which its body names as parameters.  Checks are
deterministic given the seed; a failure carries a replayable counterexample.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from .transforms import (
    EMPTY,
    FPTransform,
    all_transforms,
    astrict,
    compose,
    is_folding,
    partial_identity,
    preimage,
    schema_is_all,
    schema_subset,
    schema_union,
)
from .tuples import NTuple


#: sizes of the sampled element, tuple and base-tuple pools, and of the
#: transformation pool; a window with at most TRANSFORM_BUDGET transformations
#: puts all of them in the pool
ELEMENT_BUDGET = 40
TRANSFORM_BUDGET = 64
#: the largest tuple space that the L3 check enumerates, and the range of
#: the index ``k`` by which it picks one of the tuples it enumerated
WITNESS_CAP = 256


@dataclass
class SampleConfig:
    """Budgets for a bounded check run."""

    var_window: int = 3
    seed: int = 0
    cases: int = 400

    def __post_init__(self):
        if self.var_window < 2:
            raise ValueError("var_window must be >= 2")
        if self.cases < 1:
            raise ValueError("cases must be >= 1")

    @property
    def window(self) -> tuple:
        """The variables x1 .. x_{var_window}, in order."""
        return tuple(range(1, self.var_window + 1))


@dataclass
class CheckReport:
    """Outcome of one axiom/property check."""

    check_id: str
    cases_run: int = 0
    cases_applicable: int = 0
    passed: bool = True
    counterexample: Optional[dict] = None
    seed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def vacuous(self) -> bool:
        return self.cases_applicable == 0

    @property
    def status(self) -> str:
        return ("vacuous" if self.vacuous else "pass") if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "cases": self.cases_run,
            "applicable": self.cases_applicable,
            "status": self.status,
            "seed": self.seed,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }

    def summary(self) -> str:
        line = f"{self.check_id}: {self.status.upper()} ({self.cases_applicable}/{self.cases_run} applicable cases)"
        if self.counterexample:
            line += f"\n  counterexample: {self.counterexample}"
        return line


class OrbitalInstance(ABC):
    """Interface every orbital-semilattice instance implements.

    Elements are opaque hashable values with structural equality.  ``dom``
    returns either a finite frozenset of variable indices or the ALL marker
    (only for the bottom element).

    ``meet``, ``act``, ``diag``, ``zero``, ``one`` and ``dom`` must be pure
    functions of their arguments: equal arguments give equal results, and a
    call changes no later one.  The representation construction computes
    each distinct operation only once and relies on this.
    """

    @abstractmethod
    def meet(self, u, v): ...

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def act(self, u, lam: FPTransform): ...

    @abstractmethod
    def diag(self, x: int, y: int): ...

    @abstractmethod
    def dom(self, u): ...

    def leq(self, u, v) -> bool:
        return self.meet(u, v) == u

    @abstractmethod
    def element_pool(self, cfg: SampleConfig, rng: random.Random) -> list:
        """Deterministic element pool: exhaustive core plus sampled extras."""

    @abstractmethod
    def elements_with_schema(self, X: frozenset):
        """Enumerate elements u with dom(u) = X (needed by the representation
        construction)."""


def e_diag(inst: OrbitalInstance, delta: FPTransform):
    """The delta-diagonal: meet of diag(x, delta(x)) over x in df(delta)."""
    if not is_folding(delta):
        raise ValueError(f"not a folding: {delta}")
    out = inst.one()
    for x, dx in delta.pairs:
        out = inst.meet(out, inst.diag(x, dx))
    return out


# ---------------------------------------------------------------------------
# Case generation


def _transform_pool(cfg: SampleConfig, rng: random.Random) -> list:
    window = cfg.window
    total = (len(window) + 1) ** len(window)
    if total <= TRANSFORM_BUDGET:
        return list(all_transforms(window, window))
    pool = dict.fromkeys([EMPTY, partial_identity(window)])  # insertion-ordered set
    while len(pool) < TRANSFORM_BUDGET:
        pool[_random_transform(rng, window)] = None
    return list(pool)


def _random_transform(rng: random.Random, window) -> FPTransform:
    out = {}
    for x in window:
        if rng.random() < 0.6:
            out[x] = rng.choice(window)
    return FPTransform.of(out)


def _random_folding(rng: random.Random, window: tuple) -> FPTransform:
    """A folding on the sorted window: identity on a retract R, everything
    else in df mapped into R."""
    retract = [x for x in window if rng.random() < 0.5]
    if not retract:
        return EMPTY
    out = {x: x for x in retract}
    for x in window:
        if x not in out and rng.random() < 0.5:
            out[x] = rng.choice(retract)
    return FPTransform.of(out)


def _random_injection(rng: random.Random, window: tuple) -> FPTransform:
    if rng.random() < 0.5:
        srcs = window  # full permutation keeps the range condition easy to hit
    else:
        srcs = [x for x in window if rng.random() < 0.7]
    tgts = rng.sample(window, len(srcs))
    return FPTransform.of(dict(zip(srcs, tgts)))


def _domains(rng: random.Random, window: tuple, elements=(), transforms=(), tuples=(),
             bases=(), terms=()) -> dict:
    """Each variable a check may quantify over, and how its value in case
    ``i`` is drawn.  ``u``, ``t``, ``b`` and ``term`` run through the
    element, tuple, base-tuple and term pools in order before they sample,
    so the first quantifier position exhausts its pool.  ``tt`` is a tuple
    over the window with values in the term pool.  ``bits`` and ``ks`` are
    random integers that a body reduces against values of its own."""
    choice = rng.choice
    return {
        "u": lambda i: elements[i] if i < len(elements) else choice(elements),
        "t": lambda i: tuples[i] if i < len(tuples) else choice(tuples),
        "b": lambda i: bases[i] if i < len(bases) else choice(bases),
        "term": lambda i: terms[i] if i < len(terms) else choice(terms),
        "tt": lambda _: NTuple.of({x: choice(terms) for x in window if rng.random() < 0.7}),
        "v": lambda _: choice(elements),
        "vs": lambda _: [choice(elements) for _ in range(rng.randrange(4))],
        "lam": lambda _: choice(transforms),
        "mu": lambda _: choice(transforms),
        "x": lambda _: choice(window),
        "y": lambda _: choice(window),
        "z": lambda _: choice(window),
        "w": lambda _: choice(window),
        "Y": lambda _: frozenset(x for x in window if rng.random() < 0.5),
        "k": lambda _: rng.randrange(WITNESS_CAP),
        "bits": lambda _: rng.getrandbits(256),
        "ks": lambda _: [rng.getrandbits(32) for _ in range(rng.randint(1, 3))],
        "inj": lambda _: _random_injection(rng, window),
        "delta": lambda _: _random_folding(rng, window),
        "window": lambda _: list(window),  # a list, as a counterexample shows it
    }


def _shown(value):
    """A counterexample field: numbers and text as they are, variable sets
    sorted, lists item by item and anything else by its repr.  An integer
    beyond 2**53 is shown as its decimal text, which a JSON reader that
    parses numbers as doubles would round."""
    if isinstance(value, int) and abs(value) > 2**53:
        return str(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, list):
        return [_shown(v) for v in value]
    return repr(value)


# ---------------------------------------------------------------------------
# Axiom bodies.  A body's parameters after ``inst`` are the variables it
# quantifies over, each drawn from its domain in ``_domains``.  It returns
# None when the case does not apply, else (ok, detail) with detail() the
# extra counterexample fields (see _run_check).


def _ax1(inst, u):
    if u == inst.zero():
        return None
    lhs = inst.act(u, EMPTY)
    return lhs == inst.one(), lambda: {"u*pi_empty": lhs}


def _ax2(inst, lam):
    lhs = inst.act(inst.zero(), lam)
    return lhs == inst.zero(), lambda: {"zero*lam": lhs}


def _ax3(inst, u, v, Y):
    du = inst.dom(u)
    if schema_is_all(du):
        return None
    Y = Y | du  # the hypothesis dom(u) ⊆ Y
    piY = partial_identity(Y)
    lhs = inst.act(inst.meet(u, v), piY)
    rhs = inst.meet(u, inst.act(v, piY))
    return lhs == rhs, lambda: {"(u^v)*piY": lhs, "u^(v*piY)": rhs, "Y_used": Y}


def _ax4(inst, u, Y):
    proj = inst.act(u, partial_identity(Y))
    return inst.leq(u, proj), lambda: {"u*piY": proj}


def _ax5(inst, u, v, lam):
    u = inst.meet(u, v)  # guarantees u <= v
    lhs = inst.act(u, lam)
    rhs = inst.act(v, lam)
    return inst.leq(lhs, rhs), lambda: {"u_used": u, "u*lam": lhs, "v*lam": rhs}


def _ax6(inst, u, x, y):
    if x == y:
        return None
    u = inst.meet(u, inst.diag(x, y))  # guarantees u <= d_xy
    if u == inst.zero():
        return None
    pi = partial_identity(inst.dom(u) - {y})
    rhs = inst.meet(inst.act(u, pi), inst.diag(x, y))
    return u == rhs, lambda: {"u_used": u, "rhs": rhs}


def _ax7(inst, u, lam, mu):
    lhs = inst.act(inst.act(u, lam), mu)
    rhs = inst.act(u, compose(lam, mu))
    return lhs == rhs, lambda: {"(u*lam)*mu": lhs, "u*(lam.mu)": rhs}


def _ax8(inst, u):
    du = inst.dom(u)
    if schema_is_all(du):
        return None  # pi_var is not a finite transformation
    rhs = inst.act(u, partial_identity(du))
    return rhs == u, lambda: {"u*pi_dom": rhs}


def _ax9(inst, x):
    d = inst.diag(x, x)
    return d != inst.zero(), lambda: {"d_xx": d}


def _ax10(inst, x, y):
    lhs = inst.diag(x, y)
    rhs = inst.act(inst.diag(x, x), FPTransform.of({x: x, y: x}))
    return lhs == rhs, lambda: {"d_xy": lhs, "d_xx*(xx/xy)": rhs}


def _ax11(inst, u, lam):
    if u == inst.zero():
        return None
    lhs = inst.dom(inst.act(u, lam))
    rhs = preimage(lam, inst.dom(u))
    return lhs == rhs, lambda: {"dom(u*lam)": lhs, "lam^-1(dom u)": rhs}


def _ax12(inst, u):
    if u == inst.zero():
        return None
    return not schema_is_all(inst.dom(u)), lambda: {"dom(u)": inst.dom(u)}


def _ax13(inst, u, window):
    # two-sided inclusion; the right side ranges over all of var, so the
    # reverse direction is intersected with the window
    du = inst.dom(u)
    fwd_vars = window if schema_is_all(du) else du
    fwd = all(inst.leq(u, inst.diag(x, x)) for x in fwd_vars)
    below = frozenset(x for x in window if inst.leq(u, inst.diag(x, x)))
    rev = schema_is_all(du) or below <= du  # below lies inside the window
    return fwd and rev, lambda: {"dom(u)": du, "{x in window: u<=d_xx}": below}


_AXIOMS = {
    "A1": _ax1, "A2": _ax2, "A3": _ax3, "A4": _ax4, "A5": _ax5, "A6": _ax6,
    "A7": _ax7, "A8": _ax8, "A9": _ax9, "A10": _ax10, "A11": _ax11,
    "A12": _ax12, "A13": _ax13,
}

AXIOM_IDS = tuple(_AXIOMS)


# ---------------------------------------------------------------------------
# Derived properties: consequences of the axioms, checked so that concrete
# instances and mutants can be probed at the same scale.


def _drv_dom_antitone(inst, u, v):
    u = inst.meet(u, v)
    if not inst.leq(u, v):
        return None
    ok = schema_subset(inst.dom(v), inst.dom(u))
    return ok, lambda: {"u_used": u, "dom(u)": inst.dom(u), "dom(v)": inst.dom(v)}


def _drv_diag_dom(inst, x, y):
    d = inst.dom(inst.diag(x, y))
    return d == frozenset({x, y}), lambda: {"dom(d_xy)": d}


def _drv_zero_dom_all(inst):
    return schema_is_all(inst.dom(inst.zero())), lambda: {"dom(0)": inst.dom(inst.zero())}


def _drv_nonzero_iff_finite_dom(inst, u):
    finite = not schema_is_all(inst.dom(u))
    return (u != inst.zero()) == finite, lambda: {"dom(u)": inst.dom(u)}


def _drv_one_iff_empty_dom(inst, u):
    empty_dom = inst.dom(u) == frozenset()
    return (u == inst.one()) == empty_dom, lambda: {"dom(u)": inst.dom(u)}


def _drv_zero_neq_one(inst):
    return inst.zero() != inst.one(), lambda: {}


def _drv_one_absorbs_act(inst, lam):
    lhs = inst.act(inst.one(), lam)
    return lhs == inst.one(), lambda: {"one*lam": lhs}


def _drv_act_astrict_dom(inst, u, lam):
    du = inst.dom(u)
    lam2 = lam if schema_is_all(du) else astrict(lam, du)
    lhs = inst.act(u, lam)
    rhs = inst.act(u, lam2)
    return lhs == rhs, lambda: {"u*lam": lhs, "u*lam|^dom": rhs}


def _drv_meet_dom_union(inst, u, v):
    w = inst.meet(u, v)
    if w == inst.zero():
        return None
    lhs = inst.dom(w)
    rhs = schema_union(inst.dom(u), inst.dom(v))
    return lhs == rhs, lambda: {"dom(u^v)": lhs, "dom(u)|dom(v)": rhs}


def _drv_order_via_dom_projection(inst, u, v):
    dv = inst.dom(v)
    if schema_is_all(dv):
        return None  # pi_var is not a finite transformation
    pi = partial_identity(dv)
    lhs = inst.leq(u, v)
    rhs = inst.leq(inst.act(u, pi), v)
    return lhs == rhs, lambda: {"u<=v": lhs, "u*pi_dom(v)<=v": rhs}


def _drv_injective_act_meet(inst, vs, inj):
    doms = frozenset()
    for v in vs:
        doms = schema_union(doms, inst.dom(v))
    if not schema_subset(doms, inj.rng):
        return None
    lhs = inst.one()
    for v in vs:
        lhs = inst.meet(lhs, v)
    lhs = inst.act(lhs, inj)
    rhs = inst.one()
    for v in vs:
        rhs = inst.meet(rhs, inst.act(v, inj))
    return lhs == rhs, lambda: {"(meet)*inj": lhs, "meet(*inj)": rhs}


def _drv_diag_rename_single(inst, x, y):
    lhs = inst.act(inst.diag(x, x), FPTransform.of({y: x}))
    rhs = inst.diag(y, y)
    return lhs == rhs, lambda: {"d_xx*(x/y)": lhs, "d_yy": rhs}


def _drv_diag_rename_pair(inst, x, y, z, w):
    if x == y or z == w:
        return None
    lhs = inst.act(inst.diag(z, w), FPTransform.of({x: z, y: w}))
    rhs = inst.diag(x, y)
    return lhs == rhs, lambda: {"d_zw*(z/x,w/y)": lhs, "d_xy": rhs}


def _drv_diag_symmetric(inst, x, y):
    return inst.diag(x, y) == inst.diag(y, x), lambda: {}


def _drv_folding_below_diagonal(inst, v, delta):
    if not schema_subset(delta.rng, inst.dom(v)):
        return None
    lhs = inst.act(v, delta)
    e = e_diag(inst, delta)
    return inst.leq(lhs, e), lambda: {"v*delta": lhs, "e_delta": e}


def _duplication_case(inst, u, delta):
    """The duplication hypotheses: v = u ∧ e_delta with df(delta) = dom(v),
    so v <= e_delta.  Returns (e_delta, v), or None when they fail."""
    if not schema_subset(inst.dom(u), delta.df):
        return None  # then dom(v) = dom(u) ∪ df(delta) is not df(delta)
    e = e_diag(inst, delta)
    v = inst.meet(u, e)
    if inst.dom(v) != delta.df:
        return None
    return e, v


def _drv_duplication_meet(inst, u, delta):
    case = _duplication_case(inst, u, delta)
    if case is None:
        return None
    e, v = case
    rhs = inst.meet(inst.act(v, partial_identity(delta.rng)), e)
    return v == rhs, lambda: {"v_used": v, "rhs": rhs}


def _drv_duplication_fixed(inst, u, delta):
    case = _duplication_case(inst, u, delta)
    if case is None:
        return None
    _, v = case
    rhs = inst.act(v, delta)
    return v == rhs, lambda: {"v_used": v, "v*delta": rhs}


_DERIVED = {
    "dom-antitone": _drv_dom_antitone,
    "diag-dom": _drv_diag_dom,
    "zero-dom-all": _drv_zero_dom_all,
    "nonzero-iff-finite-dom": _drv_nonzero_iff_finite_dom,
    "one-iff-empty-dom": _drv_one_iff_empty_dom,
    "zero-neq-one": _drv_zero_neq_one,
    "one-absorbs-act": _drv_one_absorbs_act,
    "act-astrict-dom": _drv_act_astrict_dom,
    "meet-dom-union": _drv_meet_dom_union,
    "order-via-dom-projection": _drv_order_via_dom_projection,
    "injective-act-meet": _drv_injective_act_meet,
    "diag-rename-single": _drv_diag_rename_single,
    "diag-rename-pair": _drv_diag_rename_pair,
    "diag-symmetric": _drv_diag_symmetric,
    "folding-below-diagonal": _drv_folding_below_diagonal,
    "duplication-meet": _drv_duplication_meet,
    "duplication-fixed": _drv_duplication_fixed,
}

DERIVED_IDS = tuple(_DERIVED)


def _run_check(ctx, check_id, body, cfg: SampleConfig) -> CheckReport:
    """Run ``body(ctx, *case)``, where a case draws, in the order of the
    body's parameters after its context ``ctx``, just the variables they
    name.  From the check's own stream it builds only the pools that those
    variables draw from, in this order: the tuple pool (``ctx.tuple_pool``)
    for ``t``, the base-tuple pool (``ctx.base_pool``) for ``b``, the element
    pool (``ctx.element_pool``) for ``u``, ``v`` or ``vs``, and the
    transformation pool for ``lam`` or ``mu``; ``term`` and ``tt`` draw from
    ``ctx.terms``.  The check walks the first of its tuple, base-tuple, term
    and element pools (``tt`` samples, so it walks none), and runs
    max(``cfg.cases``, walked pool size) cases; one case when the body
    declares no variable.  It stops at the first failure and only then calls
    ``detail()`` and names the drawn values: a counterexample lists them,
    then the body's extra fields, then ``case_index``."""
    code = body.__code__
    names = code.co_varnames[1:code.co_argcount]
    rng = random.Random(cfg.seed)
    tuples = ctx.tuple_pool(cfg, rng) if "t" in names else ()
    bases = ctx.base_pool(rng) if "b" in names else ()
    terms = ctx.terms if {"term", "tt"}.intersection(names) else ()
    elements = ctx.element_pool(cfg, rng) if {"u", "v", "vs"}.intersection(names) else ()
    transforms = _transform_pool(cfg, rng) if {"lam", "mu"}.intersection(names) else ()
    domains = _domains(rng, cfg.window, elements, transforms, tuples, bases, terms)
    draws = [domains[name] for name in names]
    walked = tuples or bases or (terms if "term" in names else ()) or elements
    report = CheckReport(check_id=check_id, seed=cfg.seed)
    applicable = 0
    for i in range(max(cfg.cases, len(walked)) if draws else 1):
        args = [draw(i) for draw in draws]
        outcome = body(ctx, *args)
        if outcome is None:
            continue
        applicable += 1
        ok, detail = outcome
        if not ok:
            report.passed = False
            fields = {**dict(zip(names, args)), **detail(), "case_index": i}
            report.counterexample = {k: _shown(v) for k, v in fields.items()}
            break
    report.cases_run, report.cases_applicable = i + 1, applicable
    return report


def check_axiom(inst: OrbitalInstance, axiom_id: str, cfg: SampleConfig) -> CheckReport:
    """Check one of (A1)-(A13) on sampled cases from the window."""
    if axiom_id not in _AXIOMS:
        raise ValueError(f"unknown axiom id {axiom_id!r}")
    return _run_check(inst, axiom_id, _AXIOMS[axiom_id], cfg)


def check_derived(inst: OrbitalInstance, prop_id: str, cfg: SampleConfig) -> CheckReport:
    """Check one of the derived properties (see DERIVED_IDS)."""
    if prop_id not in _DERIVED:
        raise ValueError(f"unknown property id {prop_id!r}")
    return _run_check(inst, prop_id, _DERIVED[prop_id], cfg)


def check_all_axioms(inst: OrbitalInstance, cfg: SampleConfig) -> list:
    return [check_axiom(inst, a, cfg) for a in AXIOM_IDS]


def check_all_derived(inst: OrbitalInstance, cfg: SampleConfig) -> list:
    return [check_derived(inst, p, cfg) for p in DERIVED_IDS]
