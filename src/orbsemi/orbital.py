"""Abstract orbital-semilattice interface, the (A1)-(A13) axiom checker and the
derived-property suite.

The axioms quantify over infinite sets (all transformations, all finite variable
sets, all variables), so every check is bounded: elements come from the
instance's pool, transformations and variables from a finite window.  Sampling
is sound for refutation; exhaustion of the pool in the first quantifier position
gives small-scope confidence.  Checks are deterministic given the seed; a
failure carries a replayable counterexample.
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
    schema_intersect_window,
    schema_is_all,
    schema_subset,
    schema_union,
)


#: sizes of the sampled element, tuple and base-tuple pools, and of the transformation pool
ELEMENT_BUDGET = 40
TRANSFORM_BUDGET = 64
#: a window with at most this many transformations puts all of them in the pool
TRANSFORM_ENUMERATION_CAP = 130


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
    def window(self) -> frozenset:
        return frozenset(range(1, self.var_window + 1))


@dataclass
class CheckReport:
    """Outcome of one axiom/property check."""

    check_id: str
    cases_run: int = 0
    cases_applicable: int = 0
    passed: bool = True
    vacuous: bool = False
    counterexample: Optional[dict] = None
    seed: int = 0
    notes: dict = field(default_factory=dict)

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


def _random_subset(rng: random.Random, items, p: float = 0.5) -> frozenset:
    return frozenset(i for i in items if rng.random() < p)


def _transform_pool(cfg: SampleConfig, rng: random.Random) -> list:
    window = sorted(cfg.window)
    total = (len(window) + 1) ** len(window)
    if total <= TRANSFORM_ENUMERATION_CAP:
        return list(all_transforms(window, window))
    pool = [EMPTY, partial_identity(window)]
    while len(pool) < TRANSFORM_BUDGET:
        pool.append(_random_transform(rng, window))
    return pool


def _random_transform(rng: random.Random, window) -> FPTransform:
    out = {}
    for x in window:
        if rng.random() < 0.6:
            out[x] = rng.choice(window)
    return FPTransform.of(out)


def _random_folding(rng: random.Random, window: list) -> FPTransform:
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


def _folding_onto(rng: random.Random, df: frozenset, retract: frozenset) -> FPTransform:
    out = {x: x for x in retract}
    rlist = sorted(retract)
    for x in sorted(df - retract):
        out[x] = rng.choice(rlist)
    return FPTransform.of(out)


def _random_injection(rng: random.Random, window: list) -> FPTransform:
    if rng.random() < 0.5:
        srcs = list(window)  # full permutation keeps the range condition easy to hit
    else:
        srcs = [x for x in window if rng.random() < 0.7]
    tgts = rng.sample(window, len(srcs))
    return FPTransform.of(dict(zip(srcs, tgts)))


@dataclass
class _Case:
    """One sampled valuation of the quantified variables."""

    inst: OrbitalInstance
    rng: random.Random
    window: list  # sorted
    elements: list
    u: object = None
    v: object = None
    lam: FPTransform = EMPTY
    mu: FPTransform = EMPTY
    x: int = 1
    y: int = 1
    Y: frozenset = frozenset()

    def describe(self, **extra) -> dict:
        d = {
            "u": repr(self.u),
            "v": repr(self.v),
            "lam": repr(self.lam),
            "mu": repr(self.mu),
            "x": self.x,
            "y": self.y,
            "Y": sorted(self.Y),
        }
        d.update({k: repr(v) for k, v in extra.items()})
        return d


def _draw_case(inst, window, rng, elements, transforms, index) -> _Case:
    c = _Case(inst, rng, window, elements)
    c.u = elements[index] if index < len(elements) else rng.choice(elements)
    c.v = rng.choice(elements)
    c.lam = rng.choice(transforms)
    c.mu = rng.choice(transforms)
    c.x = rng.choice(window)
    c.y = rng.choice(window)
    c.Y = _random_subset(rng, window)
    return c


# ---------------------------------------------------------------------------
# Axiom bodies.  Each returns None when the case does not apply, else
# (ok, detail) with detail() the extra counterexample fields (see run_cases).


def _ax1(c: _Case):
    inst = c.inst
    if c.u == inst.zero():
        return None
    lhs = inst.act(c.u, EMPTY)
    return lhs == inst.one(), lambda: {"u*pi_empty": lhs}


def _ax2(c: _Case):
    inst = c.inst
    lhs = inst.act(inst.zero(), c.lam)
    return lhs == inst.zero(), lambda: {"zero*lam": lhs}


def _ax3(c: _Case):
    inst = c.inst
    du = inst.dom(c.u)
    Y = c.Y
    if not schema_is_all(du) and c.rng.random() < 0.5:
        Y = Y | du  # bias toward satisfying the hypothesis
    if not schema_subset(du, Y):
        return None
    piY = partial_identity(Y)
    lhs = inst.act(inst.meet(c.u, c.v), piY)
    rhs = inst.meet(c.u, inst.act(c.v, piY))
    return lhs == rhs, lambda: {"(u^v)*piY": lhs, "u^(v*piY)": rhs, "Y_used": sorted(Y)}


def _ax4(c: _Case):
    inst = c.inst
    proj = inst.act(c.u, partial_identity(c.Y))
    return inst.leq(c.u, proj), lambda: {"u*piY": proj}


def _ax5(c: _Case):
    inst = c.inst
    u = inst.meet(c.u, c.v)  # guarantees u <= v
    lhs = inst.act(u, c.lam)
    rhs = inst.act(c.v, c.lam)
    return inst.leq(lhs, rhs), lambda: {"u_used": u, "u*lam": lhs, "v*lam": rhs}


def _ax6(c: _Case):
    inst = c.inst
    if c.x == c.y:
        return None
    u = inst.meet(c.u, inst.diag(c.x, c.y))  # guarantees u <= d_xy
    if u == inst.zero():
        return None
    du = inst.dom(u)
    pi = partial_identity(du - {c.y})
    rhs = inst.meet(inst.act(u, pi), inst.diag(c.x, c.y))
    return u == rhs, lambda: {"u_used": u, "rhs": rhs}


def _ax7(c: _Case):
    inst = c.inst
    lhs = inst.act(inst.act(c.u, c.lam), c.mu)
    rhs = inst.act(c.u, compose(c.lam, c.mu))
    return lhs == rhs, lambda: {"(u*lam)*mu": lhs, "u*(lam.mu)": rhs}


def _ax8(c: _Case):
    inst = c.inst
    du = inst.dom(c.u)
    if schema_is_all(du):
        return None  # pi_var is not a finite transformation
    rhs = inst.act(c.u, partial_identity(du))
    return rhs == c.u, lambda: {"u*pi_dom": rhs}


def _ax9(c: _Case):
    inst = c.inst
    d = inst.diag(c.x, c.x)
    return d != inst.zero(), lambda: {"d_xx": d}


def _ax10(c: _Case):
    inst = c.inst
    lhs = inst.diag(c.x, c.y)
    rhs = inst.act(inst.diag(c.x, c.x), FPTransform.of({c.x: c.x, c.y: c.x}))
    return lhs == rhs, lambda: {"d_xy": lhs, "d_xx*(xx/xy)": rhs}


def _ax11(c: _Case):
    inst = c.inst
    if c.u == inst.zero():
        return None
    lhs = inst.dom(inst.act(c.u, c.lam))
    rhs = preimage(c.lam, inst.dom(c.u))
    return lhs == rhs, lambda: {"dom(u*lam)": lhs, "lam^-1(dom u)": sorted(rhs)}


def _ax12(c: _Case):
    inst = c.inst
    if c.u == inst.zero():
        return None
    return not schema_is_all(inst.dom(c.u)), lambda: {"dom(u)": inst.dom(c.u)}


def _ax13(c: _Case):
    # two-sided inclusion; the right side ranges over all of var, so the
    # reverse direction is intersected with the window
    inst = c.inst
    du = inst.dom(c.u)
    fwd_vars = c.window if schema_is_all(du) else du
    fwd = all(inst.leq(c.u, inst.diag(x, x)) for x in fwd_vars)
    below = frozenset(x for x in c.window if inst.leq(c.u, inst.diag(x, x)))
    rev = below <= schema_intersect_window(du, c.window)
    return fwd and rev, lambda: {"dom(u)": du, "{x in window: u<=d_xx}": sorted(below)}


_AXIOMS = {
    "A1": _ax1, "A2": _ax2, "A3": _ax3, "A4": _ax4, "A5": _ax5, "A6": _ax6,
    "A7": _ax7, "A8": _ax8, "A9": _ax9, "A10": _ax10, "A11": _ax11,
    "A12": _ax12, "A13": _ax13,
}

AXIOM_IDS = tuple(_AXIOMS)


# ---------------------------------------------------------------------------
# Derived properties: consequences of the axioms, checked so that concrete
# instances and mutants can be probed at the same scale.


def _drv_dom_antitone(c: _Case):
    inst = c.inst
    u = inst.meet(c.u, c.v)
    if not inst.leq(u, c.v):
        return None
    ok = schema_subset(inst.dom(c.v), inst.dom(u))
    return ok, lambda: {"u_used": u, "dom(u)": inst.dom(u), "dom(v)": inst.dom(c.v)}


def _drv_diag_dom(c: _Case):
    inst = c.inst
    d = inst.dom(inst.diag(c.x, c.y))
    return d == frozenset({c.x, c.y}), lambda: {"dom(d_xy)": d}


def _drv_zero_dom_all(c: _Case):
    inst = c.inst
    return schema_is_all(inst.dom(inst.zero())), lambda: {"dom(0)": inst.dom(inst.zero())}


def _drv_nonzero_iff_finite_dom(c: _Case):
    inst = c.inst
    finite = not schema_is_all(inst.dom(c.u))
    return (c.u != inst.zero()) == finite, lambda: {"dom(u)": inst.dom(c.u)}


def _drv_one_iff_empty_dom(c: _Case):
    inst = c.inst
    empty_dom = inst.dom(c.u) == frozenset()
    return (c.u == inst.one()) == empty_dom, lambda: {"dom(u)": inst.dom(c.u)}


def _drv_zero_neq_one(c: _Case):
    inst = c.inst
    return inst.zero() != inst.one(), lambda: {}


def _drv_one_absorbs_act(c: _Case):
    inst = c.inst
    lhs = inst.act(inst.one(), c.lam)
    return lhs == inst.one(), lambda: {"one*lam": lhs}


def _drv_act_astrict_dom(c: _Case):
    inst = c.inst
    du = inst.dom(c.u)
    lam2 = c.lam if schema_is_all(du) else astrict(c.lam, du)
    lhs = inst.act(c.u, c.lam)
    rhs = inst.act(c.u, lam2)
    return lhs == rhs, lambda: {"u*lam": lhs, "u*lam|^dom": rhs}


def _drv_meet_dom_union(c: _Case):
    inst = c.inst
    w = inst.meet(c.u, c.v)
    if w == inst.zero():
        return None
    lhs = inst.dom(w)
    rhs = schema_union(inst.dom(c.u), inst.dom(c.v))
    return lhs == rhs, lambda: {"dom(u^v)": lhs, "dom(u)|dom(v)": rhs}


def _drv_order_via_dom_projection(c: _Case):
    inst = c.inst
    dv = inst.dom(c.v)
    if schema_is_all(dv):
        return None  # pi_var is not a finite transformation
    pi = partial_identity(dv)
    lhs = inst.leq(c.u, c.v)
    rhs = inst.leq(inst.act(c.u, pi), c.v)
    return lhs == rhs, lambda: {"u<=v": lhs, "u*pi_dom(v)<=v": rhs}


def _drv_injective_act_meet(c: _Case):
    inst = c.inst
    lam = _random_injection(c.rng, c.window)
    n = c.rng.randrange(0, 4)
    vs = [c.rng.choice(c.elements) for _ in range(n)]
    doms = frozenset()
    for v in vs:
        doms = schema_union(doms, inst.dom(v))
    if not schema_subset(doms, lam.rng):
        return None
    lhs = inst.one()
    for v in vs:
        lhs = inst.meet(lhs, v)
    lhs = inst.act(lhs, lam)
    rhs = inst.one()
    for v in vs:
        rhs = inst.meet(rhs, inst.act(v, lam))
    return lhs == rhs, lambda: {"vs": [repr(v) for v in vs], "lam_used": lam,
                                "(meet)*lam": lhs, "meet(*lam)": rhs}


def _drv_diag_rename_single(c: _Case):
    inst = c.inst
    lhs = inst.act(inst.diag(c.x, c.x), FPTransform.of({c.y: c.x}))
    rhs = inst.diag(c.y, c.y)
    return lhs == rhs, lambda: {"d_yy*(y/z)": lhs, "d_zz": rhs}


def _drv_diag_rename_pair(c: _Case):
    inst = c.inst
    z1, z2 = c.rng.sample(c.window, 2)
    y1, y2 = c.rng.sample(c.window, 2)
    lam = FPTransform.of({y1: z1, y2: z2})
    lhs = inst.act(inst.diag(z1, z2), lam)
    rhs = inst.diag(y1, y2)
    return lhs == rhs, lambda: {"z1": z1, "z2": z2, "y1": y1, "y2": y2,
                                "d_z1z2*lam": lhs, "d_y1y2": rhs}


def _drv_diag_symmetric(c: _Case):
    inst = c.inst
    return inst.diag(c.x, c.y) == inst.diag(c.y, c.x), lambda: {}


def _drv_folding_below_diagonal(c: _Case):
    inst = c.inst
    dv = inst.dom(c.v)
    if schema_is_all(dv):
        delta = _random_folding(c.rng, c.window)
    else:
        retract = frozenset(x for x in dv if c.rng.random() < 0.7)
        df = retract | _random_subset(c.rng, c.window)
        if not retract:
            delta = EMPTY
        else:
            delta = _folding_onto(c.rng, df, retract)
    lhs = inst.act(c.v, delta)
    e = e_diag(inst, delta)
    return inst.leq(lhs, e), lambda: {"delta": delta, "v*delta": lhs, "e_delta": e}


def _duplication_setup(c: _Case):
    """Common hypothesis generator for the duplication properties: a folding
    delta and v != 0 with df(delta) = dom(v) and v <= e_delta."""
    inst = c.inst
    du = inst.dom(c.u)
    if schema_is_all(du) or not du:
        return None
    retract = frozenset(x for x in du if c.rng.random() < 0.6) or frozenset({min(du)})
    delta = _folding_onto(c.rng, du, retract)
    e = e_diag(inst, delta)
    v = e if c.rng.random() < 0.3 else inst.meet(c.u, e)
    if v == inst.zero() or inst.dom(v) != delta.df:
        return None
    return delta, e, v


def _drv_duplication_meet(c: _Case):
    inst = c.inst
    setup = _duplication_setup(c)
    if setup is None:
        return None
    delta, e, v = setup
    rhs = inst.meet(inst.act(v, partial_identity(delta.rng)), e)
    return v == rhs, lambda: {"delta": delta, "v_used": v, "rhs": rhs}


def _drv_duplication_fixed(c: _Case):
    inst = c.inst
    setup = _duplication_setup(c)
    if setup is None:
        return None
    delta, _, v = setup
    rhs = inst.act(v, delta)
    return v == rhs, lambda: {"delta": delta, "v_used": v, "v*delta": rhs}


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


def run_cases(check_id: str, seed: int, cases, body) -> CheckReport:
    """Run ``body`` on each case in turn and stop at the first failure.

    ``body(case)`` returns None when the case does not apply, else
    ``(ok, detail)``; ``detail()`` builds the counterexample and is called
    only on failure.  ``cases`` is consumed lazily, one case per call, so a
    generator and a body that draw from one rng interleave their draws, and
    nothing is drawn past a failure.
    """
    report = CheckReport(check_id=check_id, seed=seed)
    for i, case in enumerate(cases):
        report.cases_run += 1
        outcome = body(case)
        if outcome is None:
            continue
        report.cases_applicable += 1
        ok, detail = outcome
        if not ok:
            report.passed = False
            report.counterexample = dict(detail(), case_index=i)
            break
    report.vacuous = report.cases_applicable == 0
    return report


def _run_check(inst, check_id, body, cfg: SampleConfig) -> CheckReport:
    rng = random.Random(cfg.seed)
    elements = inst.element_pool(cfg, rng)
    transforms = _transform_pool(cfg, rng)
    window = sorted(cfg.window)
    cases = (_draw_case(inst, window, rng, elements, transforms, i)
             for i in range(max(cfg.cases, len(elements))))

    def described(case):
        outcome = body(case)
        if outcome is None:
            return None
        ok, extra = outcome
        return ok, lambda: case.describe(**extra())

    return run_cases(check_id, cfg.seed, cases, described)


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
