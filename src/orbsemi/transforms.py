"""Finite partial transformations on the variable set x1, x2, x3, ...

Variables are positive integer indices (x_i <-> i).  A transformation is a
finite partial self-map of the variables; composition is relational, so no
range-inside-domain requirement is imposed.  All values are immutable and
compare structurally.

Transformations and named tuples (``tuples.NTuple``) are both finite partial
maps on the variables, so they share one core: the ``PartialMap`` mixin with
its accessors, ``compose`` (which is also the action of a transformation on a
tuple), ``restrict`` and ``astrict``.  A named tuple is the tuple of its pairs,
hashed and compared in C; a transformation is a frozen dataclass.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class AllVars:
    """Symbolic marker for the full (infinite) variable set.

    Used as the schema of the empty table / the domain of the bottom element.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALL"


ALL = AllVars()


def schema_is_all(s) -> bool:
    return isinstance(s, AllVars)


def schema_subset(a, b) -> bool:
    """Subset test lifted to schemas (ALL is the largest schema)."""
    if schema_is_all(b):
        return True
    if schema_is_all(a):
        return False
    return a <= b


def schema_union(a, b):
    if schema_is_all(a) or schema_is_all(b):
        return ALL
    return a | b


def var_name(i: int) -> str:
    return f"x{i}"


def parse_var(text: str) -> int:
    m = re.fullmatch(r"x([1-9][0-9]*)", text.strip())
    if m is None:
        raise ValueError(f"not a variable: {text!r}")
    return int(m.group(1))


# bound once: the unvalidated constructor runs in the table operations' inner loops
_new, _set = object.__new__, object.__setattr__


class PartialMap:
    """The accessors of a finite partial map on the variables, read from its
    ``pairs`` sorted by variable.  A stateless mixin: ``tuples.NTuple`` is the
    tuple of its pairs and ``FPTransform`` a frozen dataclass, so maps of
    different kinds never compare equal."""

    __slots__ = ()

    @classmethod
    def of(cls, mapping: Mapping | Iterable[tuple]):
        return cls(tuple(sorted(dict(mapping).items())))

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)

    @property
    def df(self) -> frozenset:
        return frozenset(s for s, _ in self.pairs)

    @property
    def rng(self) -> frozenset:
        return frozenset(t for _, t in self.pairs)

    def __call__(self, y: int):
        return self.mapping[y]

    def get(self, y: int, default=None):
        for s, t in self.pairs:
            if s == y:
                return t
        return default

    def is_injective(self) -> bool:
        return len(self.rng) == len(self.pairs)


@dataclass(frozen=True)
class FPTransform(PartialMap):
    """A finite partial transformation: a partial map from variables to variables."""

    pairs: tuple

    def __post_init__(self):
        last = 0
        for s, t in self.pairs:
            if not (isinstance(s, int) and isinstance(t, int) and s >= 1 and t >= 1):
                raise ValueError(f"bad variable pair ({s}, {t})")
            if s <= last:
                raise ValueError("pairs must be sorted and functional")
            last = s

    @classmethod
    def trusted(cls, pairs: tuple):
        """``FPTransform(pairs)`` without the validation in ``__post_init__``,
        for pairs already sorted by variable and functional."""
        m = _new(cls)
        _set(m, "pairs", pairs)
        return m

    def __repr__(self):
        return format_transform(self)


EMPTY = FPTransform(())
is_injective = PartialMap.is_injective


def partial_identity(X: Iterable[int]) -> FPTransform:
    """The identity restricted to the finite variable set X, one value per
    distinct set (see ``_partial_identity``)."""
    return _partial_identity(frozenset(X))


@functools.lru_cache(maxsize=1024)
def _partial_identity(X: frozenset) -> FPTransform:
    # a bounded cache; a set's first build is validated, a failed one not kept
    return FPTransform(tuple((x, x) for x in sorted(X)))


def compose(mu: PartialMap, lam: FPTransform) -> PartialMap:
    """Relational composition: (mu ∘ lam)(y) = mu(lam(y)) where both steps are
    defined.  For a tuple mu this is the action mu·lam."""
    m = mu.mapping
    # lam.pairs is sorted by source, so the result is too
    return type(mu).trusted(tuple((y, m[z]) for y, z in lam.pairs if z in m))


def restrict(m: PartialMap, Z: Iterable[int]) -> PartialMap:
    """m|_Z = m ∘ π_Z (keep the variables inside Z)."""
    Z = Z if isinstance(Z, (set, frozenset)) else set(Z)
    return type(m).trusted(tuple(p for p in m.pairs if p[0] in Z))


def astrict(m: PartialMap, Z) -> PartialMap:
    """m|^Z = π_Z ∘ m (keep the pairs whose value lies in Z)."""
    Z = Z if isinstance(Z, (set, frozenset)) else set(Z)
    return type(m).trusted(tuple(p for p in m.pairs if p[1] in Z))


def preimage(lam: FPTransform, Z) -> frozenset:
    """lam^-1(Z) for a schema Z; lam^-1(ALL) = df(lam)."""
    if schema_is_all(Z):
        return lam.df
    Z = set(Z)
    return frozenset(y for y, z in lam.pairs if z in Z)


def right_inverse(f: FPTransform) -> FPTransform:
    """The right inverse f^{-r}: maps each z in rng(f) to the minimal-index y with f(y)=z."""
    # pairs are sorted by source, so the minimal y is written last
    return FPTransform.of({z: y for y, z in reversed(f.pairs)})


def inverse(f: FPTransform) -> FPTransform:
    """Set-theoretic inverse; f must be injective."""
    if not is_injective(f):
        raise ValueError(f"not injective: {f}")
    return FPTransform.of({z: y for y, z in f.pairs})


def is_partial_identity(f: FPTransform) -> bool:
    return all(s == t for s, t in f.pairs)


def is_folding(f: FPTransform) -> bool:
    """True iff f ∘ f = f."""
    return compose(f, f) == f


def decompose(f: FPTransform):
    """Split f into (delta, sigma, pi): a folding, a bijection and a partial identity
    with f = pi ∘ sigma ∘ delta."""
    r = right_inverse(f)
    delta = compose(r, f)
    sigma = inverse(r)
    pi = partial_identity(f.rng)
    return delta, sigma, pi


def all_transforms(sources: Iterable[int], targets: Iterable[int]) -> Iterator[FPTransform]:
    """Every transformation with df ⊆ sources and rng ⊆ targets."""
    sources = sorted(set(sources))
    targets = sorted(set(targets))
    choices = [None] + targets
    for combo in itertools.product(choices, repeat=len(sources)):
        yield FPTransform(tuple((s, t) for s, t in zip(sources, combo) if t is not None))


def format_transform(f: FPTransform) -> str:
    if is_partial_identity(f):
        return "pi{" + ",".join(var_name(x) for x in sorted(f.df)) + "}"
    return "{" + ", ".join(f"{var_name(s)}->{var_name(t)}" for s, t in f.pairs) + "}"


def parse_transform(text: str) -> FPTransform:
    """Parse the CLI text form, e.g. ``{x1->x3, x2->x3}`` or ``pi{x1,x3}``."""
    text = text.strip()
    if text.startswith("pi"):
        body = text[2:].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"bad transform: {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return EMPTY
        return partial_identity(parse_var(v) for v in inner.split(","))
    return FPTransform.of(parse_map(text, "->", parse_var, "transform", "mapping", "source"))


def parse_map(text: str, sep: str, parse_value, form: str, entry: str, key: str) -> dict:
    """``{x_i<sep>v, ...}`` as {x_i: parse_value(v)}; errors name a form, entry and key."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad {form}: {text!r}")
    out = {}
    inner = text[1:-1].strip()
    if not inner:
        return out
    for part in inner.split(","):
        if sep not in part:
            raise ValueError(f"bad {entry} {part!r} in {text!r}")
        var, val = part.split(sep, 1)
        x = parse_var(var)
        if x in out:
            raise ValueError(f"duplicate {key} {var.strip()!r} in {text!r}")
        out[x] = parse_value(val)
    return out
