"""Named tuples: finite partial maps from variables to ground-set atoms.

Atoms are opaque hashable values (plain strings for concrete table algebras,
ground terms in the representation construction).  The transformation action
is precomposition: (t ∘ lam)(y) = t(lam(y)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .transforms import FPTransform, var_name


def atom_key(a):
    """Deterministic sort key for mixed atom types."""
    sk = getattr(a, "sort_key", None)
    if sk is not None:
        return (1, sk())
    return (0, str(a))


@dataclass(frozen=True)
class NTuple:
    """A named tuple, stored as (variable, atom) pairs sorted by variable."""

    pairs: tuple

    def __post_init__(self):
        last = 0
        for v, _ in self.pairs:
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"bad variable {v!r}")
            if v <= last:
                raise ValueError("pairs must be sorted by variable and functional")
            last = v

    @classmethod
    def of(cls, entries: Mapping[int, object] | Iterable[tuple]) -> "NTuple":
        return cls(tuple(sorted(dict(entries).items())))

    @property
    def entries(self) -> dict:
        return dict(self.pairs)

    @property
    def df(self) -> frozenset:
        return frozenset(v for v, _ in self.pairs)

    @property
    def rng(self) -> frozenset:
        return frozenset(a for _, a in self.pairs)

    def __call__(self, y: int):
        for v, a in self.pairs:
            if v == y:
                return a
        raise KeyError(y)

    def get(self, y: int, default=None):
        for v, a in self.pairs:
            if v == y:
                return a
        return default

    def is_injective(self) -> bool:
        return len(self.rng) == len(self.pairs)

    def sort_key(self):
        return tuple((v, atom_key(a)) for v, a in self.pairs)

    def __repr__(self):
        return "{" + ", ".join(f"{var_name(v)}:{a}" for v, a in self.pairs) + "}"


EMPTY_TUPLE = NTuple(())


# bound once: the unvalidated constructors below run in the table operations' inner loops
_new, _set = object.__new__, object.__setattr__


def _ntuple(pairs: tuple) -> NTuple:
    """An NTuple from pairs that are already sorted by variable and functional;
    unlike ``NTuple(pairs)`` it skips the validation in ``__post_init__``."""
    t = _new(NTuple)
    _set(t, "pairs", pairs)
    return t


def act(t: NTuple, lam: FPTransform) -> NTuple:
    """t ∘ lam; defined on the lam-preimage of df(t)."""
    entries = t.entries
    # lam.pairs is sorted by source, so the result is too
    return _ntuple(tuple((y, entries[z]) for y, z in lam.pairs if z in entries))


def restrict_tuple(t: NTuple, X: Iterable[int]) -> NTuple:
    """t|_X = t ∘ π_X."""
    X = X if isinstance(X, (set, frozenset)) else set(X)
    return _ntuple(tuple(p for p in t.pairs if p[0] in X))


def extends(t: NTuple, tt: NTuple) -> bool:
    """True iff tt extends t, i.e. tt ∘ π_{df(t)} = t."""
    return restrict_tuple(tt, t.df) == t


def merge(t1: NTuple, t2: NTuple):
    """t1 ⊕ t2: the smallest common extension, or None if a shared position conflicts."""
    out = t1.entries
    for v, a in t2.pairs:
        if out.setdefault(v, a) != a:
            return None
    return NTuple.of(out)


def parse_tuple(text: str, parse_atom=str) -> NTuple:
    """Parse the text form ``{x1:a, x2:b}``."""
    from .transforms import parse_var

    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad tuple: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY_TUPLE
    out = {}
    for part in inner.split(","):
        if ":" not in part:
            raise ValueError(f"bad entry {part!r} in {text!r}")
        var, val = part.split(":", 1)
        v = parse_var(var)
        if v in out:
            raise ValueError(f"duplicate variable {var.strip()!r} in {text!r}")
        out[v] = parse_atom(val.strip())
    return NTuple.of(out)
