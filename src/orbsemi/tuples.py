"""Named tuples: finite partial maps from variables to ground-set atoms.

Atoms are opaque hashable values (plain strings for concrete table algebras,
ground terms in the representation construction).  The transformation action
is precomposition: (t ∘ lam)(y) = t(lam(y)), the ``compose`` of transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transforms import PartialMap, compose, parse_map, restrict, var_name


def atom_key(a):
    """Deterministic sort key for mixed atom types."""
    sk = getattr(a, "sort_key", None)
    if sk is not None:
        return (1, sk())
    return (0, str(a))


@dataclass(frozen=True)
class NTuple(PartialMap):
    """A named tuple, stored as (variable, atom) pairs sorted by variable."""

    def __post_init__(self):
        last = 0
        for v, _ in self.pairs:
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"bad variable {v!r}")
            if v <= last:
                raise ValueError("pairs must be sorted by variable and functional")
            last = v

    def sort_key(self):
        return tuple((v, atom_key(a)) for v, a in self.pairs)

    def __repr__(self):
        return "{" + ", ".join(f"{var_name(v)}:{a}" for v, a in self.pairs) + "}"


EMPTY_TUPLE = NTuple(())

#: t ∘ lam, defined on the lam-preimage of df(t)
act = compose


def extends(t: NTuple, tt: NTuple) -> bool:
    """True iff tt extends t, i.e. tt ∘ π_{df(t)} = t."""
    return restrict(tt, t.df) == t


def merge(t1: NTuple, t2: NTuple):
    """t1 ⊕ t2: the smallest common extension, or None if a shared position conflicts."""
    out = t1.mapping
    for v, a in t2.pairs:
        if out.setdefault(v, a) != a:
            return None
    return NTuple.of(out)


def parse_tuple(text: str) -> NTuple:
    """Parse the text form ``{x1:a, x2:b}``."""
    return NTuple.of(parse_map(text.strip(), ":", str.strip, "tuple", "entry", "variable"))
