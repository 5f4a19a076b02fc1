"""Named tuples: finite partial maps from variables to ground-set atoms.

Atoms are opaque hashable values (plain strings for concrete table algebras,
ground terms in the representation construction).  The transformation action
is precomposition: (t ∘ lam)(y) = t(lam(y)), the ``compose`` of transforms.

A named tuple is the immutable ``tuple`` of its (variable, atom) pairs, so it
is hashed and compared in C and equals the plain tuple of its pairs.
"""

from __future__ import annotations

import functools

from .transforms import PartialMap, compose, parse_map, restrict, var_name


def atom_key(a):
    """Deterministic sort key for mixed atom types."""
    sk = getattr(a, "sort_key", None)
    if sk is not None:
        return (1, sk())
    return (0, str(a))


class NTuple(tuple, PartialMap):
    """A named tuple: its (variable, atom) pairs sorted by variable, which
    ``NTuple(pairs)`` validates and ``NTuple.trusted(pairs)`` does not."""

    __slots__ = ()

    def __new__(cls, pairs):
        t = tuple.__new__(cls, pairs)
        t.__post_init__()
        return t

    def __post_init__(self):
        last = 0
        for v, _ in self:
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"bad variable {v!r}")
            if v <= last:
                raise ValueError("pairs must be sorted by variable and functional")
            last = v

    @property
    def pairs(self) -> tuple:
        return self

    def sort_key(self):
        return tuple((v, atom_key(a)) for v, a in self)

    def __repr__(self):
        return "{" + ", ".join(f"{var_name(v)}:{a}" for v, a in self) + "}"


#: a tuple from pairs that are already sorted by variable and functional;
#: unlike ``NTuple(pairs)`` it skips the validation in ``__post_init__``
NTuple.trusted = functools.partial(tuple.__new__, NTuple)

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
