"""Random expressions of the relational-expression language, for round-trip
and evaluation tests."""

import random

from orbsemi.exprlang import Act, Bottom, Diag, Join, Project, TableRef, Top
from orbsemi.transforms import FPTransform


def random_expr(rng: random.Random, names=("T1", "T2", "T3"), max_vars: int = 4,
                depth: int = 3):
    """A random grammar-expressible expression (actions only wrap terms)."""

    def rand_var():
        return rng.randrange(1, max_vars + 1)

    def rand_term(d):
        roll = rng.random()
        if roll < 0.35:
            e = TableRef(rng.choice(list(names)))
        elif roll < 0.55:
            e = Diag(rand_var(), rand_var())
        elif roll < 0.65:
            e = Top()
        elif roll < 0.75:
            e = Bottom()
        else:
            e = rand_term(d - 1) if d > 0 else TableRef(rng.choice(list(names)))
        while d > 0 and rng.random() < 0.4:
            if rng.random() < 0.5:
                Y = [x for x in range(1, max_vars + 1) if rng.random() < 0.5]
                e = Project(e, Y)
            else:
                pairs = {x: rand_var() for x in range(1, max_vars + 1)
                         if rng.random() < 0.5}
                e = Act(e, FPTransform.of(pairs))
            d -= 1
        return e

    e = rand_term(depth)
    while depth > 0 and rng.random() < 0.4:
        e = Join(e, rand_term(depth - 1))
        depth -= 1
    return e
