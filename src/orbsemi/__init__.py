"""Orbital semilattices: partial-transformation calculus, table algebras,
bounded axiom verification, tuple labelings and the representation pipeline."""

from .transforms import (
    ALL,
    EMPTY,
    FPTransform,
    all_transforms,
    astrict,
    compose,
    decompose,
    inverse,
    is_folding,
    is_injective,
    is_partial_identity,
    parse_transform,
    partial_identity,
    restrict,
    right_inverse,
)
from .tuples import EMPTY_TUPLE, NTuple, act, extends, merge, parse_tuple
from .tables import (
    Table,
    TableAlgebra,
    act_table,
    bottom,
    diagonal,
    enumerate_tables,
    leq,
    natural_join,
    top,
)
from .orbital import (
    AXIOM_IDS,
    DERIVED_IDS,
    CheckReport,
    OrbitalInstance,
    SampleConfig,
    check_all_axioms,
    check_all_derived,
    check_axiom,
    check_derived,
    e_diag,
)
from .mutants import MUTANTS, TARGETS, make_mutant
from .labeling import (
    Labeling,
    check_embedding,
    check_labeling,
    check_law,
    extent,
    quotient,
    singleton_labeling,
)
from .representation import (
    GroundTerm,
    HSet,
    RepCaps,
    RepresentationBuilder,
    alpha_tilde,
    arity,
    base_tuple_for,
    build_H,
    eta,
    kappa,
    represent,
    subterm_closure,
)
from .exprlang import EvalError, ParseError, eval_expr, parse, print_expr

__version__ = "0.1.0"
