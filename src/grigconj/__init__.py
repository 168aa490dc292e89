"""Decision procedures for the first Grigorchuk group.

Conjugacy and conjugate-pair decisions run in time linear in the input
length; conjugator construction is polynomial.  See the README for the
command-line interface.
"""

from .words import (
    ALPHA,
    EXACT_WEIGHTS,
    TABULATED_WEIGHTS,
    InvalidCharacter,
    NormWeights,
    NotInStabilizer,
    equal,
    format_word,
    inverse,
    is_identity,
    norm,
    parse,
    phi_pair,
    reduce,
    split_children,
)
from .quotient import BuildDivergence, QuotientTables, SandwichGap, build_quotient, coset, get_tables
from .sptree import SplitTree, build_tree, build_tree9
from .engine import CapacityViolation, are_conjugate, conjugate_pairs, q_set, solve
from .search import (
    BaseIncomplete,
    LiftResidual,
    NotDihedral,
    NotLiftable,
    dihedral_normalize,
    find_conjugator,
    lift_word,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "EXACT_WEIGHTS",
    "TABULATED_WEIGHTS",
    "InvalidCharacter",
    "NormWeights",
    "NotInStabilizer",
    "BuildDivergence",
    "SandwichGap",
    "QuotientTables",
    "CapacityViolation",
    "BaseIncomplete",
    "LiftResidual",
    "NotDihedral",
    "NotLiftable",
    "SplitTree",
    "equal",
    "format_word",
    "inverse",
    "is_identity",
    "norm",
    "parse",
    "phi_pair",
    "reduce",
    "split_children",
    "build_quotient",
    "get_tables",
    "coset",
    "build_tree",
    "build_tree9",
    "are_conjugate",
    "conjugate_pairs",
    "q_set",
    "solve",
    "dihedral_normalize",
    "find_conjugator",
    "lift_word",
    "tau",
]
