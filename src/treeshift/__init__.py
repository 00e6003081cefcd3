"""Entropy of tree shifts of finite type.

A 0/1 matrix M over d symbols defines the tree shift of labelings of
the infinite k-ary tree in which a parent symbol i may sit above a
child symbol j only when M[i][j] = 1. The package computes the exact
number of valid labelings of the depth-n initial subtree, entropy
estimates from those counts, spectral data of M with the induced
bounds, exhaustive small-depth oracles, and Sturmian-word labelings of
the binary tree.

The package root holds the five names of the README's library example
and every exception class of the package's modules, so that
`from treeshift import *` carries each refusal. Every other name is
imported from its module, as in `from treeshift.oracle import
blocks_in_tree`.
"""

from .matrix import BadChar, NonSquare, ParseError, RowOrColumnZero, parse_matrix
from .oracle import DepthExceeded, TooLarge
from .recurrence import LogOverflow, TreeParams, UncertifiedFloat, run
from .spectral import NoConvergence, SingularSystem, analyze_matrix, upper_bound
from .sturmian import ComplexityViolation, PrecisionExhausted

__version__ = "0.1.0"

__all__ = [
    "BadChar",
    "ComplexityViolation",
    "DepthExceeded",
    "LogOverflow",
    "NoConvergence",
    "NonSquare",
    "ParseError",
    "PrecisionExhausted",
    "RowOrColumnZero",
    "SingularSystem",
    "TooLarge",
    "TreeParams",
    "UncertifiedFloat",
    "analyze_matrix",
    "parse_matrix",
    "run",
    "upper_bound",
]
