"""Exact interval-valence combinatorics of finite posets and Tamari lattices.

The package computes two weight enumerators of a finite poset (the
two-variable valence polynomial and the four-variable interval valence
polynomial), specializes them to the rotation lattices on plane binary
trees, and independently solves the corresponding catalytic functional
equations as exact truncated power series so that the two routes can be
cross-validated coefficient by coefficient.
"""

from .polynomial import (MultiPoly, SeriesT, UniPoly, all_roots_real_negative,
                         divided_difference, squarefree_part, sturm_sequence)
from .poset import FinitePoset, are_isomorphic
from .series import (Mode, SolverOutput, SystemConfig,
                     check_alternative_decomposition, check_bridge_identity,
                     residual, solve)
from .tamari import (TamariLattice, canopy, composition, decode, encode,
                     enumerate_trees, interval_canopy_word,
                     interval_statistics, interval_valence_polynomial,
                     is_synchronous, iter_interval_statistics,
                     left_border_factors, reverse, rotation_covers,
                     tamari_lattice)
from .verify import CheckReport, run_suites, summarize_reports

__version__ = "0.1.0"

__all__ = [
    "MultiPoly", "SeriesT", "UniPoly", "all_roots_real_negative",
    "divided_difference", "squarefree_part", "sturm_sequence",
    "FinitePoset", "are_isomorphic",
    "Mode", "SolverOutput", "SystemConfig", "check_alternative_decomposition",
    "check_bridge_identity", "residual", "solve",
    "TamariLattice", "canopy", "composition", "decode", "encode",
    "enumerate_trees", "interval_canopy_word", "interval_statistics",
    "interval_valence_polynomial", "is_synchronous", "iter_interval_statistics",
    "left_border_factors",
    "reverse", "rotation_covers", "tamari_lattice",
    "CheckReport", "run_suites", "summarize_reports",
    "__version__",
]
