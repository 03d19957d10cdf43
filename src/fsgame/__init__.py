"""Separating sets of pointed Kripke models with size-budgeted modal formulas.

Modules: ``kripke`` (finite pointed models and the fresh-root join),
``logic`` (modal NNF syntax plus the first-order equivalence formulas),
``bisim`` (depth-bounded bisimulation, witnesses, quotients), ``game`` (the
two-player budget game and its exact solver), ``hierarchy`` (iterated
powerset model families), ``graphs`` (coloring certificates), ``cli`` (the
command-line surface).
"""

from . import bisim, game, graphs, hierarchy, kripke, logic
from .bisim import BisimWitness, bounded_type, in_class_A, n_bisimilar, prop_equivalent, quotient
from .game import (
    DuplicatorWins,
    GamePosition,
    SearchBudgetExceeded,
    SearchTooDeep,
    SpoilerStrategy,
    SpoilerWins,
    extract_formula,
    legal_moves,
    minimal_separating,
    solve,
    strategy_from_formula,
    terminal_status,
)
from .kripke import KripkeModel, PointedModel, diamond_all, diamond_choice, join, successors
from .logic import enumerate_ml, eval_fo, eval_ml, fo_size, make_phi, make_psi, ml_sizes, parse_ml, print_ml, separates

__version__ = "0.1.0"
