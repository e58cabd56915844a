"""Randomized 3-SAT solver laboratory.

Implements three randomized satisfiability procedures over a shared CNF
core -- a permutation/unit-forcing solver, a literal-deletion + 2-SAT
solver, and their per-variable combination -- together with exact
oracles by counting, critical-clause profiling, closed-form success
bounds, and seeded Monte Carlo estimation.
"""

from .cnf import (
    Assignment,
    Clause,
    CnfFormula,
    emit_dimacs,
    evaluate,
    parse_dimacs,
)
from .combined import (
    Algorithm,
    Exit,
    SolverOutcome,
    Trace,
    delppz_iteration,
    run,
    run_delppz,
)
from .deletion import del_iteration
from .generators import random_3cnf, xor_chain
from .ppz import ppz_iteration
from .rng import RandomSource, derive_seed
from .twosat import solve_2sat

__all__ = [
    "Algorithm",
    "Assignment",
    "Clause",
    "CnfFormula",
    "Exit",
    "RandomSource",
    "SolverOutcome",
    "Trace",
    "del_iteration",
    "delppz_iteration",
    "derive_seed",
    "emit_dimacs",
    "evaluate",
    "parse_dimacs",
    "ppz_iteration",
    "random_3cnf",
    "run",
    "run_delppz",
    "solve_2sat",
    "xor_chain",
]

__version__ = "0.1.0"
