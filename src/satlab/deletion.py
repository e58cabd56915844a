"""Random literal deletion + 2-SAT: the DEL iteration.

Each width-3 clause loses one uniformly chosen literal (narrower clauses
pass through untouched), leaving a 2-CNF that is handed to the exact
2-SAT procedure.  Every clause of the narrowed formula is a sub-clause of
the input, so any assignment satisfying the narrowed formula satisfies
the input; the solver therefore has one-sided error.
"""

from __future__ import annotations

from .cnf import Assignment, CnfFormula, check_satisfies
from .rng import RandomSource
from .twosat import solve_2sat_clauses


def delete_random_literals(formula: CnfFormula, rng: RandomSource) -> CnfFormula:
    """Delete one uniformly random literal from every width-3 clause.

    One rng draw per width-3 clause, in clause order, so the outcome is a
    pure function of the rng seed.
    """
    if not formula.is_3cnf():
        raise ValueError("delete_random_literals requires a 3-CNF formula")
    return CnfFormula(
        formula.num_vars, tuple(delete_clauses(formula.clauses, rng))
    )


def delete_clauses(clauses, rng: RandomSource):
    """Bare-clause deletion pass shared with the combined solver loop."""
    out = []
    for clause in clauses:
        if len(clause) == 3:
            drop = rng.index(3)
            if drop == 0:
                clause = (clause[1], clause[2])
            elif drop == 1:
                clause = (clause[0], clause[2])
            else:
                clause = (clause[0], clause[1])
        out.append(clause)
    return out


def del_iteration(formula: CnfFormula, rng: RandomSource) -> Assignment | None:
    """One DEL iteration: narrow to 2-CNF, solve exactly, extend with False."""
    if not formula.is_3cnf():
        raise ValueError("del_iteration requires a 3-CNF formula")
    narrowed = delete_clauses(formula.clauses, rng)
    values = solve_2sat_clauses(narrowed, formula.num_vars)
    if values is None:
        return None
    alpha = {v: values[v] for v in range(1, formula.num_vars + 1)}
    check_satisfies(formula, alpha)
    return alpha


def del_success(formula: CnfFormula, rng: RandomSource) -> bool:
    """Trace-free fast path for trial counting."""
    narrowed = delete_clauses(formula.clauses, rng)
    return solve_2sat_clauses(narrowed, formula.num_vars) is not None
