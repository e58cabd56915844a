"""The permutation + unit-forcing randomized 3-SAT iteration (PPZ).

One iteration draws a uniform permutation of the variables; each variable
in turn is forced by a pending unit clause when one exists, otherwise set
by a fair coin, and the formula is restricted accordingly.  This is the
walk of ``combined.walk`` with the deletion route off, run by
``combined.iteration``, which returns the assembled assignment only if it
satisfies the original formula, so the solver has one-sided error.
"""

from __future__ import annotations

from .cnf import Assignment, CnfFormula
from .combined import Algorithm, Exit, Recorder, Trace, iteration, walk
from .rng import RandomSource


def ppz_iteration(
    formula: CnfFormula, rng: RandomSource
) -> tuple[Assignment | None, Trace]:
    """Run one iteration; returns (satisfying assignment or None, trace)."""
    if not formula.is_3cnf():
        raise ValueError("ppz_iteration requires a 3-CNF formula")
    recorder = Recorder()
    outcome = iteration(formula, Algorithm.PPZ, rng, recorder)
    return outcome.assignment, recorder.trace(outcome.exit)


def ppz_success(formula: CnfFormula, rng: RandomSource) -> bool:
    """Trace-free fast path for trial counting; same draws as ppz_iteration."""
    return walk(formula, rng, False)[0] is not Exit.FAILED
