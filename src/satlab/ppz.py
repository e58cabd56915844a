"""The permutation + unit-forcing randomized 3-SAT iteration (PPZ).

One iteration draws a uniform permutation of the variables; each variable
in turn is forced by a pending unit clause when one exists, otherwise set
by a fair coin, and the formula is restricted accordingly.  This is the
walk of ``combined.walk`` with the deletion route off.  The assembled
assignment is returned only if it satisfies the original formula, so the
solver has one-sided error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Assignment, CnfFormula, check_satisfies
from .combined import Exit, Recorder, Step, walk
from .rng import RandomSource


@dataclass(frozen=True)
class PpzTrace:
    permutation: tuple[int, ...]
    steps: tuple[Step, ...]

    def unforced_count(self) -> int:
        return sum(1 for s in self.steps if not s.forced)


def ppz_iteration(
    formula: CnfFormula, rng: RandomSource
) -> tuple[Assignment | None, PpzTrace]:
    """Run one iteration; returns (satisfying assignment or None, trace)."""
    if not formula.is_3cnf():
        raise ValueError("ppz_iteration requires a 3-CNF formula")
    recorder = Recorder()
    site, alpha, _ = walk(formula, rng, False, recorder)
    trace = PpzTrace(recorder.permutation, tuple(recorder.steps))
    if site is Exit.FAILED:
        return None, trace
    check_satisfies(formula, alpha)
    return alpha, trace


def ppz_success(formula: CnfFormula, rng: RandomSource) -> bool:
    """Trace-free fast path for trial counting; same draws as ppz_iteration."""
    return walk(formula, rng, False)[0] is not Exit.FAILED
