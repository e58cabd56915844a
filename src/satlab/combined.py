"""The permutation walk shared by the ppz and combined solvers, and the
repeated-trial driver for all three algorithms.

One walk draws a uniform permutation of the variables and visits them in
turn.  With the deletion route on (the combined solver), each step first
narrows the current, partially substituted formula by random literal
deletion; if the narrowed 2-CNF is satisfiable the iteration exits there.
Otherwise the step's variable is set by the first unit clause over it,
else by a fair coin, and the formula is restricted.  The walk stops at the
first conflict: a falsified clause leaves neither route a way to succeed.
With the route off the walk is the ppz iteration.  Every assignment an
iteration returns is re-verified against the original input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .cnf import Assignment, CnfFormula, check_satisfies, substitute_clauses
from .deletion import delete_clauses
from .rng import RandomSource
from .twosat import solve_2sat_clauses

# Worst-case single-iteration success bound used for the default trial
# budget when the instance's true success probability is unknown.
WORST_CASE_RATE = 1.5875

DEFAULT_BUDGET_CAP = 1_000_000


class Algorithm(enum.Enum):
    PPZ = "ppz"
    DEL = "del"
    DELPPZ = "delppz"


class Exit(enum.Enum):
    DEL = "del"
    PPZ = "ppz"
    FAILED = "failed"


@dataclass(frozen=True)
class SolverOutcome:
    assignment: Assignment | None
    exit: Exit
    exit_step: int | None = None  # 1..n, for a deletion-route exit of the walk
    trials: int | None = None  # filled by the repeated-trial driver

    def __post_init__(self):
        if (self.assignment is None) != (self.exit is Exit.FAILED):
            raise ValueError("assignment present iff the iteration succeeded")


@dataclass(frozen=True)
class Step:
    variable: int
    forced: bool
    value: bool


@dataclass(frozen=True)
class DelPpzTrace:
    permutation: tuple[int, ...]
    # Critical-clause count of the current formula at the start of each
    # executed step, w.r.t. the tracked assignment; empty when untracked.
    # Counts are recorded only while every value assigned so far agrees
    # with the tracked assignment: past that point the count no longer
    # measures progress toward it (and can grow).  Within the recorded
    # prefix the sequence is non-increasing.
    critical_counts: tuple[int, ...]
    steps: tuple[Step, ...]
    exit: Exit


class Recorder:
    """Observer of one walk: its permutation, its steps and, with
    ``track_alpha``, the critical-clause counts of ``DelPpzTrace``."""

    def __init__(self, track_alpha: Assignment | None = None):
        self.track_alpha = track_alpha
        self.tracking = track_alpha is not None
        self.permutation: tuple[int, ...] = ()
        self.steps: list[Step] = []
        self.critical_counts: list[int] = []

    def start_step(self, clauses) -> None:
        if self.tracking:
            self.critical_counts.append(_critical_count(clauses, self.track_alpha))

    def assign(self, variable: int, forced: bool, value: bool) -> None:
        self.steps.append(Step(variable, forced, value))
        if self.tracking and value != self.track_alpha[variable]:
            self.tracking = False


def walk(
    formula: CnfFormula,
    rng: RandomSource,
    route: bool,
    recorder: Recorder | None = None,
) -> tuple[Exit, Assignment, list[bool] | None]:
    """One walk over a random permutation; the deletion route runs iff ``route``.

    Returns ``(exit, fixed, values)``: the exit site, the values the walk
    set, and for ``Exit.DEL`` the 2-SAT solution (indexed by variable) that
    they override, taken at step ``len(fixed) + 1``.  A walk that sets every
    variable without a conflict has satisfied every clause.
    """
    n = formula.num_vars
    perm = rng.permutation(n)
    if recorder is not None:
        recorder.permutation = tuple(perm)
    clauses = list(formula.clauses)
    fixed: Assignment = {}
    for v in perm:
        if recorder is not None:
            recorder.start_step(clauses)
        if route:
            values = solve_2sat_clauses(delete_clauses(clauses, rng), n)
            if values is not None:
                return Exit.DEL, fixed, values
        for clause in clauses:
            if len(clause) == 1 and (clause[0] == v or clause[0] == -v):
                forced, value = True, clause[0] > 0
                break
        else:
            forced, value = False, rng.coin()
        fixed[v] = value
        if recorder is not None:
            recorder.assign(v, forced, value)
        clauses, conflict = substitute_clauses(clauses, v if value else -v)
        if conflict:
            return Exit.FAILED, fixed, None
    return Exit.PPZ, fixed, None


def delppz_iteration(
    formula: CnfFormula,
    rng: RandomSource,
    track_alpha: Assignment | None = None,
) -> tuple[SolverOutcome, DelPpzTrace]:
    """One combined iteration.

    With ``track_alpha`` given, the trace records the critical-clause count
    of the evolving formula w.r.t. that assignment at the start of every
    executed step; the hot path carries no such overhead when untracked.
    """
    if not formula.is_3cnf():
        raise ValueError("delppz_iteration requires a 3-CNF formula")
    recorder = Recorder(track_alpha)
    site, alpha, values = walk(formula, rng, True, recorder)
    trace = DelPpzTrace(
        recorder.permutation, tuple(recorder.critical_counts), tuple(recorder.steps), site
    )
    if site is Exit.FAILED:
        return SolverOutcome(None, site), trace
    step = None
    if site is Exit.DEL:
        step = len(alpha) + 1
        alpha = {**{u: values[u] for u in range(1, formula.num_vars + 1)}, **alpha}
    check_satisfies(formula, alpha)
    return SolverOutcome(alpha, site, exit_step=step), trace


def delppz_success(formula: CnfFormula, rng: RandomSource) -> bool:
    """Trace-free fast path making the same draws as delppz_iteration."""
    return walk(formula, rng, True)[0] is not Exit.FAILED


def default_omega(n: int, budget_cap: int = DEFAULT_BUDGET_CAP) -> int:
    """Trial count n * r^n for worst-case rate r, clipped to the budget cap.

    The instance-optimal trial count needs the unknown per-iteration
    success probability; the worst-case bound keeps the error contract
    while staying runnable.
    """
    raw = math.ceil(n * WORST_CASE_RATE**n)
    return max(1, min(raw, budget_cap))


def run(
    formula: CnfFormula,
    algorithm: Algorithm,
    seed: int,
    omega: int | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> SolverOutcome:
    """Run up to omega independent iterations of ``algorithm``; first success wins.

    omega defaults to ``default_omega`` and is clipped to the budget cap.
    A FAILED outcome after the full budget is *not* an unsatisfiability
    proof; it carries the trial count so callers can report it.
    """
    from .deletion import del_iteration
    from .ppz import ppz_iteration

    if omega is None:
        omega = default_omega(formula.num_vars, budget_cap)
    omega = min(omega, budget_cap)
    if omega < 1:
        raise ValueError("omega must be >= 1")
    for trial in range(omega):
        rng = RandomSource.for_trial(seed, trial)
        if algorithm is Algorithm.DELPPZ:
            outcome, _ = delppz_iteration(formula, rng)
        else:
            if algorithm is Algorithm.PPZ:
                alpha, site = ppz_iteration(formula, rng)[0], Exit.PPZ
            else:
                alpha, site = del_iteration(formula, rng), Exit.DEL
            outcome = SolverOutcome(alpha, Exit.FAILED if alpha is None else site)
        if outcome.exit is not Exit.FAILED:
            check_satisfies(formula, outcome.assignment)
            return replace(outcome, trials=trial + 1)
    return SolverOutcome(None, Exit.FAILED, trials=omega)


def run_delppz(
    formula: CnfFormula,
    seed: int,
    omega: int | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> SolverOutcome:
    """``run`` with the combined solver."""
    return run(formula, Algorithm.DELPPZ, seed, omega, budget_cap)


def _critical_count(clauses, alpha: Assignment) -> int:
    count = 0
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            if alpha[abs(lit)] == (lit > 0):
                satisfied += 1
                if satisfied > 1:
                    break
        if satisfied == 1:
            count += 1
    return count
