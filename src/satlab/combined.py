"""The one iteration of all three solvers, the permutation walk behind it,
and the repeated-trial driver.

One walk draws a uniform permutation of the variables and visits them in
turn.  With the deletion route on (the combined solver), each step first
narrows the current, partially substituted formula by random literal
deletion; if the narrowed 2-CNF is satisfiable the iteration exits there.
Otherwise the step's variable is set by the first unit clause over it,
else by a fair coin, and the formula is restricted.  The walk stops at the
first conflict: a falsified clause leaves neither route a way to succeed.
With the route off the walk is the ppz iteration; del is the route alone,
once on the input.  ``iteration`` runs any of the three and re-verifies
every assignment it returns against the input; ``run`` repeats it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .cnf import (
    Assignment,
    CnfFormula,
    check_satisfies,
    critical_variable,
    substitute_clauses,
)
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
class Trace:
    permutation: tuple[int, ...]
    steps: tuple[Step, ...]
    exit: Exit
    # Critical-clause count of the current formula at the start of each
    # executed step, w.r.t. the tracked assignment; empty when untracked.
    # Counts are recorded only while every value assigned so far agrees
    # with the tracked assignment: past that point the count no longer
    # measures progress toward it (and can grow).  Within the recorded
    # prefix the sequence is non-increasing.
    critical_counts: tuple[int, ...]

    def unforced_count(self) -> int:
        return sum(1 for s in self.steps if not s.forced)


class Recorder:
    """Observer of one walk: its permutation, its steps and, with
    ``track_alpha``, the critical-clause counts of ``Trace``."""

    def __init__(self, track_alpha: Assignment | None = None):
        self.track_alpha = track_alpha
        self.tracking = track_alpha is not None
        self.permutation: tuple[int, ...] = ()
        self.steps: list[Step] = []
        self.critical_counts: list[int] = []

    def start_step(self, clauses) -> None:
        if self.tracking:
            alpha = self.track_alpha
            self.critical_counts.append(
                sum(1 for c in clauses if critical_variable(c, alpha) is not None)
            )

    def assign(self, variable: int, forced: bool, value: bool) -> None:
        self.steps.append(Step(variable, forced, value))
        if self.tracking and value != self.track_alpha[variable]:
            self.tracking = False

    def trace(self, site: Exit) -> Trace:
        return Trace(
            self.permutation, tuple(self.steps), site, tuple(self.critical_counts)
        )


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


class SolutionMasks:
    """Exact per-trial success of the three iterations on a 3-CNF formula,
    given its solution set.

    Bit i of every mask stands for the same solution (bit v-1 of a
    solution holds the value of variable v), and ``cons`` is the set of
    solutions that extend the values a walk has fixed so far.  A walk
    succeeds iff its final assignment, the one member of ``cons`` once every
    variable is set, is a solution.  Its deletion route succeeds at a step
    iff some solution in ``cons`` satisfies every width-3 clause with no
    fixed variable, narrowed by its drawn literal deletion: every other
    residual clause holds under any solution that extends the fixed values.
    ``success`` makes the draws of ``walk`` and ``del_success`` in the same
    order, so a stream gives it the same outcome as them.  It stops at an
    empty ``cons``, where neither route can succeed any more; the draws a
    failed trial leaves unused belong to no other trial.
    """

    def __init__(self, formula: CnfFormula, solutions):
        n = self.n = formula.num_vars
        solutions = list(solutions)  # one fixed order for every mask
        self.full = (1 << len(solutions)) - 1
        # extends[v][value]: the solutions giving v that value.  fixes[v][value]
        # is its bit in a walk's ``state``: v - 1 for True, n + v - 1 for False.
        self.extends = [(0, 0)]
        self.fixes = [(0, 0)]
        for v in range(1, n + 1):
            true = int("0" + "".join("01"[s >> (v - 1) & 1] for s in solutions), 2)
            self.extends.append((self.full & ~true, true))
            self.fixes.append((1 << (n + v - 1), 1 << (v - 1)))

        def holds(lit):  # solutions satisfying the literal
            return self.extends[abs(lit)][lit > 0]

        def falsified(lit):  # state bit of the value falsifying the literal
            return self.fixes[abs(lit)][lit < 0]

        # forcing[v]: in clause order, (pattern, value) for each clause that is
        # a unit on v once every state bit of the pattern is set.
        self.forcing = [[] for _ in range(n + 1)]
        # wide: for each width-3 clause, its variables' state bits and the
        # solutions satisfying it with literal d deleted, for d = 0, 1, 2.
        self.wide = []
        for clause in formula.clauses:
            for lit in clause:
                pattern = 0
                for other in clause:
                    if other != lit:
                        pattern |= falsified(other)
                self.forcing[abs(lit)].append((pattern, lit > 0))
            if len(clause) == 3:
                a, b, c = map(holds, clause)
                touched = 0
                for lit in clause:
                    touched |= self.fixes[abs(lit)][0] | self.fixes[abs(lit)][1]
                self.wide.append((touched, (b | c, a | c, a | b)))

    def success(self, algorithm: Algorithm, rng: RandomSource) -> bool:
        """The outcome of one trial of ``algorithm`` on the stream ``rng``."""
        if algorithm is Algorithm.DEL:
            return self.route(self.full, 0, rng)
        return self.walk(rng, algorithm is Algorithm.DELPPZ)

    def walk(self, rng: RandomSource, route: bool) -> bool:
        """``walk`` over masks: True iff it would not exit ``Exit.FAILED``."""
        forcing, fixes, extends = self.forcing, self.fixes, self.extends
        cons = self.full
        state = 0
        for v in rng.permutation(self.n):
            if route and self.route(cons, state, rng):
                return True
            for pattern, value in forcing[v]:
                if state & pattern == pattern:
                    break
            else:
                value = rng.coin()
            state |= fixes[v][value]
            cons &= extends[v][value]
            if not cons:
                return False
        return True

    def route(self, cons: int, state: int, rng: RandomSource) -> bool:
        """One deletion route from the fixed values ``state``, whose solutions
        are ``cons``: one ``rng.index(3)`` per untouched width-3 clause."""
        for touched, narrowed in self.wide:
            if not state & touched:
                cons &= narrowed[rng.index(3)]
        return cons != 0


def iteration(
    formula: CnfFormula,
    algorithm: Algorithm,
    rng: RandomSource,
    recorder: Recorder | None = None,
) -> SolverOutcome:
    """One trial of ``algorithm`` on a formula the caller has checked is 3-CNF.

    ``recorder`` observes the walk of ppz and delppz.  Any assignment
    returned has passed ``check_satisfies``."""
    n = formula.num_vars
    if algorithm is Algorithm.DEL:
        values = solve_2sat_clauses(delete_clauses(formula.clauses, rng), n)
        site, fixed = Exit.FAILED if values is None else Exit.DEL, {}
    else:
        route = algorithm is Algorithm.DELPPZ
        site, fixed, values = walk(formula, rng, route, recorder)
    if site is Exit.FAILED:
        return SolverOutcome(None, site)
    alpha, step = fixed, None
    if values is not None:  # the 2-SAT values, under those the walk fixed
        alpha = {**{u: values[u] for u in range(1, n + 1)}, **fixed}
        if algorithm is Algorithm.DELPPZ:
            step = len(fixed) + 1
    check_satisfies(formula, alpha)
    return SolverOutcome(alpha, site, exit_step=step)


def delppz_iteration(
    formula: CnfFormula,
    rng: RandomSource,
    track_alpha: Assignment | None = None,
) -> tuple[SolverOutcome, Trace]:
    """One combined iteration and its trace.

    With ``track_alpha`` given, the trace records the critical-clause count
    of the evolving formula w.r.t. that assignment at the start of every
    executed step.  Every call builds the trace; ``run`` builds none.
    """
    if not formula.is_3cnf():
        raise ValueError("delppz_iteration requires a 3-CNF formula")
    recorder = Recorder(track_alpha)
    outcome = iteration(formula, Algorithm.DELPPZ, rng, recorder)
    return outcome, recorder.trace(outcome.exit)


def delppz_success(formula: CnfFormula, rng: RandomSource) -> bool:
    """Trace-free fast path making the same draws as delppz_iteration."""
    return walk(formula, rng, True)[0] is not Exit.FAILED


def worst_case_omega(n: int) -> float:
    """Trial count n * r^n for worst-case rate r, which bounds the error by e^-n."""
    try:
        return n * WORST_CASE_RATE**n
    except OverflowError:  # the float power overflows from n = 1536 on
        return math.inf


def default_omega(n: int, budget_cap: int = DEFAULT_BUDGET_CAP) -> int:
    """``worst_case_omega(n)`` rounded up and clipped to the budget cap.

    The instance-optimal trial count needs the unknown per-iteration
    success probability; the worst-case bound keeps the error contract
    while staying runnable.
    """
    raw = worst_case_omega(n)
    return max(1, budget_cap if raw > budget_cap else math.ceil(raw))


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
    if not formula.is_3cnf():
        raise ValueError("run requires a 3-CNF formula")
    if omega is None:
        omega = default_omega(formula.num_vars, budget_cap)
    omega = min(omega, budget_cap)
    if omega < 1:
        raise ValueError("omega must be >= 1")
    for trial in range(omega):
        outcome = iteration(formula, algorithm, RandomSource.for_trial(seed, trial))
        if outcome.exit is not Exit.FAILED:
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
