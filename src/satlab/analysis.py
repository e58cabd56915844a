"""Exact oracles by counting, critical-clause profiling, closed-form success
bounds, and Monte Carlo estimation of per-iteration success probability.

A clause is *critical* w.r.t. a solution when exactly one of its literals
is satisfied; the variable under that literal is the clause's critical
variable.  The profile of a solution collects the critical-clause count c,
its per-variable partition t, the number l of neighboring solutions at
Hamming distance 1, and the average t_av = c / (n - l) that drives the
combined solver's bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial

from .cnf import Assignment, CnfFormula, critical_variable
from .combined import Algorithm, SolutionMasks, delppz_success
from .deletion import del_success
from .ppz import ppz_success
from .rng import RandomSource

ENUMERATION_GUARD = 24  # solution enumeration cap
# Largest n at which estimate_tau runs on SolutionMasks: that of the
# benchmark's estimate bed, the range where the kernel has been timed.
KERNEL_MAX_N = 9
DEL_PATTERN_GUARD = 10  # 3^w deletion-pattern cap
# The ppz count visits at most 3^n residual states; n <= 6 is kept so that
# every caller gets the same values and refusals as before.
PPZ_PERMUTATION_GUARD = 6

LOG2_3_2 = math.log2(1.5)
# t_av value where the deletion-route term of the combined bound meets the
# permutation solver's 2^(-2n/3): 2 / (3 * log2(3/2)).
CROSSOVER_T_AV = 2.0 / (3.0 * LOG2_3_2)

_Z95 = 1.959963984540054


_SUCCESS_FN = {
    Algorithm.PPZ: ppz_success,
    Algorithm.DEL: del_success,
    Algorithm.DELPPZ: delppz_success,
}
# The functions SolutionMasks reproduces.  estimate_tau calls a table entry
# that is not among them, such as an instrumenting wrapper, on every trial.
_KERNEL_FN = dict(_SUCCESS_FN)


@dataclass(frozen=True)
class SolutionSet:
    n: int
    masks: frozenset[int]  # bit i-1 holds the value of variable i

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, alpha: Assignment) -> bool:
        return assignment_to_mask(alpha, self.n) in self.masks

    def assignments(self) -> list[Assignment]:
        return [mask_to_assignment(m, self.n) for m in sorted(self.masks)]


def assignment_to_mask(alpha: Assignment, n: int) -> int:
    mask = 0
    for v in range(1, n + 1):
        if alpha[v]:
            mask |= 1 << (v - 1)
    return mask


def mask_to_assignment(mask: int, n: int) -> Assignment:
    return {v: bool(mask >> (v - 1) & 1) for v in range(1, n + 1)}


@dataclass(frozen=True)
class CriticalProfile:
    alpha: Assignment
    c: int
    t_per_var: dict[int, int]
    l: int
    isolation: int
    t_min: int | None  # minimum positive t, None when c = 0
    t_av: float | None  # c / (n - l), None when c = 0


@dataclass(frozen=True)
class TauEstimate:
    successes: int
    trials: int
    point: float
    ci_low: float
    ci_high: float


def enumerate_solutions(
    formula: CnfFormula, max_n: int = ENUMERATION_GUARD
) -> SolutionSet:
    """Exact solution set by backtracking over the variables in index order.

    Each clause is tested once its highest variable is set, so a branch
    stops at its first falsified clause and the work follows the number of
    solutions and dead ends rather than 2^n.
    """
    n = formula.num_vars
    if n > max_n:
        raise ValueError(
            f"refusing exhaustive scan: n={n} exceeds guard {max_n}"
        )
    # closing[v]: (positive bits, negative bits) of each clause whose
    # highest variable is v
    closing = [[] for _ in range(n + 1)]
    for clause in formula.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        closing[max(abs(lit) for lit in clause)].append((pos, neg))
    masks = []
    stack = [(0, 0)]  # (variables set, mask)
    while stack:
        v, mask = stack.pop()
        if v == n:
            masks.append(mask)
            continue
        v += 1
        for m in (mask, mask | 1 << (v - 1)):
            for pos, neg in closing[v]:
                if not (m & pos or ~m & neg):
                    break
            else:
                stack.append((v, m))
    return SolutionSet(n, frozenset(masks))


def critical_profile(
    formula: CnfFormula, alpha: Assignment, solutions: SolutionSet
) -> CriticalProfile:
    if alpha not in solutions:
        raise ValueError("alpha is not a solution of the formula")
    n = formula.num_vars
    t_per_var = {v: 0 for v in range(1, n + 1)}
    for clause in formula.clauses:
        v = critical_variable(clause, alpha)
        if v is not None:
            t_per_var[v] += 1
    c = sum(t_per_var.values())
    mask = assignment_to_mask(alpha, n)
    l = sum(1 for v in range(n) if (mask ^ (1 << v)) in solutions.masks)
    positive = [t for t in t_per_var.values() if t > 0]
    return CriticalProfile(
        alpha=alpha,
        c=c,
        t_per_var=t_per_var,
        l=l,
        isolation=n - l,
        t_min=min(positive) if positive else None,
        t_av=c / (n - l) if c > 0 else None,
    )


def ppz_bound(n: int) -> float:
    """Worst-case single-iteration success of the permutation solver, 2^(-2n/3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 ** (-2.0 * n / 3.0)


def del_bound(c: float) -> float:
    """Per-solution success of the deletion solver, (2/3)^c."""
    if c < 0:
        raise ValueError("c must be >= 0")
    return (2.0 / 3.0) ** c


def delppz_bound(n: int, s: int, t_av: float) -> float:
    """Combined-solver lower bound s*2^(-n*t_av*log2(3/2)) + (2^-n*s)^(2/3).

    Clamped at 1 because the asymptotic form can exceed 1 at small n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    if t_av < 1:
        raise ValueError("t_av must be >= 1")
    raw = s * 2.0 ** (-n * t_av * LOG2_3_2) + (2.0**-n * s) ** (2.0 / 3.0)
    return min(1.0, raw)


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # snap the closed-form zero/one endpoints (exact in real arithmetic,
    # off by float residue otherwise)
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def estimate_tau(
    formula: CnfFormula,
    algorithm: Algorithm,
    trials: int,
    seed: int,
) -> TauEstimate:
    """Monte Carlo per-iteration success probability with 95% Wilson CI.

    Trial t draws from a stream derived purely from (seed, t), so results
    are independent of execution order.  Up to ``KERNEL_MAX_N`` variables
    the trials run on ``SolutionMasks``, which gives each of them the
    outcome of the walk-based success function.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if not formula.is_3cnf():
        raise ValueError("estimate_tau requires a 3-CNF formula")
    success_fn = _SUCCESS_FN[algorithm]
    if success_fn is _KERNEL_FN[algorithm] and formula.num_vars <= KERNEL_MAX_N:
        masks = SolutionMasks(formula, enumerate_solutions(formula).masks)
        succeeds = partial(masks.success, algorithm)
    else:
        succeeds = partial(success_fn, formula)
    successes = 0
    for trial in range(trials):
        if succeeds(RandomSource.for_trial(seed, trial)):
            successes += 1
    low, high = wilson_interval(successes, trials)
    point = successes / trials
    return TauEstimate(successes, trials, point, min(low, point), max(high, point))


def exact_del_success(formula: CnfFormula) -> float:
    """Exact deletion-solver success by enumerating all deletion patterns.

    Every width-3 clause contributes 3 equiprobable choices; the success
    probability is the fraction of patterns whose narrowed 2-CNF is
    satisfiable.
    """
    if not formula.is_3cnf():
        raise ValueError("exact_del_success requires a 3-CNF formula")
    wide = [c for c in formula.clauses if len(c) == 3]
    if len(wide) > DEL_PATTERN_GUARD:
        raise ValueError(
            f"refusing pattern enumeration: {len(wide)} width-3 clauses "
            f"exceed guard {DEL_PATTERN_GUARD}"
        )
    from .twosat import solve_2sat_clauses

    narrow = [c for c in formula.clauses if len(c) < 3]
    # each width-3 clause with literal 0, 1 or 2 deleted
    choices = [((b, c), (a, c), (a, b)) for a, b, c in wide]
    good = 0
    for pattern in itertools.product(*choices):
        if solve_2sat_clauses(narrow + list(pattern), formula.num_vars) is not None:
            good += 1
    return good / 3 ** len(wide)


def exact_ppz_success(formula: CnfFormula) -> float:
    """Exact permutation-solver success, counted over the walk's states.

    ``good(clauses, unset)`` is the number of (order, coin vector) pairs
    over the unset variables whose walk ends with no conflict.  The next
    variable is forced by its first unit clause, where both coins take the
    one branch, or else each coin takes its own.  A walk that sets every
    variable with no conflict has satisfied every clause, so the success
    is good / (n! * 2^n).
    """
    if not formula.is_3cnf():
        raise ValueError("exact_ppz_success requires a 3-CNF formula")
    n = formula.num_vars
    if n > PPZ_PERMUTATION_GUARD:
        raise ValueError(
            f"refusing permutation enumeration: n={n} > {PPZ_PERMUTATION_GUARD}"
        )
    from .cnf import substitute_clauses

    @cache
    def good(clauses: tuple, unset: frozenset) -> int:
        if not unset:
            return 1
        count = 0
        for v in unset:
            forced = next(
                (c[0] for c in clauses if len(c) == 1 and abs(c[0]) == v), None
            )
            branches = ((-v, 1), (v, 1)) if forced is None else ((forced, 2),)
            for lit, coins in branches:
                rest, conflict = substitute_clauses(clauses, lit)
                if not conflict:
                    count += coins * good(tuple(rest), unset - {v})
        return count

    runs = math.factorial(n) * 2**n
    return good(tuple(formula.clauses), frozenset(range(1, n + 1))) / runs
