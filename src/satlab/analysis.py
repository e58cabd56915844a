"""Brute-force oracles, critical-clause profiling, closed-form success
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

import numpy as np

from .cnf import Assignment, Clause, CnfFormula, evaluate
from .combined import Algorithm, delppz_success
from .deletion import del_success
from .ppz import ppz_success
from .rng import RandomSource

ENUMERATION_GUARD = 24  # 2^n scan cap
DEL_PATTERN_GUARD = 10  # 3^w deletion-pattern cap
PPZ_PERMUTATION_GUARD = 6  # n! permutation cap

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
    """Exact solution set by exhaustive scan of all 2^n assignments."""
    n = formula.num_vars
    if n > max_n:
        raise ValueError(
            f"refusing exhaustive scan: n={n} exceeds guard {max_n}"
        )
    all_masks = np.arange(1 << n, dtype=np.int64)
    satisfied = np.ones(1 << n, dtype=bool)
    for clause in formula.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        satisfied &= ((all_masks & pos) != 0) | ((~all_masks & neg) != 0)
    masks = frozenset(int(m) for m in all_masks[satisfied])
    return SolutionSet(n, masks)


def critical_variable(clause: Clause, alpha: Assignment) -> int | None:
    """Variable of the unique satisfied literal, or None if not exactly one."""
    found = None
    for lit in clause:
        if alpha[abs(lit)] == (lit > 0):
            if found is not None:
                return None
            found = abs(lit)
    return found


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


def wilson_interval(successes: int, trials: int, z: float = _Z95):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    are independent of execution order.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    success_fn = _SUCCESS_FN[algorithm]
    successes = 0
    for trial in range(trials):
        if success_fn(formula, RandomSource.for_trial(seed, trial)):
            successes += 1
    low, high = wilson_interval(successes, trials)
    point = successes / trials
    return TauEstimate(successes, trials, point, min(low, point), max(high, point))


def exact_del_success(
    formula: CnfFormula, max_patterns_exponent: int = DEL_PATTERN_GUARD
) -> float:
    """Exact deletion-solver success by enumerating all deletion patterns.

    Every width-3 clause contributes 3 equiprobable choices; the success
    probability is the fraction of patterns whose narrowed 2-CNF is
    satisfiable.
    """
    if not formula.is_3cnf():
        raise ValueError("exact_del_success requires a 3-CNF formula")
    wide = [i for i, c in enumerate(formula.clauses) if len(c) == 3]
    if len(wide) > max_patterns_exponent:
        raise ValueError(
            f"refusing pattern enumeration: {len(wide)} width-3 clauses "
            f"exceed guard {max_patterns_exponent}"
        )
    from .twosat import solve_2sat_clauses

    base = list(formula.clauses)
    good = 0
    total = 3 ** len(wide)
    for pattern in itertools.product((0, 1, 2), repeat=len(wide)):
        narrowed = list(base)
        for idx, drop in zip(wide, pattern):
            a, b, c = base[idx]
            narrowed[idx] = (b, c) if drop == 0 else ((a, c) if drop == 1 else (a, b))
        if solve_2sat_clauses(narrowed, formula.num_vars) is not None:
            good += 1
    return good / total


def exact_ppz_success(
    formula: CnfFormula, max_n: int = PPZ_PERMUTATION_GUARD
) -> float:
    """Exact permutation-solver success over all n! permutations and coins.

    For each permutation the deterministic state evolution branches only
    at unforced steps (weight 1/2 per side); forced steps carry weight 1.
    """
    if not formula.is_3cnf():
        raise ValueError("exact_ppz_success requires a 3-CNF formula")
    n = formula.num_vars
    if n > max_n:
        raise ValueError(f"refusing permutation enumeration: n={n} > {max_n}")
    from .cnf import substitute_clauses

    total = 0.0
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        count += 1
        # stack of (step index, clauses, alpha-so-far, path weight)
        stack = [(0, list(formula.clauses), {}, 1.0)]
        while stack:
            i, clauses, alpha, weight = stack.pop()
            if i == n:
                if evaluate(formula, alpha):
                    total += weight
                continue
            v = perm[i]
            polarity = None
            for clause in clauses:
                if len(clause) == 1 and abs(clause[0]) == v:
                    polarity = clause[0] > 0
                    break
            if polarity is not None:
                next_clauses, _ = substitute_clauses(clauses, v if polarity else -v)
                stack.append((i + 1, next_clauses, {**alpha, v: polarity}, weight))
            else:
                for value in (False, True):
                    next_clauses, _ = substitute_clauses(clauses, v if value else -v)
                    stack.append(
                        (i + 1, next_clauses, {**alpha, v: value}, weight / 2.0)
                    )
    return total / count
