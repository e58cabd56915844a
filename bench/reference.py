"""Independent reference computations for the benchmark's output checks.

Nothing here calls ``satlab``: a formula is a variable count and a list of
clauses (tuples of DIMACS literals), and an assignment is a bitmask whose
bit ``v - 1`` holds the value of variable ``v``.

- ``solutions``: every satisfying assignment, by backtracking over the
  variables in index order.
- ``critical_counts``: per solution, the critical-clause count c (clauses
  with exactly one true literal) and the neighbour count l (solutions at
  Hamming distance 1).
- ``del_success``: exact success of the deletion solver by a DP over
  subsets of the solution set, folding clause by clause.
- ``ppz_success``: exact success of the permutation solver by a memoized
  DP over partial assignments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def satisfies(clauses, mask: int) -> bool:
    """True iff the bitmask assignment satisfies every clause."""
    for clause in clauses:
        for lit in clause:
            if ((mask >> (abs(lit) - 1)) & 1) == (lit > 0):
                break
        else:
            return False
    return True


def solutions(num_vars: int, clauses) -> list[int]:
    """All satisfying assignments as bitmasks, in increasing order.

    Variables are set in index order, value False first; a clause is
    tested once its highest variable is set, and a falsified clause prunes
    the branch.
    """
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(num_vars + 1)]
    for clause in clauses:
        closing[max(abs(lit) for lit in clause)].append(clause)
    found: list[int] = []

    def extend(v: int, mask: int) -> None:
        if v > num_vars:
            found.append(mask)
            return
        for bit in (0, 1):
            m = mask | (bit << (v - 1))
            if satisfies(closing[v], m):
                extend(v + 1, m)

    extend(1, 0)
    return sorted(found)


def critical_counts(num_vars: int, clauses, sols) -> dict[int, tuple[int, int]]:
    """Map each solution mask to (c, l)."""
    members = set(sols)
    out = {}
    for mask in sols:
        c = 0
        for clause in clauses:
            true_lits = sum(
                1 for lit in clause if ((mask >> (abs(lit) - 1)) & 1) == (lit > 0)
            )
            c += true_lits == 1
        l = sum(1 for v in range(num_vars) if mask ^ (1 << v) in members)
        out[mask] = (c, l)
    return out


def del_success(clauses, sols) -> tuple[int, int]:
    """Exact deletion-solver success as (good patterns, w); P = good / 3**w.

    A narrowed formula implies the input, so it is satisfiable iff some
    solution of the input satisfies every narrowed clause.  The DP keeps,
    for each subset of the solution set (a bitmask over ``sols``) that can
    still satisfy everything folded so far, the number of deletion patterns
    that lead to it.  Each width-3 clause splits every subset three ways,
    one per deleted literal; narrower clauses pass through unchanged and
    every solution satisfies them.
    """

    def sat_set(lits) -> int:
        bits = 0
        for i, mask in enumerate(sols):
            if satisfies((lits,), mask):
                bits |= 1 << i
        return bits

    dist = {(1 << len(sols)) - 1: 1} if sols else {}
    w = 0
    for clause in clauses:
        if len(clause) != 3:
            continue
        w += 1
        a, b, c = clause
        narrowed = (sat_set((b, c)), sat_set((a, c)), sat_set((a, b)))
        nxt: dict[int, int] = {}
        for subset, count in dist.items():
            for keep in narrowed:
                s = subset & keep
                if s:
                    nxt[s] = nxt.get(s, 0) + count
        dist = nxt
    return sum(dist.values()), w


def ppz_success(num_vars: int, clauses) -> Fraction:
    """Exact permutation-solver success as a fraction.

    P(residual, unassigned) is the mean over the next variable v, which a
    uniform permutation draws uniformly from the unassigned ones, of: the
    value after the forced step when a unit clause over v is pending, else
    the mean of the two coin outcomes.  A step that empties a clause makes
    the final assignment falsify it, so its value is 0; opposite unit
    clauses over v empty one of them whichever is taken first.
    """

    @lru_cache(maxsize=None)
    def value(residual: frozenset, unassigned: frozenset) -> Fraction:
        if not unassigned:
            return Fraction(1)
        total = Fraction(0)
        for v in unassigned:
            rest = unassigned - {v}
            units = {lit for c in residual if len(c) == 1 for lit in c if abs(lit) == v}
            if len(units) == 2:
                continue
            if units:
                total += step(residual, units.pop(), rest)
            else:
                total += (step(residual, v, rest) + step(residual, -v, rest)) / 2
        return total / len(unassigned)

    def step(residual: frozenset, true_lit: int, rest: frozenset) -> Fraction:
        nxt = []
        for c in residual:
            if true_lit in c:
                continue
            if -true_lit in c:
                if len(c) == 1:
                    return Fraction(0)
                c = c - {-true_lit}
            nxt.append(c)
        return value(frozenset(nxt), rest)

    start = frozenset(frozenset(c) for c in clauses)
    return value(start, frozenset(range(1, num_vars + 1)))
