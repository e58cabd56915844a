"""Instances the benchmark feeds to satlab, and its DIMACS writer.

The planted and unsatisfiable generators are the benchmark's own, so the
program under test receives only generated inputs.  ``estimate_bed``
restates the recipe of ``satisfiable_corpus`` in ``tests/conftest.py`` and
calls ``satlab.generators`` for the random instances, so its figures
relate to the dominance criterion of the acceptance suite.
"""

from __future__ import annotations

import itertools
import random

import reference

# (n, m) cycle of tests/conftest.py::satisfiable_corpus.
BED_SIZES = [(5, 12), (6, 15), (7, 18), (8, 20), (9, 22)]


def random_clause(n: int, rnd: random.Random) -> tuple[int, ...]:
    chosen = rnd.sample(range(1, n + 1), 3)
    return tuple(v if rnd.getrandbits(1) else -v for v in chosen)


def planted(n: int, m: int, rnd: random.Random) -> list[tuple[int, ...]]:
    """m width-3 clauses satisfied by a hidden assignment drawn from rnd.

    Random clauses are drawn and those the hidden assignment falsifies are
    rejected, so the result is satisfiable by construction.
    """
    hidden = [None] + [rnd.getrandbits(1) == 1 for _ in range(n)]
    clauses = []
    while len(clauses) < m:
        clause = random_clause(n, rnd)
        if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return clauses


def unsatisfiable(n: int, m: int, rnd: random.Random) -> list[tuple[int, ...]]:
    """m random width-3 clauses plus all eight sign patterns over one triple.

    No assignment satisfies all eight patterns over a triple, so the
    result is unsatisfiable by construction.
    """
    clauses = [random_clause(n, rnd) for _ in range(m)]
    a, b, c = rnd.sample(range(1, n + 1), 3)
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        clauses.insert(rnd.randrange(len(clauses) + 1), (sa * a, sb * b, sc * c))
    return clauses


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def estimate_bed(generators, count: int):
    """xor_chain(1), xor_chain(2), then the first count satisfiable corpus
    instances: random_3cnf(n, m, seed) for seed = 0, 1, ... over the
    BED_SIZES cycle, keeping those with at least one solution."""
    bed = [("xor1", generators.xor_chain(1)), ("xor2", generators.xor_chain(2))]
    sizes = itertools.cycle(BED_SIZES)
    seed = 0
    while len(bed) < count + 2:
        n, m = next(sizes)
        formula = generators.random_3cnf(n, m, seed)
        if reference.solutions(n, formula.clauses):
            bed.append((f"rand{len(bed) - 2}", formula))
        seed += 1
    return bed
