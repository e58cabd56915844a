from collections import Counter

import pytest

from satlab.analysis import exact_del_success
from satlab.cnf import CnfFormula, evaluate
from satlab.deletion import del_iteration, del_success, delete_clauses
from satlab.generators import random_3cnf, xor_chain
from satlab.rng import RandomSource

from conftest import binomial_sigma, brute_force_solutions


def test_narrow_formula_untouched():
    clauses = ((1, 2), (-3,))
    assert delete_clauses(clauses, RandomSource(0)) == list(clauses)


def test_single_triple_uniform_choice():
    counts = Counter()
    trials = 3000
    for seed in range(trials):
        counts[delete_clauses(((1, 2, 3),), RandomSource(seed))[0]] += 1
    assert set(counts) == {(2, 3), (1, 3), (1, 2)}
    for clause in counts:
        assert abs(counts[clause] / trials - 1 / 3) <= 3 * binomial_sigma(1 / 3, trials)


def test_xor_chain_all_clauses_narrowed():
    narrowed = delete_clauses(xor_chain(1).clauses, RandomSource(7))
    assert len(narrowed) == 4
    assert all(len(c) == 2 for c in narrowed)


def test_clause_count_and_subclause_structure():
    f = random_3cnf(8, 20, 5)
    narrowed = delete_clauses(f.clauses, RandomSource(1))
    assert len(narrowed) == f.num_clauses
    for narrow, wide in zip(narrowed, f.clauses):
        assert set(narrow) <= set(wide)
        assert len(narrow) == min(len(wide), 2)


def test_rejects_wide_formula():
    with pytest.raises(ValueError, match="3-CNF"):
        del_iteration(CnfFormula(4, ((1, 2, 3, 4),)), RandomSource(0))


def test_unsat_always_absent():
    f = CnfFormula(1, ((1,), (-1,)))
    for seed in range(200):
        assert del_iteration(f, RandomSource(seed)) is None


def test_one_sided_error_on_unsat_corpus(small_unsat_formulas):
    for f in small_unsat_formulas:
        for trial in range(100):
            assert del_iteration(f, RandomSource.for_trial(21, trial)) is None


def test_returned_assignment_satisfies_original():
    f = random_3cnf(7, 16, 2)
    assert brute_force_solutions(f)
    found = 0
    for trial in range(500):
        alpha = del_iteration(f, RandomSource.for_trial(0, trial))
        if alpha is not None:
            found += 1
            assert evaluate(f, alpha)
    assert found > 0


def test_empirical_matches_exact_oracle_xor1():
    f = xor_chain(1)
    exact = exact_del_success(f)
    assert exact >= (2 / 3) ** 3
    trials = 20000
    hits = sum(del_success(f, RandomSource.for_trial(3, t)) for t in range(trials))
    assert abs(hits / trials - exact) <= 3 * binomial_sigma(exact, trials)


def test_success_fast_path_agrees_with_iteration():
    f = random_3cnf(6, 15, 4)
    for trial in range(2000):
        alpha = del_iteration(f, RandomSource.for_trial(8, trial))
        fast = del_success(f, RandomSource.for_trial(8, trial))
        assert (alpha is not None) == fast
