import pytest

from satlab.analysis import exact_ppz_success
from satlab.cnf import CnfFormula, evaluate
from satlab.generators import random_3cnf, xor_chain
from satlab.ppz import ppz_iteration, ppz_success
from satlab.rng import RandomSource

from conftest import binomial_sigma, brute_force_solutions


def test_single_unit_clause_forced():
    f = CnfFormula(1, ((1,),))
    for seed in range(20):
        alpha, trace = ppz_iteration(f, RandomSource(seed))
        assert alpha == {1: True}
        assert trace.steps[0].forced


def test_unsat_always_absent():
    f = CnfFormula(1, ((1,), (-1,)))
    for seed in range(200):
        alpha, _ = ppz_iteration(f, RandomSource(seed))
        assert alpha is None


def test_one_sided_error_on_unsat_corpus(small_unsat_formulas):
    for f in small_unsat_formulas:
        for trial in range(100):
            alpha, _ = ppz_iteration(f, RandomSource.for_trial(11, trial))
            assert alpha is None


def test_trace_covers_every_variable_once():
    f = xor_chain(2)
    _, trace = ppz_iteration(f, RandomSource(5))
    assert sorted(trace.permutation) == list(range(1, 7))
    assert sorted(s.variable for s in trace.steps) == list(range(1, 7))


def test_returned_assignment_always_satisfies():
    f = random_3cnf(6, 14, 3)
    for trial in range(500):
        alpha, _ = ppz_iteration(f, RandomSource.for_trial(0, trial))
        if alpha is not None:
            assert evaluate(f, alpha)


def test_empirical_matches_exact_oracle():
    f = random_3cnf(5, 12, 1)
    assert brute_force_solutions(f)
    exact = exact_ppz_success(f)
    trials = 20000
    hits = sum(
        ppz_success(f, RandomSource.for_trial(2, t)) for t in range(trials)
    )
    sigma = binomial_sigma(exact, trials)
    assert abs(hits / trials - exact) <= 3 * sigma + 1e-12


def test_success_fast_path_agrees_with_iteration():
    f = random_3cnf(6, 15, 9)
    for trial in range(2000):
        alpha, _ = ppz_iteration(f, RandomSource.for_trial(4, trial))
        fast = ppz_success(f, RandomSource.for_trial(4, trial))
        assert (alpha is not None) == fast


def test_reproducibility_order_independent():
    f = xor_chain(2)
    outcomes = {}
    for trial in [5, 1, 3, 0, 2, 4]:
        alpha, trace = ppz_iteration(f, RandomSource.for_trial(99, trial))
        outcomes[trial] = (alpha, trace)
    for trial in range(6):
        alpha, trace = ppz_iteration(f, RandomSource.for_trial(99, trial))
        assert outcomes[trial] == (alpha, trace)


def test_rejects_wide_formula():
    with pytest.raises(ValueError, match="3-CNF"):
        ppz_iteration(CnfFormula(4, ((1, 2, 3, 4),)), RandomSource(0))


def test_unforced_mean_bound_on_xor_chain():
    # expected forced count is at least (n - l)/3, so the unforced mean
    # must stay below n - (n - l)/3 (= 4 on the 2-triple chain, l = 0)
    f = xor_chain(2)
    trials = 2000
    total = 0
    kept = 0
    for t in range(trials):
        alpha, trace = ppz_iteration(f, RandomSource.for_trial(13, t))
        if alpha is not None:
            total += trace.unforced_count()
            kept += 1
    assert kept > 0
    mean = total / kept
    assert mean <= 6 - 6 / 3 + 1e-9
