import pytest

from satlab import combined
from satlab.cnf import CnfFormula, evaluate
from satlab.combined import (
    DEFAULT_BUDGET_CAP,
    Algorithm,
    Exit,
    SolverOutcome,
    default_omega,
    delppz_iteration,
    delppz_success,
    run,
    run_delppz,
)
from satlab.deletion import del_iteration
from satlab.generators import random_3cnf, xor_chain
from satlab.ppz import ppz_iteration
from satlab.rng import RandomSource

from conftest import brute_force_solutions, mask_to_dict


def test_unsat_always_failed():
    f = CnfFormula(1, ((1,), (-1,)))
    for seed in range(200):
        outcome, trace = delppz_iteration(f, RandomSource(seed))
        assert outcome.exit is Exit.FAILED
        assert outcome.assignment is None
        assert trace.exit is Exit.FAILED


def test_one_sided_error_on_unsat_corpus(small_unsat_formulas):
    for f in small_unsat_formulas:
        for trial in range(100):
            outcome, _ = delppz_iteration(f, RandomSource.for_trial(31, trial))
            assert outcome.exit is Exit.FAILED


def test_narrow_satisfiable_formula_exits_at_step_one():
    # with no width-3 clauses the deletion pass is a no-op and the exact
    # 2-SAT subroutine succeeds immediately
    f = CnfFormula(3, ((1, 2), (-2, 3)))
    for seed in range(50):
        outcome, _ = delppz_iteration(f, RandomSource(seed))
        assert outcome.exit is Exit.DEL
        assert outcome.exit_step == 1
        assert evaluate(f, outcome.assignment)


def test_exit_exclusivity_and_validity():
    f = random_3cnf(7, 17, 6)
    for trial in range(1000):
        outcome, trace = delppz_iteration(f, RandomSource.for_trial(1, trial))
        if outcome.exit is Exit.DEL:
            assert outcome.exit_step is not None
            assert trace.exit is Exit.DEL
        elif outcome.exit is Exit.PPZ:
            assert outcome.exit_step is None
        if outcome.assignment is not None:
            assert evaluate(f, outcome.assignment)


def test_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        SolverOutcome(None, Exit.DEL)
    with pytest.raises(ValueError):
        SolverOutcome({1: True}, Exit.FAILED)


def test_success_fast_path_agrees_with_iteration():
    f = random_3cnf(6, 15, 2)
    for trial in range(1500):
        outcome, _ = delppz_iteration(f, RandomSource.for_trial(5, trial))
        fast = delppz_success(f, RandomSource.for_trial(5, trial))
        assert (outcome.exit is not Exit.FAILED) == fast


def test_monotone_critical_counts_on_xor_chain():
    f = xor_chain(2)
    solutions = brute_force_solutions(f)
    for mask in sorted(solutions):
        alpha = mask_to_dict(mask, 6)
        for trial in range(100):
            _, trace = delppz_iteration(
                f, RandomSource.for_trial(mask, trial), track_alpha=alpha
            )
            counts = trace.critical_counts
            assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_failed_trace_stops_at_the_conflicting_step():
    # whichever of variables 1 and 2 comes first in the permutation meets
    # contradictory unit clauses, at step 1 or 2 of 3
    f = CnfFormula(3, ((1,), (-1,), (2,), (-2,)))
    for seed in range(50):
        outcome, trace = delppz_iteration(f, RandomSource(seed))
        assert outcome.exit is Exit.FAILED
        assert len(trace.steps) < f.num_vars
        assert trace.steps[-1].variable in (1, 2)
        assert all(s.variable == 3 for s in trace.steps[:-1])


def test_tracking_disabled_by_default():
    _, trace = delppz_iteration(xor_chain(1), RandomSource(0))
    assert trace.critical_counts == ()


def test_default_omega():
    import math

    assert default_omega(2) == 6  # ceil(2 * 1.5875^2)
    assert default_omega(9) == math.ceil(9 * 1.5875**9)
    assert default_omega(30, budget_cap=1000) == 1000


def test_default_omega_past_the_float_range():
    # 1.5875 ** 2000 overflows a float; the budget is clipped all the same.
    assert default_omega(2000) == DEFAULT_BUDGET_CAP
    assert default_omega(2000, budget_cap=7) == 7


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_run_finds_satisfying_assignment(algorithm):
    f = CnfFormula(2, ((1, 2),))
    outcome = run(f, algorithm, seed=7, omega=1000)
    assert outcome.exit is not Exit.FAILED
    assert evaluate(f, outcome.assignment)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_run_unsat_returns_failed(algorithm):
    f = CnfFormula(1, ((1,), (-1,)))
    outcome = run(f, algorithm, seed=0, omega=50)
    assert outcome.exit is Exit.FAILED
    assert outcome.assignment is None
    assert outcome.trials == 50


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_run_rejects_zero_omega(algorithm):
    with pytest.raises(ValueError):
        run(CnfFormula(1, ((1,),)), algorithm, seed=0, omega=0)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_run_refuses_a_wide_formula_before_its_first_trial(monkeypatch, algorithm):
    def no_trial(*args, **kwargs):
        raise AssertionError("run started a trial")

    monkeypatch.setattr(combined, "iteration", no_trial)
    with pytest.raises(ValueError, match="run requires a 3-CNF formula"):
        run(CnfFormula(4, ((1, 2, 3, 4),)), algorithm, seed=0, omega=5)


# The broken routines below set every variable False, which falsifies this.
FALSIFIED = CnfFormula(3, ((1, 2, 3),))

ITERATIONS = {
    Algorithm.PPZ: ppz_iteration,
    Algorithm.DEL: del_iteration,
    Algorithm.DELPPZ: delppz_iteration,
}


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_every_returned_assignment_is_checked(monkeypatch, algorithm):
    # The walk is broken for ppz; 2-SAT for del and for delppz's route,
    # which then exits at step 1.  Each path must reach check_satisfies.
    if algorithm is Algorithm.PPZ:
        fixed = dict.fromkeys((1, 2, 3), False)
        monkeypatch.setattr(combined, "walk", lambda *args: (Exit.PPZ, fixed, None))
    else:
        monkeypatch.setattr(
            combined, "solve_2sat_clauses", lambda clauses, n: [False] * (n + 1)
        )
    with pytest.raises(RuntimeError, match="falsifies its input"):
        run(FALSIFIED, algorithm, seed=0, omega=1)
    with pytest.raises(RuntimeError, match="falsifies its input"):
        ITERATIONS[algorithm](FALSIFIED, RandomSource(0))


def test_run_delppz_small_satisfiable():
    f = CnfFormula(2, ((1, 2),))
    successes = 0
    for seed in range(100):
        outcome = run_delppz(f, seed)
        if outcome.exit is not Exit.FAILED:
            successes += 1
            assert evaluate(f, outcome.assignment)
            assert outcome.trials <= 6
    assert successes >= 95


def test_run_delppz_unsat_exhausts_budget():
    f = CnfFormula(1, ((1,), (-1,)))
    outcome = run_delppz(f, seed=3, omega=17)
    assert outcome.exit is Exit.FAILED
    assert outcome.trials == 17


def test_run_delppz_omega_one_equals_single_iteration():
    f = random_3cnf(5, 12, 8)
    for seed in range(50):
        driver = run_delppz(f, seed, omega=1)
        single, _ = delppz_iteration(f, RandomSource.for_trial(seed, 0))
        assert driver.exit == single.exit
        assert driver.assignment == single.assignment


def test_run_delppz_rejects_bad_omega():
    with pytest.raises(ValueError):
        run_delppz(CnfFormula(1, ((1,),)), seed=0, omega=0)


def test_dominance_smoke():
    # single-iteration success of the combination should not fall below
    # either component by more than noise; cheap version of the full check
    from satlab.analysis import Algorithm, estimate_tau

    f = xor_chain(2)
    trials = 5000
    est = {
        algo: estimate_tau(f, algo, trials, seed=17).point
        for algo in Algorithm
    }
    assert est[Algorithm.DELPPZ] >= max(est[Algorithm.PPZ], est[Algorithm.DEL]) - 0.03
