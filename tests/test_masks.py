"""The solution-mask kernel against the walk-based success functions.

``SolutionMasks.success`` must give every (seed, trial) the outcome that
``ppz_success``, ``del_success`` and ``delppz_success`` give it, because
``estimate_tau`` runs its trials on the kernel up to ``KERNEL_MAX_N``
variables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlab import analysis
from satlab.analysis import (
    Algorithm,
    TauEstimate,
    enumerate_solutions,
    estimate_tau,
    wilson_interval,
)
from satlab.cnf import CnfFormula
from satlab.combined import SolutionMasks
from satlab.generators import random_3cnf, xor_chain
from satlab.rng import RandomSource

from conftest import satisfiable_corpus
from test_golden import BITS, INSTANCES, SEED, TRIALS

WALK_FN = {
    Algorithm.PPZ: analysis.ppz_success,
    Algorithm.DEL: analysis.del_success,
    Algorithm.DELPPZ: analysis.delppz_success,
}

CASES = {"xor1": xor_chain(1), "xor2": xor_chain(2)}
CASES.update((f"rand{i}", f) for i, f in enumerate(satisfiable_corpus(20)))
CASES["unsat"] = random_3cnf(7, 45, 0)
CASES["mixed"] = CnfFormula(
    6,
    ((1,), (-1, 2), (2, -3, 4), (3, 4, 5), (-5, 6), (1, -2, 6), (3, -6, 5), (-4, 6)),
)
# The first unit clause over 2 forces it; the second then conflicts.
CASES["contradictory"] = CnfFormula(4, ((1, 2, 3), (2,), (-2,), (-1, 3, 4)))


def _kernel(formula):
    return SolutionMasks(formula, enumerate_solutions(formula).masks)


def _outcomes(succeeds, seed, trials):
    return [succeeds(RandomSource.for_trial(seed, t)) for t in range(trials)]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_kernel_matches_walk_trial_by_trial(name, algorithm):
    formula = CASES[name]
    kernel = _kernel(formula)
    walk = _outcomes(lambda rng: WALK_FN[algorithm](formula, rng), 11, 200)
    masked = _outcomes(lambda rng: kernel.success(algorithm, rng), 11, 200)
    assert masked == walk


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_kernel_reproduces_golden_bits(name, algorithm):
    kernel = _kernel(INSTANCES[name])
    bits = 0
    for t, ok in enumerate(
        _outcomes(lambda rng: kernel.success(algorithm, rng), SEED, TRIALS)
    ):
        bits |= ok << t
    assert bits == BITS[name][algorithm.value]


@st.composite
def mixed_width_formulas(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        width = draw(st.integers(min_value=1, max_value=min(3, n)))
        variables = draw(st.permutations(range(1, n + 1)))[:width]
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(tuple(v if s else -v for v, s in zip(variables, signs)))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=80, deadline=None)
@given(mixed_width_formulas(), st.integers(min_value=0, max_value=2**32))
def test_kernel_matches_walk_on_random_formulas(formula, seed):
    kernel = _kernel(formula)
    for algorithm in Algorithm:
        walk = _outcomes(lambda rng: WALK_FN[algorithm](formula, rng), seed, 30)
        masked = _outcomes(lambda rng: kernel.success(algorithm, rng), seed, 30)
        assert masked == walk, algorithm


def _plain_estimate(formula, algorithm, trials, seed):
    successes = sum(
        _outcomes(lambda rng: WALK_FN[algorithm](formula, rng), seed, trials)
    )
    low, high = wilson_interval(successes, trials)
    point = successes / trials
    return TauEstimate(successes, trials, point, min(low, point), max(high, point))


@pytest.mark.parametrize("algorithm", list(Algorithm))
@pytest.mark.parametrize(
    "formula, kernel", [(random_3cnf(9, 34, 5), True), (random_3cnf(10, 38, 4), False)]
)
def test_estimate_tau_equals_plain_loop_on_both_sides_of_the_gate(
    monkeypatch, algorithm, formula, kernel
):
    assert (formula.num_vars <= analysis.KERNEL_MAX_N) == kernel
    trials = 100
    scans = []
    real_scan = analysis.enumerate_solutions
    monkeypatch.setattr(
        analysis, "enumerate_solutions", lambda f: scans.append(f) or real_scan(f)
    )
    got = estimate_tau(formula, algorithm, trials, seed=21)
    assert scans == ([formula] if kernel else [])
    assert got == _plain_estimate(formula, algorithm, trials, 21)
    assert 0 < got.successes < trials


def test_estimate_tau_calls_a_replaced_success_function(monkeypatch):
    calls = []

    def counted(formula, rng):
        calls.append(rng.seed)
        return WALK_FN[Algorithm.DEL](formula, rng)

    monkeypatch.setitem(analysis._SUCCESS_FN, Algorithm.DEL, counted)
    est = estimate_tau(xor_chain(2), Algorithm.DEL, 100, seed=1)
    assert len(calls) == 100
    assert est == _plain_estimate(xor_chain(2), Algorithm.DEL, 100, 1)
