import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlab.analysis import (
    CROSSOVER_T_AV,
    Algorithm,
    assignment_to_mask,
    critical_profile,
    critical_variable,
    del_bound,
    delppz_bound,
    enumerate_solutions,
    estimate_tau,
    exact_del_success,
    exact_ppz_success,
    mask_to_assignment,
    ppz_bound,
    wilson_interval,
)
from satlab.cnf import CnfFormula
from satlab.generators import random_3cnf, xor_chain

from conftest import binomial_sigma, brute_force_solutions, mask_to_dict
from test_cnf import clause_strategy


class TestEnumerateSolutions:
    def test_xor_chain_1(self):
        s = enumerate_solutions(xor_chain(1))
        assert s.masks == frozenset({0b001, 0b010, 0b100, 0b111})

    def test_xor_chain_2(self):
        assert len(enumerate_solutions(xor_chain(2))) == 16

    def test_unsat(self):
        assert len(enumerate_solutions(CnfFormula(1, ((1,), (-1,))))) == 0

    def test_guard_refusal(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_solutions(CnfFormula(30, ()), max_n=24)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10), st.data())
    def test_matches_independent_brute_force(self, n, data):
        # clauses of width 1-3 over variables 1..used; the variables past
        # used occur in no clause
        used = data.draw(st.integers(min_value=0, max_value=n))
        clauses = ()
        if used:
            clauses = data.draw(st.lists(clause_strategy(used), max_size=4 * used))
        f = CnfFormula(n, tuple(clauses))
        assert enumerate_solutions(f).masks == frozenset(brute_force_solutions(f))

    def test_mask_round_trip(self):
        alpha = {1: True, 2: False, 3: True}
        assert mask_to_assignment(assignment_to_mask(alpha, 3), 3) == alpha


class TestCriticalVariable:
    def test_unique_true_literal(self):
        alpha = {1: True, 2: False, 3: False}
        assert critical_variable((1, 2, 3), alpha) == 1

    def test_two_true_literals(self):
        alpha = {1: True, 2: True, 3: False}
        assert critical_variable((1, 2, 3), alpha) is None

    def test_negated_unique_literal(self):
        alpha = {1: True, 2: False, 3: False}
        assert critical_variable((-1, 2, -3), alpha) == 3

    def test_no_true_literal(self):
        assert critical_variable((1, 2), {1: False, 2: False}) is None


class TestCriticalProfile:
    def test_xor_chain_1(self):
        f = xor_chain(1)
        s = enumerate_solutions(f)
        p = critical_profile(f, {1: True, 2: False, 3: False}, s)
        assert p.c == 3
        assert p.t_per_var == {1: 1, 2: 1, 3: 1}
        assert p.l == 0
        assert p.isolation == 3
        assert p.t_av == 1.0
        assert p.t_min == 1

    def test_xor_chain_2_all_solutions(self):
        f = xor_chain(2)
        s = enumerate_solutions(f)
        for alpha in s.assignments():
            p = critical_profile(f, alpha, s)
            assert p.c == 6
            assert p.l == 0
            assert p.t_av == 1.0

    def test_no_critical_clauses(self):
        f = CnfFormula(2, ((1, 2),))
        s = enumerate_solutions(f)
        p = critical_profile(f, {1: True, 2: True}, s)
        assert p.c == 0
        assert p.l == 2
        assert p.t_av is None
        assert p.t_min is None

    def test_non_solution_rejected(self):
        f = xor_chain(1)
        s = enumerate_solutions(f)
        with pytest.raises(ValueError, match="not a solution"):
            critical_profile(f, {1: True, 2: True, 3: False}, s)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_identities_on_random_instances(self, seed):
        f = random_3cnf(6, 12, seed)
        s = enumerate_solutions(f)
        for alpha in s.assignments():
            p = critical_profile(f, alpha, s)
            assert p.c == sum(p.t_per_var.values())
            assert p.c >= p.isolation  # c(alpha) >= n - l(alpha)
            assert p.isolation == 6 - p.l
            if p.c > 0:
                assert p.t_av >= 1.0


class TestBounds:
    def test_ppz_bound_values(self):
        assert ppz_bound(3) == 0.25
        assert math.isclose(ppz_bound(30), 2.0**-20)
        with pytest.raises(ValueError):
            ppz_bound(0)

    def test_del_bound_values(self):
        assert del_bound(0) == 1.0
        assert math.isclose(del_bound(3), 8 / 27)
        assert math.isclose(del_bound(6), 64 / 729)
        with pytest.raises(ValueError):
            del_bound(-1)

    def test_delppz_bound_arithmetic(self):
        got = delppz_bound(30, 1, 1.0)
        assert math.isclose(got, 1.5**-30 + 2.0**-20, rel_tol=1e-12)

    def test_delppz_bound_crossover(self):
        # at t_av = 2/(3*log2(3/2)) the deletion term meets 2^(-2n/3)
        got = delppz_bound(30, 1, CROSSOVER_T_AV)
        assert math.isclose(got, 2 * 2.0**-20, rel_tol=1e-9)
        assert abs(CROSSOVER_T_AV - 1.13967) < 1e-5

    def test_delppz_bound_clamped(self):
        assert delppz_bound(3, 4, 1.0) == 1.0

    def test_delppz_bound_monotonicity_grid(self):
        for n in (10, 20, 30):
            values = [delppz_bound(n, 1, 1.0 + 0.01 * k) for k in range(14)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            by_s = [delppz_bound(n, s, 1.05) for s in (1, 2, 4, 8)]
            assert all(a <= b for a, b in zip(by_s, by_s[1:]))

    def test_delppz_bound_preconditions(self):
        with pytest.raises(ValueError):
            delppz_bound(0, 1, 1.0)
        with pytest.raises(ValueError):
            delppz_bound(3, 0, 1.0)
        with pytest.raises(ValueError):
            delppz_bound(3, 1, 0.5)


class TestWilson:
    def test_extremes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high > 0.0
        low, high = wilson_interval(100, 100)
        assert high == 1.0

    def test_contains_point(self):
        for successes in (1, 10, 50, 99):
            low, high = wilson_interval(successes, 100)
            assert low <= successes / 100 <= high

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(5000, 10000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])


class TestEstimateTau:
    def test_requires_100_trials(self):
        with pytest.raises(ValueError):
            estimate_tau(xor_chain(1), Algorithm.PPZ, 99, 0)

    def test_unsat_is_zero(self):
        f = CnfFormula(1, ((1,), (-1,)))
        for algo in Algorithm:
            est = estimate_tau(f, algo, 200, 1)
            assert est.point == 0.0
            assert est.ci_low == 0.0

    def test_interval_orders(self):
        est = estimate_tau(xor_chain(2), Algorithm.DEL, 500, 2)
        assert 0.0 <= est.ci_low <= est.point <= est.ci_high <= 1.0

    def test_covers_del_oracle(self):
        f = xor_chain(2)
        exact = exact_del_success(f)
        est = estimate_tau(f, Algorithm.DEL, 20000, 3)
        sigma = binomial_sigma(exact, est.trials)
        assert abs(est.point - exact) <= 3 * sigma

    def test_seed_determinism(self):
        a = estimate_tau(xor_chain(2), Algorithm.DELPPZ, 300, 5)
        b = estimate_tau(xor_chain(2), Algorithm.DELPPZ, 300, 5)
        assert a == b

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_rejects_clauses_wider_than_3(self, algo):
        f = CnfFormula(4, ((1, 2, 3, 4), (-1, 2)))
        with pytest.raises(ValueError, match="3-CNF"):
            estimate_tau(f, algo, 100, 0)


class TestExactOracles:
    def test_del_narrow_satisfiable(self):
        assert exact_del_success(CnfFormula(2, ((1, 2),))) == 1.0

    def test_del_xor1_range(self):
        v = exact_del_success(xor_chain(1))
        assert (2 / 3) ** 3 <= v <= 1.0

    def test_del_unsat_zero(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert exact_del_success(f) == 0.0

    def test_del_guard(self):
        with pytest.raises(ValueError, match="guard"):
            exact_del_success(xor_chain(3))  # 12 width-3 clauses

    def test_ppz_forced_single_variable(self):
        assert exact_ppz_success(CnfFormula(1, ((1,),))) == 1.0

    def test_ppz_xor1(self):
        assert exact_ppz_success(xor_chain(1)) >= 0.25

    def test_ppz_unsat_zero(self):
        f = CnfFormula(2, ((1,), (-1,), (2,)))
        assert exact_ppz_success(f) == 0.0

    def test_ppz_guard(self):
        with pytest.raises(ValueError):
            exact_ppz_success(CnfFormula(7, ()))

    def test_ppz_free_variable_half(self):
        # (x1) with one free variable: x1 forced, x2 a fair coin but any
        # value satisfies, so success is 1
        assert exact_ppz_success(CnfFormula(2, ((1,),))) == 1.0

    def test_ppz_two_clause_instance(self):
        # (x1)(x2): each variable forced whenever reached; success 1
        assert exact_ppz_success(CnfFormula(2, ((1,), (2,)))) == 1.0

    def test_ppz_matches_independent_enumeration(self):
        # independent oracle: count the (permutation, coin vector) pairs
        # whose walk, consuming one pre-drawn coin per unforced step, ends
        # in a satisfying assignment
        import itertools

        from satlab.cnf import evaluate, substitute_clauses

        def direct(f):
            n = f.num_vars
            good = 0
            runs = 0
            for perm in itertools.permutations(range(1, n + 1)):
                for coins in itertools.product((False, True), repeat=n):
                    runs += 1
                    clauses = list(f.clauses)
                    alpha = {}
                    for i, v in enumerate(perm):
                        polarity = None
                        for clause in clauses:
                            if len(clause) == 1 and abs(clause[0]) == v:
                                polarity = clause[0] > 0
                                break
                        value = coins[i] if polarity is None else polarity
                        alpha[v] = value
                        clauses, _ = substitute_clauses(
                            clauses, v if value else -v
                        )
                    good += evaluate(f, alpha)
            return good, runs

        formulas = [random_3cnf(4, 9, seed) for seed in range(5)]
        formulas += [
            CnfFormula(3, ((1,), (2, -3), (-1,))),  # contradictory units
            CnfFormula(4, ((1,), (-1, 2), (-2, 3, 4), (-3, -4))),  # forced chain
            CnfFormula(4, ((1, -2), (2, 3), (-1, -3))),  # x4 in no clause
            random_3cnf(5, 12, 1),
            random_3cnf(5, 8, 2),
        ]
        for f in formulas:
            good, runs = direct(f)
            assert exact_ppz_success(f) == good / runs

    def test_bound_dominated_by_oracle_on_satisfiable_instances(self):
        count = 0
        seed = 0
        while count < 10:
            f = random_3cnf(5, 10, seed)
            seed += 1
            if not brute_force_solutions(f):
                continue
            count += 1
            assert exact_ppz_success(f) >= ppz_bound(5)
            sols = enumerate_solutions(f)
            exact_del = exact_del_success(f) if sum(
                1 for c in f.clauses if len(c) == 3
            ) <= 10 else None
            if exact_del is not None:
                for alpha in sols.assignments():
                    p = critical_profile(f, alpha, sols)
                    assert del_bound(p.c) <= exact_del + 1e-12
