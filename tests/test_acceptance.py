"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The statistical checks use 3-sigma margins around
exact oracle values, so nominal flake probability is negligible.
"""

import itertools
import math
import random
import time

import pytest

from satlab.analysis import (
    CROSSOVER_T_AV,
    Algorithm,
    critical_profile,
    enumerate_solutions,
    estimate_tau,
    exact_del_success,
    exact_ppz_success,
)
from satlab.cli import EXIT_SAT, main
from satlab.cnf import CnfFormula, evaluate
from satlab.combined import Exit, delppz_iteration
from satlab.deletion import del_iteration
from satlab.generators import xor_chain
from satlab.ppz import ppz_iteration
from satlab.rng import RandomSource
from satlab.twosat import solve_2sat

from conftest import (
    binomial_sigma,
    brute_force_solutions,
    mask_to_dict,
    random_2cnf,
    satisfiable_corpus,
    unsat_corpus,
)

TRIALS = 200_000


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion, bypassing output capture."""

    def emit(criterion: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: {status} - {detail}")

    return emit


def _all_two_cnf_formulas(n: int, max_m: int):
    """Every clause-set of width-<=2 clauses over n variables, up to max_m."""
    literals = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
    clauses = [(l,) for l in literals]
    for a, b in itertools.combinations(range(1, n + 1), 2):
        for sa in (a, -a):
            for sb in (b, -b):
                clauses.append((sa, sb))
    for m in range(max_m + 1):
        for subset in itertools.combinations(clauses, m):
            yield CnfFormula(n, subset)


def test_criterion_1_twosat_oracle_equivalence(report):
    start = time.perf_counter()
    checked = 0
    mismatches = 0

    def check(formula):
        nonlocal checked, mismatches
        checked += 1
        alpha = solve_2sat(formula)
        solutions = brute_force_solutions(formula)
        if alpha is None:
            if solutions:
                mismatches += 1
        elif not solutions or not evaluate(formula, alpha):
            mismatches += 1

    for n in (1, 2, 3):
        for formula in _all_two_cnf_formulas(n, max_m=4):
            check(formula)
    rng = random.Random(12345)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        check(random_2cnf(n, rng.randint(0, 12), rng))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30
    report(1, ok, f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_2_one_sided_error(report):
    corpus = unsat_corpus(50)
    per_formula = 10_000 // len(corpus)
    false_positives = 0
    for idx, formula in enumerate(corpus):
        for trial in range(per_formula):
            rng = RandomSource.for_trial(1000 + idx, trial)
            alpha, _ = ppz_iteration(formula, rng)
            if alpha is not None:
                false_positives += 1
            rng = RandomSource.for_trial(2000 + idx, trial)
            if del_iteration(formula, rng) is not None:
                false_positives += 1
            rng = RandomSource.for_trial(3000 + idx, trial)
            outcome, _ = delppz_iteration(formula, rng)
            if outcome.exit is not Exit.FAILED:
                false_positives += 1
    ok = false_positives == 0
    report(
        2,
        ok,
        f"{len(corpus)} unsat formulas x {per_formula} iterations x 3 "
        f"algorithms, {false_positives} assignments returned",
    )
    assert false_positives == 0


def test_criterion_3_ppz_exactness_and_bound(report):
    start = time.perf_counter()
    formula = xor_chain(1)
    exact = exact_ppz_success(formula)
    est = estimate_tau(formula, Algorithm.PPZ, TRIALS, seed=42)
    sigma = binomial_sigma(exact, TRIALS)
    elapsed = time.perf_counter() - start
    ok = abs(est.point - exact) <= 3 * sigma and exact >= 0.25 and elapsed < 60
    report(
        3,
        ok,
        f"empirical {est.point:.5f} vs exact {exact:.5f} "
        f"(3 sigma = {3 * sigma:.5f}), bound 0.25, {elapsed:.1f}s",
    )
    assert abs(est.point - exact) <= 3 * sigma
    assert exact >= 0.25
    assert elapsed < 60


def test_criterion_4_del_exactness_and_bound(report):
    start = time.perf_counter()
    details = []
    ok = True
    for m in (1, 2):
        formula = xor_chain(m)
        exact = exact_del_success(formula)
        est = estimate_tau(formula, Algorithm.DEL, TRIALS, seed=43 + m)
        sigma = binomial_sigma(exact, TRIALS)
        bound = (2 / 3) ** (3 * m)
        ok = ok and abs(est.point - exact) <= 3 * sigma and exact >= bound
        details.append(f"m={m}: {est.point:.5f} vs {exact:.5f} (>= {bound:.4f})")
        assert abs(est.point - exact) <= 3 * sigma
        assert exact >= bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    report(4, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_5_combination_dominance(report):
    start = time.perf_counter()
    instances = [("xor1", xor_chain(1)), ("xor2", xor_chain(2))]
    instances += [
        (f"rand{i}", f) for i, f in enumerate(satisfiable_corpus(20))
    ]
    worst_margin = math.inf
    ok = True
    for name, formula in instances:
        p_ppz = estimate_tau(formula, Algorithm.PPZ, TRIALS, seed=51).point
        p_del = estimate_tau(formula, Algorithm.DEL, TRIALS, seed=52).point
        p_combo = estimate_tau(formula, Algorithm.DELPPZ, TRIALS, seed=53).point
        best = max(p_ppz, p_del)
        pooled = math.sqrt(
            p_combo * (1 - p_combo) / TRIALS + best * (1 - best) / TRIALS
        )
        margin = p_combo - (best - 3 * pooled)
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            ok = False
        print(
            f"  {name}: ppz={p_ppz:.4f} del={p_del:.4f} combined={p_combo:.4f}"
        )
        assert margin >= 0, (name, p_ppz, p_del, p_combo)
    elapsed = time.perf_counter() - start
    report(
        5,
        ok,
        f"{len(instances)} instances, worst slack {worst_margin:.5f}, {elapsed:.1f}s",
    )


def test_criterion_6_critical_profiles(report):
    start = time.perf_counter()
    ok = True
    for m in (1, 2, 3):
        formula = xor_chain(m)
        solutions = enumerate_solutions(formula)
        assert len(solutions) == 4**m
        for alpha in solutions.assignments():
            p = critical_profile(formula, alpha, solutions)
            good = (
                p.c == 3 * m
                and p.l == 0
                and p.t_av == 1.0
                and p.c == sum(p.t_per_var.values())
            )
            ok = ok and good
            assert good, (m, alpha, p)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    report(6, ok, f"m in (1,2,3), all profiles c=3m, l=0, t_av=1, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_7_monotone_traces(report):
    formula = xor_chain(2)
    solutions = enumerate_solutions(formula)
    total = 0
    monotone = 0
    for mask in sorted(solutions.masks):
        alpha = mask_to_dict(mask, 6)
        for trial in range(1000):
            _, trace = delppz_iteration(
                formula, RandomSource.for_trial(7000 + mask, trial),
                track_alpha=alpha,
            )
            total += 1
            counts = trace.critical_counts
            if all(a >= b for a, b in zip(counts, counts[1:])):
                monotone += 1
    ok = monotone == total
    report(7, ok, f"{monotone}/{total} traces non-increasing")
    assert monotone == total


def test_criterion_8_forced_variable_expectation(report):
    formula = xor_chain(2)
    trials = 20_000
    unforced = []
    for trial in range(trials):
        alpha, trace = ppz_iteration(formula, RandomSource.for_trial(81, trial))
        if alpha is not None:
            unforced.append(trace.unforced_count())
    mean = sum(unforced) / len(unforced)
    var = sum((d - mean) ** 2 for d in unforced) / max(len(unforced) - 1, 1)
    sem = math.sqrt(var / len(unforced))
    bound = 6 - 6 / 3
    ok = mean <= bound + 3 * sem + 1e-12
    report(
        8,
        ok,
        f"mean unforced {mean:.4f} <= {bound} + 3 SEM ({3 * sem:.4f}) "
        f"over {len(unforced)} traces",
    )
    assert ok


def test_criterion_9_bound_curves(capsys, report):
    assert main(["bounds", "--n", "30", "--s", "1", "--steps", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    with capsys.disabled():
        assert lines[0] == "t_av,ppz_bound,del_bound,delppz_bound"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        first, last = rows[0], rows[-1]
        checks = {
            "del(t_av=1) = 1.5^-30": abs(first[2] - 1.5**-30) / 1.5**-30 < 1e-12,
            "del(crossover) = 2^-20": abs(last[2] - 2.0**-20) / 2.0**-20 < 1e-3,
            "delppz >= components": all(
                row[3] >= max(row[1], row[2]) - 1e-15 for row in rows
            ),
            "crossover constant": abs(CROSSOVER_T_AV - 1.13967) < 1e-5,
        }
        ok = all(checks.values())
        report(9, ok, "; ".join(k for k, v in checks.items() if not v) or "all checks")
        assert all(checks.values()), checks


def test_criterion_10_end_to_end_solve(tmp_path, capsys, report):
    start = time.perf_counter()
    path = tmp_path / "xor3.cnf"
    assert main(["generate", "xor", "--m", "3", "--out", str(path)]) == 0
    successes = 0
    for seed in range(100):
        code = main(["solve", str(path), "--seed", str(seed)])
        out = capsys.readouterr().out
        if code == EXIT_SAT:
            v_line = next(l for l in out.splitlines() if l.startswith("v "))
            lits = [int(t) for t in v_line[2:].split()][:-1]
            assert evaluate(xor_chain(3), {abs(l): l > 0 for l in lits})
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 99 and elapsed < 120
    with capsys.disabled():
        report(10, ok, f"{successes}/100 seeds solved, {elapsed:.1f}s")
    assert successes >= 99
    assert elapsed < 120
