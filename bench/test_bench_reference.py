"""Tests of the benchmark's own reference computations, instances and tracer.

The references must equal satlab's enumerating oracles wherever their
guards allow, and the closed forms on the parity chains.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import instances
import reference
from satlab import analysis, generators
from satlab.cnf import CnfFormula, parse_dimacs

ROOT = Path(__file__).resolve().parent.parent


def small_random(count, n_range, m_range, seed=0):
    rnd = random.Random(seed)
    return [
        generators.random_3cnf(rnd.choice(n_range), rnd.choice(m_range), rnd.getrandbits(32))
        for _ in range(count)
    ]


def brute_force(formula):
    return [
        mask for mask in range(1 << formula.num_vars)
        if reference.satisfies(formula.clauses, mask)
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xor_chain_closed_forms(m):
    f = generators.xor_chain(m)
    sols = reference.solutions(f.num_vars, f.clauses)
    assert len(sols) == 4**m
    assert set(reference.critical_counts(f.num_vars, f.clauses, sols).values()) == {(3 * m, 0)}
    good, w = reference.del_success(f.clauses, sols)
    assert Fraction(good, 3**w) == Fraction(8, 9) ** m
    if m <= 3:
        assert reference.ppz_success(f.num_vars, f.clauses) == 1


def test_solutions_and_critical_counts_match_satlab():
    for f in small_random(12, range(3, 11), range(0, 40)) + [generators.xor_chain(3)]:
        sols = reference.solutions(f.num_vars, f.clauses)
        assert sols == brute_force(f)
        found = analysis.enumerate_solutions(f)
        assert set(sols) == set(found.masks)
        counts = reference.critical_counts(f.num_vars, f.clauses, sols)
        for alpha in found.assignments():
            p = analysis.critical_profile(f, alpha, found)
            assert counts[analysis.assignment_to_mask(alpha, f.num_vars)] == (p.c, p.l)


def test_del_reference_matches_oracle():
    formulas = small_random(10, range(3, 10), range(1, 9), seed=1)
    formulas.append(generators.xor_chain(2))
    formulas.append(CnfFormula(4, ((1, 2), (-1, 3, 4), (-2,), (2, -3, -4))))
    for f in formulas:
        good, w = reference.del_success(f.clauses, reference.solutions(f.num_vars, f.clauses))
        assert good / 3**w == analysis.exact_del_success(f)


def test_ppz_reference_matches_oracle():
    formulas = small_random(10, range(3, 7), range(1, 20), seed=2)
    formulas += [generators.xor_chain(1), generators.xor_chain(2)]
    formulas.append(CnfFormula(4, ((1,), (-1, 2), (-2, 3, 4), (-3, -4))))
    for f in formulas:
        value = reference.ppz_success(f.num_vars, f.clauses)
        assert abs(float(value) - analysis.exact_ppz_success(f)) <= 1e-12


def test_estimate_bed_restates_the_test_corpus():
    spec = importlib.util.spec_from_file_location(
        "satlab_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    bed = instances.estimate_bed(generators, 20)
    assert [f for _, f in bed[:2]] == [generators.xor_chain(1), generators.xor_chain(2)]
    assert [f for _, f in bed[2:]] == conftest.satisfiable_corpus(20)


def test_planted_and_unsatisfiable_instances():
    rnd = random.Random(3)
    for _ in range(5):
        clauses = instances.planted(10, 45, rnd)
        assert len(clauses) == 45 and reference.solutions(10, clauses)
        clauses = instances.unsatisfiable(10, 20, rnd)
        assert len(clauses) == 28 and not reference.solutions(10, clauses)
        text = instances.dimacs(10, clauses)
        assert parse_dimacs(text) == CnfFormula(10, tuple(clauses))


def test_tracer_counts_spans_and_restores_functions():
    import tracer
    from satlab import deletion, rng

    originals = (deletion.delete_clauses, analysis._SUCCESS_FN[analysis.Algorithm.DEL],
                 rng.RandomSource.__dict__["for_trial"])
    t = tracer.Tracer()
    t.install()
    try:
        f = generators.xor_chain(2)
        analysis.estimate_tau(f, analysis.Algorithm.DEL, 100, seed=1)
        analysis.exact_del_success(f)
    finally:
        t.uninstall()
    assert (deletion.delete_clauses, analysis._SUCCESS_FN[analysis.Algorithm.DEL],
            rng.RandomSource.__dict__["for_trial"]) == originals
    spans = t.data()["spans"]
    assert spans["rng.for_trial"][0] == 100
    assert spans["deletion.del_success"][0] == 100
    assert spans["deletion.delete_clauses"][0] == 100
    assert spans["twosat.solve_2sat_clauses"][0] == 100 + 3**8
    assert t.counts["analysis.exact_del_2sat_calls"] == 3**8
    assert t.counts["rng.draws"] == 100 * 8
    count, total, self_s = spans["analysis.estimate_tau"]
    assert count == 1 and 0 < self_s < total
