import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlab.cnf import (
    CnfFormula,
    DimacsError,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    substitute,
    unit_clause_polarity,
)
from satlab.generators import xor_chain

from conftest import brute_force_solutions, mask_to_dict


def clause_strategy(n):
    return (
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=1, max_size=3, unique=True
        )
        .flatmap(
            lambda vs: st.tuples(
                *[st.sampled_from((v, -v)) for v in vs]
            )
        )
    )


def formula_strategy(max_n=6, max_m=10):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(clause_strategy(n), max_size=max_m).map(
            lambda cs: CnfFormula(n, tuple(cs))
        )
    )


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert f.num_vars == 2
        assert f.clauses == ((1, -2),)

    def test_vacuous(self):
        f = parse_dimacs("p cnf 1 0")
        assert f.num_vars == 1
        assert f.clauses == ()

    def test_tautological_clause_rejected(self):
        with pytest.raises(DimacsError, match="tautological"):
            parse_dimacs("p cnf 2 1\n1 -1 0")

    def test_duplicate_literals_collapsed(self):
        f = parse_dimacs("p cnf 2 1\n1 1 -2 0")
        assert f.clauses == ((1, -2),)

    def test_comments_and_crlf(self):
        f = parse_dimacs("c hello\r\np cnf 3 2\r\n1 2 3 0\r\n-1 -2 0\r\n")
        assert f.clauses == ((1, 2, 3), (-1, -2))

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declared"):
            f = parse_dimacs("p cnf 2 5\n1 2 0")
        assert f.num_clauses == 1

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p dnf 2 1\n1 0")
        with pytest.raises(DimacsError):
            parse_dimacs("1 0\n")

    def test_out_of_range_literal(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="0-terminated"):
            parse_dimacs("p cnf 2 1\n1 2")

    def test_satlib_end_marker(self):
        text = "c uf-style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_dimacs(text)
        assert f == CnfFormula(3, ((1, -2, 3), (-1, 2)))

    def test_data_before_problem_line_rejected_with_end_marker(self):
        with pytest.raises(DimacsError, match="before problem line"):
            parse_dimacs("1 2 0\np cnf 2 1\n1 2 0\n%\n0\n")


class TestEmitDimacs:
    def test_empty(self):
        assert emit_dimacs(CnfFormula(3, ())) == "p cnf 3 0\n"

    def test_one_clause(self):
        assert emit_dimacs(CnfFormula(2, ((1, -2),))) == "p cnf 2 1\n1 -2 0\n"

    def test_xor_chain_round_trip(self):
        f = xor_chain(1)
        assert parse_dimacs(emit_dimacs(f)) == f

    @settings(max_examples=200)
    @given(formula_strategy())
    def test_round_trip_property(self, f):
        assert parse_dimacs(emit_dimacs(f)) == f


class TestEvaluate:
    def test_empty_formula_true(self):
        assert evaluate(CnfFormula(2, ()), {1: False, 2: True})

    def test_falsified_unit(self):
        assert not evaluate(CnfFormula(1, ((1,),)), {1: False})

    def test_xor_chain_solutions(self):
        f = xor_chain(1)
        assert evaluate(f, {1: True, 2: False, 3: False})
        assert brute_force_solutions(f) == {0b001, 0b010, 0b100, 0b111}


class TestSubstitute:
    def test_satisfied_removed_and_shrink(self):
        f = CnfFormula(3, ((1, 2), (-1, 3)))
        res = substitute(f, 1, True)
        assert res.formula.clauses == ((3,),)
        assert not res.conflict
        assert res.formula.num_vars == 3

    def test_empty_clause_conflict(self):
        res = substitute(CnfFormula(1, ((1,),)), 1, False)
        assert res.conflict
        assert res.formula.clauses == ()

    def test_xor_chain_substitution(self):
        res = substitute(xor_chain(1), 1, True)
        # x1 true reduces the odd-parity triple to x2 == x3
        assert set(res.formula.clauses) == {(2, -3), (-2, 3)}
        assert not res.conflict

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            substitute(CnfFormula(2, ()), 3, True)

    @settings(max_examples=200)
    @given(formula_strategy(), st.data())
    def test_soundness_against_brute_force(self, f, data):
        variable = data.draw(st.integers(min_value=1, max_value=f.num_vars))
        value = data.draw(st.booleans())
        res = substitute(f, variable, value)
        before = brute_force_solutions(f)
        expected = {
            m for m in before if bool((m >> (variable - 1)) & 1) == value
        }
        if res.conflict:
            # this branch has no solutions of the original formula
            assert not expected
        else:
            # the residual never mentions the substituted variable, so its
            # solution set restricted to the branch value is exactly the
            # original branch solutions
            after = brute_force_solutions(res.formula)
            bit = 1 << (variable - 1)
            restricted = {m for m in after if bool(m & bit) == value}
            assert restricted == expected

    @settings(max_examples=100)
    @given(formula_strategy(), st.data())
    def test_widths_and_counts_never_grow(self, f, data):
        variable = data.draw(st.integers(min_value=1, max_value=f.num_vars))
        value = data.draw(st.booleans())
        res = substitute(f, variable, value)
        assert res.formula.num_clauses <= f.num_clauses
        assert res.formula.max_width() <= max(f.max_width(), 1)


class TestUnitClausePolarity:
    def test_negative_unit(self):
        f = CnfFormula(2, ((1, 2), (-2,)))
        assert unit_clause_polarity(f, 2) is False

    def test_absent(self):
        f = CnfFormula(2, ((1, 2),))
        assert unit_clause_polarity(f, 1) is None

    def test_contradictory_units_first_wins(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert unit_clause_polarity(f, 1) is True
        g = CnfFormula(1, ((-1,), (1,)))
        assert unit_clause_polarity(g, 1) is False


class TestCnfFormulaValidation:
    def test_rejects_repeated_variable(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, -1),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((3,),))

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((),))

    def test_width_predicates(self):
        f = CnfFormula(3, ((1, 2, 3),))
        assert f.is_3cnf() and not f.is_2cnf()
