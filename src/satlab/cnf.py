"""CNF formula representation, DIMACS I/O, evaluation and substitution.

Literals are signed integers in DIMACS style: ``v`` for the positive
occurrence of variable ``v`` (1-based), ``-v`` for the negated one.  A
clause is a tuple of literals over pairwise distinct variables; a formula
is an ordered collection of clauses over a fixed variable universe
``1..num_vars``.  Variable indices are stable under substitution, so an
assignment is always a total map over the original universe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

Clause = tuple[int, ...]
Assignment = dict[int, bool]


class DimacsError(ValueError):
    """Raised on malformed or semantically invalid DIMACS input."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for clause in self.clauses:
            if len(clause) == 0:
                raise ValueError("empty clause cannot be stored in a formula")
            seen = set()
            for lit in clause:
                if lit == 0:
                    raise ValueError("0 is not a literal")
                v = abs(lit)
                if v > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
                if v in seen:
                    raise ValueError(f"clause {clause} mentions variable {v} twice")
                seen.add(v)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def max_width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def is_3cnf(self) -> bool:
        return self.max_width() <= 3

    def is_2cnf(self) -> bool:
        return self.max_width() <= 2


@dataclass(frozen=True)
class SubstitutionResult:
    formula: CnfFormula
    conflict: bool


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a formula.

    Duplicate literals within a clause are collapsed; a clause containing a
    variable in both polarities is rejected as tautological.  A mismatch
    between the declared and actual clause count is a warning only.  A line
    that is exactly ``%`` ends the input, as in the SATLIB benchmark files,
    which follow it with a stray ``0``.
    """
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for raw_line in text.replace("\r\n", "\n").split("\n"):
        line = raw_line.strip()
        if line == "%":
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line: {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line: {line!r}") from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"negative counts in problem line: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before problem line: {line!r}")
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise DimacsError(f"bad token {tok!r}") from None
    if num_vars is None:
        raise DimacsError("missing problem line")

    clauses: list[Clause] = []
    current: list[int] = []
    for lit in tokens:
        if lit == 0:
            clauses.append(_normalize_clause(current, num_vars))
            current = []
        else:
            current.append(lit)
    if current:
        raise DimacsError("last clause is not 0-terminated")
    if len(clauses) != declared_clauses:
        warnings.warn(
            f"declared {declared_clauses} clauses, found {len(clauses)}; "
            "using actual count",
            stacklevel=2,
        )
    return CnfFormula(num_vars, tuple(clauses))


def _normalize_clause(literals: list[int], num_vars: int) -> Clause:
    if not literals:
        raise DimacsError("empty clause in input")
    out: list[int] = []
    seen: set[int] = set()
    for lit in literals:
        v = abs(lit)
        if v > num_vars:
            raise DimacsError(f"literal {lit} out of range 1..{num_vars}")
        if -lit in seen:
            raise DimacsError(f"tautological clause {literals}")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def emit_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, alpha: Assignment) -> bool:
    """True iff every clause has at least one satisfied literal under alpha."""
    for clause in formula.clauses:
        for lit in clause:
            if alpha[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


def check_satisfies(formula: CnfFormula, alpha: Assignment) -> None:
    """Raise unless alpha satisfies the formula.

    The one-sided-error gate of every solver path that returns an
    assignment; unlike ``assert`` it survives ``python -O``.
    """
    if not evaluate(formula, alpha):
        raise RuntimeError("solver produced an assignment that falsifies its input")


def substitute(formula: CnfFormula, variable: int, value: bool) -> SubstitutionResult:
    """Apply the assignment ``variable <- value`` to the formula.

    Satisfied clauses are deleted; falsified literals are removed from the
    remaining clauses.  A clause that becomes empty is dropped and reported
    via the conflict flag (the branch is unsatisfiable).  ``num_vars`` is
    unchanged so variable indices stay stable.
    """
    if not 1 <= variable <= formula.num_vars:
        raise ValueError(f"variable {variable} out of range 1..{formula.num_vars}")
    true_lit = variable if value else -variable
    new_clauses, conflict = substitute_clauses(formula.clauses, true_lit)
    return SubstitutionResult(CnfFormula(formula.num_vars, tuple(new_clauses)), conflict)


def substitute_clauses(clauses, true_lit: int):
    """Substitution on a bare clause collection; returns (clauses, conflict).

    Hot-path helper shared by the solver loops, which track clauses as plain
    lists between steps.
    """
    false_lit = -true_lit
    out = []
    conflict = False
    for clause in clauses:
        if true_lit in clause:
            continue
        if false_lit in clause:
            if len(clause) == 1:
                conflict = True
                continue
            clause = tuple(lit for lit in clause if lit != false_lit)
        out.append(clause)
    return out, conflict


def unit_clause_polarity(formula: CnfFormula, variable: int) -> bool | None:
    """Polarity of the first unit clause over ``variable``, if any.

    With contradictory unit clauses (x) and (-x) the earliest in clause
    order wins; the final evaluation gate catches the resulting
    falsification either way.
    """
    for clause in formula.clauses:
        if len(clause) == 1 and abs(clause[0]) == variable:
            return clause[0] > 0
    return None
