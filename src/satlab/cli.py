"""Command-line surface: solve / analyze / estimate / bounds / generate.

Solver output follows SAT-competition conventions: ``s SATISFIABLE`` with
a 0-terminated ``v`` line, exit code 10; ``s UNKNOWN`` with exit code 20
when the trial budget is exhausted (this solver never proves
unsatisfiability).  Input errors exit with code 1.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis
from .cnf import CnfFormula, emit_dimacs, parse_dimacs
from .combined import (
    DEFAULT_BUDGET_CAP,
    Algorithm,
    Exit,
    default_omega,
    run,
    worst_case_omega,
)
from .generators import random_3cnf, xor_chain

EXIT_SAT = 10
EXIT_UNKNOWN = 20
EXIT_ERROR = 1

ALGORITHMS = [a.value for a in Algorithm]
VIA = {Exit.DEL: " via 2-SAT", Exit.PPZ: " via assembled assignment"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satlab",
        description="Randomized 3-SAT solvers with exact oracles and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a DIMACS 3-CNF file")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="delppz")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--omega", type=int, help="number of trials (default n*1.5875^n)")
    p.add_argument("--budget-cap", type=int, default=DEFAULT_BUDGET_CAP)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="per-solution critical-clause profiles")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=analysis.ENUMERATION_GUARD)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="Monte Carlo success-probability estimate")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="delppz")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="bound curves over the t_av range, as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--t-av-min", type=float, default=1.0)
    p.add_argument("--t-av-max", type=float, default=analysis.CROSSOVER_T_AV)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--log", action="store_true", help="emit log10 of the bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("generate", help="write a generated instance as DIMACS")
    p.add_argument("family", choices=["xor", "random"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    return parser


def _load_3cnf(path: str) -> CnfFormula:
    with open(path, encoding="utf-8") as fh:
        formula = parse_dimacs(fh.read())
    if not formula.is_3cnf():
        raise ValueError(f"{path}: formula has clauses wider than 3 literals")
    return formula


def cmd_solve(args) -> int:
    formula = _load_3cnf(args.file)
    n = formula.num_vars
    algorithm = Algorithm(args.algorithm)
    outcome = run(
        formula, algorithm, args.seed, omega=args.omega, budget_cap=args.budget_cap
    )
    alpha, trials = outcome.assignment, outcome.trials
    if alpha is None:
        print("s UNKNOWN")
        print(
            f"c no satisfying assignment found in {trials} trial(s); "
            "this is not an unsatisfiability proof"
        )
        code = EXIT_UNKNOWN
    else:
        via = VIA[outcome.exit] if algorithm is Algorithm.DELPPZ else ""
        print(f"c satisfied{via} after {trials} trial(s)")
        print("s SATISFIABLE")
        lits = [str(v if alpha[v] else -v) for v in range(1, n + 1)]
        print(" ".join(["v", *lits, "0"]))
        code = EXIT_SAT
    if args.omega is None and worst_case_omega(n) > args.budget_cap:
        print(
            f"c trial budget clipped to {default_omega(n, args.budget_cap)}; "
            "the e^-n error bound no longer holds"
        )
    return code


def _alpha_bits(alpha, n: int) -> str:
    return "".join("1" if alpha[v] else "0" for v in range(1, n + 1))


def cmd_analyze(args) -> int:
    formula = _load_3cnf(args.file)
    n = formula.num_vars
    solutions = analysis.enumerate_solutions(formula, max_n=args.max_n)
    profiles = [
        analysis.critical_profile(formula, alpha, solutions)
        for alpha in solutions.assignments()
    ]
    if args.csv:
        print("alpha,c,l,isolation,t_av,t_min")
        for p in profiles:
            t_av = "" if p.t_av is None else f"{p.t_av:.6g}"
            t_min = "" if p.t_min is None else str(p.t_min)
            print(f"{_alpha_bits(p.alpha, n)},{p.c},{p.l},{p.isolation},{t_av},{t_min}")
        return 0
    print(f"|S| = {len(solutions)}")
    if profiles:
        print(f"{'alpha':>{max(n, 5)}}  {'c':>4}  {'l':>4}  {'isolation':>9}  "
              f"{'t_av':>8}  {'t_min':>5}")
        for p in profiles:
            t_av = "-" if p.t_av is None else f"{p.t_av:.4f}"
            t_min = "-" if p.t_min is None else str(p.t_min)
            print(
                f"{_alpha_bits(p.alpha, n):>{max(n, 5)}}  {p.c:>4}  {p.l:>4}  "
                f"{p.isolation:>9}  {t_av:>8}  {t_min:>5}"
            )
        t_avs = [p.t_av for p in profiles if p.t_av is not None]
        if t_avs:
            print(
                f"T_av min/mean/max = {min(t_avs):.4f}/"
                f"{sum(t_avs) / len(t_avs):.4f}/{max(t_avs):.4f}"
            )
    return 0


def cmd_estimate(args) -> int:
    formula = _load_3cnf(args.file)
    algorithm = Algorithm(args.algorithm)
    est = analysis.estimate_tau(formula, algorithm, args.trials, args.seed)
    row = (est.point, est.ci_low, est.ci_high)
    row += (_oracle_value(formula, algorithm), _bound_value(formula, algorithm))
    print("point,ci_low,ci_high,oracle,bound")
    print(",".join("" if x is None else f"{x:.6g}" for x in row))
    return 0


def _oracle_value(formula: CnfFormula, algorithm: Algorithm) -> float | None:
    try:
        if algorithm is Algorithm.PPZ:
            return analysis.exact_ppz_success(formula)
        if algorithm is Algorithm.DEL:
            return analysis.exact_del_success(formula)
    except ValueError:
        return None
    return None


def _bound_value(formula: CnfFormula, algorithm: Algorithm) -> float | None:
    n = formula.num_vars
    if algorithm is Algorithm.PPZ:
        return analysis.ppz_bound(n)
    if n > analysis.ENUMERATION_GUARD:
        return None
    solutions = analysis.enumerate_solutions(formula)
    if not solutions.masks:
        return None
    profiles = [
        analysis.critical_profile(formula, alpha, solutions)
        for alpha in solutions.assignments()
    ]
    if algorithm is Algorithm.DEL:
        # best per-solution lower bound
        return max(analysis.del_bound(p.c) for p in profiles)
    if any(p.c == 0 for p in profiles):
        return 1.0
    t_av = max(p.t_av for p in profiles)
    return analysis.delppz_bound(n, len(solutions), t_av)


def cmd_bounds(args) -> int:
    lo, hi = args.t_av_min, args.t_av_max
    eps = 1e-9
    if lo < 1.0 - eps or hi > analysis.CROSSOVER_T_AV + eps or lo > hi:
        raise ValueError(
            f"t_av range must lie within [1, {analysis.CROSSOVER_T_AV:.5f}]"
        )
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    n, s = args.n, args.s
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    print("t_av,ppz_bound,del_bound,delppz_bound")
    ppz = analysis.ppz_bound(n)
    for k in range(args.steps + 1):
        t_av = lo + (hi - lo) * k / args.steps
        if args.log:
            row = _log10_bounds(n, s, t_av)
        else:
            del_b = analysis.del_bound(t_av * n)  # c = t_av * n in the s=1, l=0 regime
            row = (ppz, del_b, analysis.delppz_bound(n, s, t_av))
        print(f"{t_av:.6f}," + ",".join(f"{x:.12g}" for x in row))
    return 0


def _log10_bounds(n: int, s: int, t_av: float) -> tuple[float, float, float]:
    """log10 of the three bounds, computed in the log domain: the bounds
    themselves underflow to 0 from n = 1,613 on."""
    log_ppz = -2.0 * n / 3.0 * math.log10(2.0)
    log_del = t_av * n * math.log10(2.0 / 3.0)
    # delppz_bound's two terms, s (2/3)^(t_av n) and s^(2/3) 2^(-2n/3)
    a, b = math.log10(s) + log_del, 2.0 / 3.0 * math.log10(s) + log_ppz
    log_sum = max(a, b) + math.log10(1.0 + 10.0 ** -abs(a - b))
    return log_ppz, log_del, min(0.0, log_sum)  # clamped at 1, as delppz_bound


def cmd_generate(args) -> int:
    if args.family == "xor":
        formula = xor_chain(args.m)
    else:
        if args.n is None:
            raise ValueError("random family requires --n")
        formula = random_3cnf(args.n, args.m, args.seed)
    text = emit_dimacs(formula)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
