#!/usr/bin/env python3
"""Compare per-iteration success of the three solvers on a small test bed.

For each instance the script estimates the success probability of the
permutation solver, the deletion solver, and the combined solver, and
prints exact oracle values where their guards permit.

Example:
    python scripts/compare_algorithms.py --trials 50000 --seed 7
"""

import argparse
import sys

from satlab.analysis import (
    Algorithm,
    estimate_tau,
    exact_del_success,
    exact_ppz_success,
)
from satlab.generators import random_3cnf, xor_chain


def build_instances(seed):
    instances = [("xor_m1", xor_chain(1)), ("xor_m2", xor_chain(2))]
    for i in range(4):
        n = 5 + i
        m = 2 * n + 2
        instances.append((f"rand_n{n}_m{m}", random_3cnf(n, m, seed + i)))
    return instances


def oracle_or_blank(fn, formula):
    try:
        return f"{fn(formula):.4f}"
    except ValueError:
        return "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    header = (
        f"{'instance':<14} {'ppz':>8} {'del':>8} {'delppz':>8} "
        f"{'ppz*':>8} {'del*':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, formula in build_instances(args.seed):
        row = [name]
        for algo in (Algorithm.PPZ, Algorithm.DEL, Algorithm.DELPPZ):
            est = estimate_tau(formula, algo, args.trials, args.seed)
            row.append(f"{est.point:.4f}")
        row.append(oracle_or_blank(exact_ppz_success, formula))
        row.append(oracle_or_blank(exact_del_success, formula))
        print(f"{row[0]:<14} {row[1]:>8} {row[2]:>8} {row[3]:>8} "
              f"{row[4]:>8} {row[5]:>8}")
    print("\n(* exact oracle; '-' where its guard refuses)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
