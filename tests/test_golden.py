"""Golden per-trial outcomes of every solver entry point and of ``run``.

The literals below were recorded before the permutation walk and the trial
drivers were merged, so they hold any later refactor to bit-identical
outcomes for the same (seed, trial).
"""

import pytest

from satlab.combined import Algorithm, Exit, delppz_iteration, run
from satlab.deletion import del_iteration
from satlab.generators import random_3cnf, xor_chain
from satlab.ppz import ppz_iteration
from satlab.rng import RandomSource

SEED = 5
TRIALS = 200

INSTANCES = {
    "xor2": xor_chain(2),
    "r7": random_3cnf(7, 26, 0),
    "r8": random_3cnf(8, 30, 2),
    "unsat": random_3cnf(7, 45, 0),
}

# Bit t is set when trial t of (SEED, t) succeeds.
BITS = {
    "xor2": {
        "ppz": 0xffffffffffffffffffffffffffffffffffffffffffffffffff,
        "del": 0xfefdf7b6fddfefebfffdeded77ffcff9dffbb9d7f71fbf4ef6,
        "delppz": 0xffffffffffffffffffffffffffffffffffffffffffffffffff,
    },
    "r7": {
        "ppz": 0x94274f8b030148007811202400205e050c404004b2560c0143,
        "del": 0x8804180940c10000421000000108400280401a8820030061,
        "delppz": 0x22afa4fa1bcde91fff8f510eaefaffe443bb3e76fa1db7639c,
    },
    "r8": {
        "ppz": 0x406008006020888042324a020a0000442240c208080102902,
        "del": 0x5008841002040000130001012004030080800000002004000,
        "delppz": 0xd75477c6877c7bf9b545927ffee368ebfe4adf51727e3dbb16,
    },
    "unsat": {"ppz": 0x0, "del": 0x0, "delppz": 0x0},
}

# delppz exit per trial: the deletion-route step as a digit, P for the
# assembled assignment, F for a failed iteration.
DELPPZ_EXITS = {
    "xor2": (
        "11111121111111211111211111112111112111112222111111"
        "11112112211121122111113111211111111111111111111111"
        "11111112111111211111111111122121111111212111111111"
        "11111111111111111111111111122111111111211111111211"
    ),
    "r7": (
        "FF632FF212FFF31F323F22F31F324FFFF1F12312F32F422FF5"
        "3125FF15F322F243FFFF2FFF1FF45123515412F4F32232F441"
        "F3F2F233FFFF5FFF1F2F3311FFF33114144232134FFF3FF3F2"
        "212F42FF1413F31FFFF4F32321FF3FF2F22421F4F1F3FFF4FF"
    ),
    "r8": (
        "F23F3FFF34F433F22F3235FFF253213FF3FF432F2FFF2F4F43"
        "422F32F3F2FF3FF413241221F2F341FFF3F22F33FFF315F442"
        "34313532413FF2FF4FF34F3FFF3F4F2F22F22FF5132153F233"
        "2FFF31352F212FFFF3F32FFF33253F213FFF1F2F3F442F3F32"
    ),
    "unsat": "F" * TRIALS,
}

# run(formula, algorithm, seed) for seeds 0..4 as (trials, exit); the
# unsatisfiable instance runs with omega = 10.
RUNS = {
    "xor2": {
        "ppz": [(1, "ppz"), (1, "ppz"), (1, "ppz"), (1, "ppz"), (1, "ppz")],
        "del": [(1, "del"), (1, "del"), (1, "del"), (4, "del"), (1, "del")],
        "delppz": [(1, "del"), (1, "del"), (1, "del"), (1, "del"), (1, "del")],
    },
    "r7": {
        "ppz": [(2, "ppz"), (4, "ppz"), (1, "ppz"), (5, "ppz"), (2, "ppz")],
        "del": [(3, "del"), (1, "del"), (1, "del"), (2, "del"), (5, "del")],
        "delppz": [(4, "del"), (3, "del"), (1, "del"), (1, "del"), (1, "del")],
    },
    "r8": {
        "ppz": [(4, "ppz"), (10, "ppz"), (1, "ppz"), (7, "ppz"), (5, "ppz")],
        "del": [(1, "del"), (6, "del"), (3, "del"), (3, "del"), (2, "del")],
        "delppz": [(3, "del"), (1, "del"), (2, "del"), (2, "del"), (1, "del")],
    },
    "unsat": {alg: [(10, "failed")] * 5 for alg in ("ppz", "del", "delppz")},
}


def _succeeds(algorithm, formula, rng):
    if algorithm == "ppz":
        return ppz_iteration(formula, rng)[0] is not None
    if algorithm == "del":
        return del_iteration(formula, rng) is not None
    return delppz_iteration(formula, rng)[0].exit is not Exit.FAILED


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("algorithm", ["ppz", "del", "delppz"])
def test_success_bits(name, algorithm):
    formula = INSTANCES[name]
    bits = 0
    for t in range(TRIALS):
        if _succeeds(algorithm, formula, RandomSource.for_trial(SEED, t)):
            bits |= 1 << t
    assert bits == BITS[name][algorithm]


@pytest.mark.parametrize("name", INSTANCES)
def test_delppz_exit_steps(name):
    formula = INSTANCES[name]
    exits = []
    for t in range(TRIALS):
        outcome, _ = delppz_iteration(formula, RandomSource.for_trial(SEED, t))
        if outcome.exit is Exit.DEL:
            exits.append(str(outcome.exit_step))
        else:
            exits.append(outcome.exit.value[0].upper())
    assert "".join(exits) == DELPPZ_EXITS[name]


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("algorithm", ["ppz", "del", "delppz"])
def test_run_trials_and_exit(name, algorithm):
    formula = INSTANCES[name]
    omega = 10 if name == "unsat" else None
    got = []
    for seed in range(5):
        outcome = run(formula, Algorithm(algorithm), seed, omega=omega)
        got.append((outcome.trials, outcome.exit.value))
    assert got == RUNS[name][algorithm]
