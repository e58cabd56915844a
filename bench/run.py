"""satlab benchmark: tau estimation, CLI solving and exact analysis.

Usage (from the repository root):

    python3 bench/run.py --workload {estimate,solve,exact} --seed N \
        --seconds S --trace {0,1}

Every round runs three parts, and the workload decides which part runs at
full size; the other two run a small fixed set so that every workload
reports every end-to-end metric.

- estimate: ``analysis.estimate_tau`` for ppz, del and delppz on the
  22-instance bed of the dominance criterion.
- solve: ``python3 -m satlab.cli solve FILE`` processes, one at a time,
  on planted satisfiable files, fixed-budget unsatisfiable files and the
  SATLIB-trailer twins.
- exact: ``exact_del_success``, ``exact_ppz_success`` and the analyze
  path (``enumerate_solutions`` then ``critical_profile`` per solution).

Rounds repeat until ``--seconds`` have passed (at least MIN_ROUNDS).
Every output is checked against ``reference`` or against a property the
method must have.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the metric definitions.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import instances  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ALGORITHMS = ("ppz", "del", "delppz")
PARTS = ("estimate", "solve", "exact")
MIN_ROUNDS = 4
SIGMA_MARGIN = 5.0
TAIL_QUARTILE = 3  # solve_tail_s is the third quartile (p75)
PROCESS_TIMEOUT_S = 60

# estimate: trials per (instance, algorithm) per round, at full and small size.
ESTIMATE_TRIALS = {"full": 400, "small": 100}

# solve: (n, clauses) of the planted files per algorithm, chosen so that a
# solve takes tens to thousands of trials; unsatisfiable files get the
# same random clauses plus the eight sign patterns over one triple, and
# run with a fixed --omega worth about 0.4 s of trials.
PLANTED = {"ppz": (30, 90), "del": (24, 67), "delppz": (24, 84)}
OMEGA = {"ppz": 1000, "del": 2500, "delppz": 150}
# (planted files per algorithm, with unsatisfiable file and SATLIB twin)
SOLVE_JOBS = {"full": (2, True), "small": (2, False)}
SATLIB_TRAILER = "%\n0\n"

# exact, at full size: analyze runs on planted instances at this clause
# density and n; xor_chain(7) (n = 21, 16384 solutions) is added.
ANALYZE_N = (20,)
ANALYZE_DENSITY = 4.26

TRIALS_RE = re.compile(r"(?:after|in) (\d+) trial\(s\)")

METRIC_UNITS = {
    "setup_s": "s",
    "ppz_trials_per_s": "trials/s",
    "del_trials_per_s": "trials/s",
    "delppz_trials_per_s": "trials/s",
    "solve_s": "s",
    "solve_tail_s": "s",
    "exact_del_s": "s",
    "exact_ppz_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


def sub_seed(*parts) -> int:
    """A 62-bit seed that is a pure function of its labelled parts."""
    return random.Random("/".join(map(str, parts))).getrandbits(62)


def mask_of(alpha) -> int:
    return sum(1 << (v - 1) for v, value in alpha.items() if value)


class Checks:
    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.size = {p: "full" if p == workload else "small" for p in PARTS}
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        import satlab
        from satlab import analysis, cnf, generators

        if Path(satlab.__file__).resolve().parent != (SRC / "satlab").resolve():
            raise RuntimeError(f"imported satlab from {satlab.__file__}, not {SRC}")
        self.analysis = analysis
        self.cnf = cnf
        self.generators = generators
        self.bed = instances.estimate_bed(generators, 20)
        self.exact = self._exact_instances()
        self.jobs = self._solve_files()

    def _exact_instances(self):
        g = self.generators
        xor2 = g.xor_chain(2)
        if self.size["exact"] == "small":
            return {"del": [xor2], "ppz": [xor2], "analyze": [g.xor_chain(6)]}
        rnd = random.Random(sub_seed(self.seed, "exact"))
        analyze = []
        for n in ANALYZE_N:
            clauses = instances.planted(n, round(ANALYZE_DENSITY * n), rnd)
            analyze.append(self.cnf.CnfFormula(n, tuple(clauses)))
        analyze.append(g.xor_chain(7))
        return {
            "del": [
                xor2,
                g.random_3cnf(8, 9, rnd.getrandbits(32)),
            ],
            "ppz": [
                xor2,
                g.random_3cnf(5, 12, rnd.getrandbits(32)),
                g.random_3cnf(6, 14, rnd.getrandbits(32)),
                g.random_3cnf(6, 18, rnd.getrandbits(32)),
            ],
            "analyze": analyze,
        }

    def _solve_files(self):
        """Write the DIMACS files; return the jobs of one round in order.

        A job is (kind, algorithm, path, n, clauses, seed label).  At full
        size, planted file 0 of each algorithm and its SATLIB twin come
        from a fixed seed, so the failing operation does not depend on
        --seed.
        """
        planted_count, with_unsat = SOLVE_JOBS[self.size["solve"]]
        jobs = []
        for alg in ALGORITHMS:
            n, m = PLANTED[alg]
            for k in range(planted_count):
                fixed = k == 0 and with_unsat
                label = ("fixed", alg, k) if fixed else (self.seed, alg, k)
                clauses = instances.planted(n, m, random.Random(sub_seed(*label)))
                text = instances.dimacs(n, clauses)
                path = self._write(f"{alg}-planted{k}.cnf", text)
                jobs.append(("planted", alg, path, n, clauses, label))
                if fixed:
                    twin = self._write(f"{alg}-planted0-satlib.cnf", text + SATLIB_TRAILER)
                    jobs.append(("twin", alg, twin, n, clauses, label))
            if with_unsat:
                rnd = random.Random(sub_seed(self.seed, alg, "unsat"))
                clauses = instances.unsatisfiable(n, m, rnd)
                path = self._write(f"{alg}-unsat.cnf", instances.dimacs(n, clauses))
                jobs.append(("unsat", alg, path, n, clauses, (self.seed, alg, "unsat")))
        return jobs

    def _write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    # -- references (not timed) -------------------------------------------

    def references(self) -> None:
        self.bed_ref = []
        for _, f in self.bed:
            sols = reference.solutions(f.num_vars, f.clauses)
            good, w = reference.del_success(f.clauses, sols)
            self.bed_ref.append(
                {"ppz": float(reference.ppz_success(f.num_vars, f.clauses)),
                 "del": good / 3**w}
            )
        self.exact_ref = {"del": [], "ppz": [], "analyze": []}
        for f in self.exact["del"]:
            sols = reference.solutions(f.num_vars, f.clauses)
            self.exact_ref["del"].append(reference.del_success(f.clauses, sols))
        for f in self.exact["ppz"]:
            self.exact_ref["ppz"].append(float(reference.ppz_success(f.num_vars, f.clauses)))
        for f in self.exact["analyze"]:
            sols = reference.solutions(f.num_vars, f.clauses)
            self.exact_ref["analyze"].append(
                reference.critical_counts(f.num_vars, f.clauses, sols)
            )

    # -- one round --------------------------------------------------------

    def round(self, r: int, traced: bool) -> dict:
        # op_s maps each timed operation of the round to its seconds.
        rec = {"attempted": 0, "failed": 0, "wall_s": 0.0, "op_s": {}}
        t0 = time.perf_counter()
        self._estimate(r, rec)
        self._solve(r, rec, traced)
        self._exact(rec)
        rec["wall_s"] = time.perf_counter() - t0
        return rec

    def _estimate(self, r: int, rec: dict) -> None:
        analysis = self.analysis
        trials = ESTIMATE_TRIALS[self.size["estimate"]]
        rec["est_successes"] = {}
        for i, (name, f) in enumerate(self.bed):
            for alg in ALGORITHMS:
                seed = sub_seed(self.seed, "estimate", r, i, alg)
                t0 = time.perf_counter()
                est = analysis.estimate_tau(f, analysis.Algorithm(alg), trials, seed)
                rec["op_s"]["estimate", alg, i] = time.perf_counter() - t0
                rec["attempted"] += 1
                self.checks.expect(
                    est.trials == trials
                    and 0 <= est.successes <= trials
                    and est.ci_low <= est.point <= est.ci_high,
                    f"estimate {name}/{alg}: inconsistent {est}",
                )
                rec["est_successes"][(i, alg)] = est.successes

    def _solve(self, r: int, rec: dict, traced: bool) -> None:
        rec["solve_times"] = []
        outputs = {}
        for kind, alg, path, n, clauses, label in self.jobs:
            if kind == "twin" and alg != ALGORITHMS[r % len(ALGORITHMS)]:
                continue  # one twin per round, each algorithm's in turn
            seed = sub_seed(*label, "cli", r)
            args = ["solve", str(path), "--algorithm", alg, "--seed", str(seed)]
            if kind == "unsat":
                args += ["--omega", str(OMEGA[alg])]
            if traced:
                trace_path = self.workdir / "cli-trace.json"
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path)]
            else:
                cmd = [sys.executable, "-m", "satlab.cli"]
            where = f"solve {path.name} seed {seed}"
            rec["attempted"] += 1
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd + args, cwd=ROOT, env=self.env, capture_output=True,
                    text=True, timeout=PROCESS_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                self.checks.expect(False, f"{where}: no answer in {PROCESS_TIMEOUT_S} s")
                continue
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.merge(json.loads(trace_path.read_text(encoding="utf-8")))
            if kind == "twin":
                if proc.returncode == 1 and proc.stderr.startswith("error:"):
                    rec["failed"] += 1
                else:
                    self.checks.expect(
                        (proc.returncode, proc.stdout) == outputs[label],
                        f"{where}: differs from its planted twin",
                    )
                continue
            trials = self._check_solve(kind, alg, n, clauses, proc, where)
            if kind == "unsat":
                rec["op_s"]["unsat", alg] = wall
            else:
                rec["solve_times"].append(wall)
                outputs[label] = (proc.returncode, proc.stdout)

    def _check_solve(self, kind, alg, n, clauses, proc, where) -> int:
        lines = proc.stdout.splitlines()
        found = TRIALS_RE.search(proc.stdout)
        trials = int(found.group(1)) if found else 0
        if kind == "unsat":
            self.checks.expect(
                proc.returncode == 20 and "s UNKNOWN" in lines
                and trials == OMEGA[alg]
                and not any(line.startswith("v ") for line in lines),
                f"{where}: expected s UNKNOWN after {OMEGA[alg]} trials, "
                f"got exit {proc.returncode}: {proc.stdout[-200:]!r} {proc.stderr[-200:]!r}",
            )
            return trials
        v_lines = [line.split()[1:] for line in lines if line.startswith("v ")]
        ok = proc.returncode == 10 and "s SATISFIABLE" in lines and trials >= 1
        ok = ok and len(v_lines) == 1 and v_lines[0][-1:] == ["0"]
        if ok:
            lits = [int(tok) for tok in v_lines[0][:-1]]
            ok = sorted(abs(lit) for lit in lits) == list(range(1, n + 1))
            mask = sum(1 << (lit - 1) for lit in lits if lit > 0)
            ok = ok and reference.satisfies(clauses, mask)
        self.checks.expect(
            ok,
            f"{where}: expected a satisfying total assignment with exit 10, "
            f"got exit {proc.returncode}: {proc.stdout[-200:]!r} {proc.stderr[-200:]!r}",
        )
        return trials

    def _exact(self, rec: dict) -> None:
        analysis = self.analysis
        op_s = rec["op_s"]
        for j, (f, (good, w)) in enumerate(zip(self.exact["del"], self.exact_ref["del"])):
            t0 = time.perf_counter()
            value = analysis.exact_del_success(f)
            op_s["exact_del_s", j] = time.perf_counter() - t0
            rec["attempted"] += 1
            scaled = value * 3**w
            self.checks.expect(
                abs(value - good / 3**w) <= 1e-12
                and abs(scaled - round(scaled)) <= 1e-6 and round(scaled) == good,
                f"exact_del_success = {value!r}, reference {good}/3^{w}",
            )
        for j, (f, ref) in enumerate(zip(self.exact["ppz"], self.exact_ref["ppz"])):
            t0 = time.perf_counter()
            value = analysis.exact_ppz_success(f)
            op_s["exact_ppz_s", j] = time.perf_counter() - t0
            rec["attempted"] += 1
            self.checks.expect(
                abs(value - ref) <= 1e-12,
                f"exact_ppz_success = {value!r}, reference {ref!r}",
            )
        for j, (f, ref) in enumerate(zip(self.exact["analyze"], self.exact_ref["analyze"])):
            t0 = time.perf_counter()
            sols = analysis.enumerate_solutions(f)
            profiles = [analysis.critical_profile(f, a, sols) for a in sols.assignments()]
            op_s["analyze_s", j] = time.perf_counter() - t0
            rec["attempted"] += 1
            got = {mask_of(p.alpha): (p.c, p.l) for p in profiles}
            self.checks.expect(
                len(sols) == len(ref) and got == ref,
                f"analyze n={f.num_vars}: {len(sols)} solutions, reference {len(ref)}",
            )

    # -- checks over the whole run ----------------------------------------

    def check_estimates(self, rounds: list[dict]) -> None:
        for i, (name, _) in enumerate(self.bed):
            total = {}
            for alg in ALGORITHMS:
                successes = sum(rec["est_successes"][(i, alg)] for rec in rounds)
                trials = ESTIMATE_TRIALS[self.size["estimate"]] * len(rounds)
                total[alg] = (successes, trials)
            for alg in ("ppz", "del"):
                s, t = total[alg]
                p = self.bed_ref[i][alg]
                sigma = math.sqrt(p * (1 - p) / t)
                self.checks.expect(
                    abs(s / t - p) <= SIGMA_MARGIN * sigma + 1e-12,
                    f"estimate {name}/{alg}: {s}/{t} vs exact {p:.6f}",
                )
            s, t = total["delppz"]
            best = max(self.bed_ref[i]["ppz"], self.bed_ref[i]["del"])
            sigma = math.sqrt(best * (1 - best) / t)
            self.checks.expect(
                s / t >= best - SIGMA_MARGIN * sigma - 1e-12,
                f"estimate {name}/delppz: {s}/{t} below exact max {best:.6f}",
            )
            if name.startswith("xor"):
                self.checks.expect(s == t, f"estimate {name}/delppz: {s}/{t} failed trials")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, rounds: list[dict], setup_s: float) -> dict:
        def total(kind, *key):
            """Seconds of the operations of one kind, summed over the run."""
            return sum(
                s for rec in rounds for op, s in rec["op_s"].items()
                if op[:len(key) + 1] == (kind, *key)
            )

        m = {"setup_s": setup_s}
        for alg in ALGORITHMS:
            if self.workload == "solve":
                trials = OMEGA[alg] * len(rounds)
                rate = trials / total("unsat", alg)
            else:
                trials = ESTIMATE_TRIALS[self.size["estimate"]] * len(self.bed) * len(rounds)
                rate = trials / total("estimate", alg)
            m[f"{alg}_trials_per_s"] = rate
        times = [t for rec in rounds for t in rec["solve_times"]]
        m["solve_s"] = statistics.median(times)
        m["solve_tail_s"] = statistics.quantiles(times, n=4)[TAIL_QUARTILE - 1]
        for key in ("exact_del_s", "exact_ppz_s", "analyze_s"):
            m[key] = total(key) / len(rounds)
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        m["peak_rss_mb"] = rss_kb / 1024
        return {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in m.items()}


def per_layer(data: dict, untraced: list[float], traced: list[float]) -> dict:
    spans, counts = data["spans"], data["counts"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    def mean(name, scale):
        count, total, _ = span(name)
        return total / count * scale if count else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    trials = span("rng.for_trial")[0]
    # Oracle calls do not belong to any trial.
    sat_trial_calls = span("twosat.solve_2sat_clauses")[0] - counts.get(
        "analysis.exact_del_2sat_calls", 0
    )
    sub_trial_calls = span("cnf.substitute_clauses")[0] - counts.get(
        "analysis.exact_ppz_substitute_calls", 0
    )
    ppz_calls = span("ppz.ppz_success")[0] + span("ppz.ppz_iteration")[0]
    ppz_self = span("ppz.ppz_success")[2] + span("ppz.ppz_iteration")[2]
    dp_calls = span("combined.delppz_success")[0] + span("combined.delppz_iteration")[0]
    dp_self = span("combined.delppz_success")[2] + span("combined.delppz_iteration")[2]
    del_exits = counts.get("combined.del_exits", 0)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    m = {
        "rng.for_trial_us": (mean("rng.for_trial", 1e6), "us"),
        "rng.permutation_us": (mean("rng.permutation", 1e6), "us"),
        "rng.draws_per_trial": (
            ratio(span("rng.permutation")[0] + counts.get("rng.draws", 0), trials), "count"),
        "deletion.delete_clauses_us": (mean("deletion.delete_clauses", 1e6), "us"),
        "deletion.delete_clauses_per_trial": (
            ratio(span("deletion.delete_clauses")[0], trials), "count"),
        "twosat.solve_2sat_clauses_us": (mean("twosat.solve_2sat_clauses", 1e6), "us"),
        "twosat.solve_2sat_clauses_per_trial": (ratio(sat_trial_calls, trials), "count"),
        "twosat.sat_ratio": (
            ratio(counts.get("twosat.sat", 0), span("twosat.solve_2sat_clauses")[0]), "ratio"),
        "cnf.substitute_clauses_us": (mean("cnf.substitute_clauses", 1e6), "us"),
        "cnf.substitute_clauses_per_trial": (ratio(sub_trial_calls, trials), "count"),
        "cnf.evaluate_us": (mean("cnf.evaluate", 1e6), "us"),
        "cnf.parse_dimacs_us": (mean("cnf.parse_dimacs", 1e6), "us"),
        "cli.import_s": (
            ratio(counts.get("cli.import_s", 0), counts.get("cli.processes", 0)), "s"),
        "cli.main_s": (mean("cli.main", 1), "s"),
        "ppz.self_us_per_trial": (ratio(ppz_self * 1e6, ppz_calls), "us"),
        "combined.self_us_per_trial": (ratio(dp_self * 1e6, dp_calls), "us"),
        "combined.del_exit_ratio": (ratio(del_exits, dp_calls), "ratio"),
        "combined.exit_step_mean": (
            ratio(counts.get("combined.exit_steps", 0), del_exits), "count"),
        "analysis.estimate_tau_self_us_per_trial": (
            ratio(span("analysis.estimate_tau")[2] * 1e6,
                  counts.get("analysis.estimate_tau_trials", 0)), "us"),
        "analysis.enumerate_solutions_s": (mean("analysis.enumerate_solutions", 1), "s"),
        "analysis.critical_profile_us": (mean("analysis.critical_profile", 1e6), "us"),
        "analysis.exact_del_2sat_calls": (
            ratio(counts.get("analysis.exact_del_2sat_calls", 0),
                  span("analysis.exact_del_success")[0]), "count"),
        "analysis.exact_ppz_substitute_calls": (
            ratio(counts.get("analysis.exact_ppz_substitute_calls", 0),
                  span("analysis.exact_ppz_success")[0]), "count"),
        "generators.random_3cnf_us": (mean("generators.random_3cnf", 1e6), "us"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100 * overhead / statistics.median(untraced), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=PARTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satlab" / "__init__.py").is_file():
        print(f"error: no satlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), workdir)
        bench.setup()
        setup_s = time.perf_counter() - T_START
        bench.references()

        rounds, untraced, traced = [], [], []
        t0 = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
            if bench.tracer is not None:
                # The same round untraced, then traced: the difference in
                # wall time is the tracing overhead.
                bench.tracer.uninstall()
                untraced.append(bench.round(r, traced=False)["wall_s"])
                bench.tracer.install()
                rec = bench.round(r, traced=True)
                traced.append(rec["wall_s"])
            else:
                rec = bench.round(r, traced=False)
            rounds.append(rec)
            r += 1
        bench.check_estimates(rounds)

        if bench.tracer is not None:
            bench.tracer.uninstall()
            data = bench.tracer.data()
            metrics = per_layer(data, untraced, traced)
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(
                json.dumps({"rounds": len(rounds), **data, "metrics": metrics}, indent=1),
                encoding="utf-8",
            )
        else:
            metrics = bench.end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in bench.checks.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    attempted = sum(rec["attempted"] for rec in rounds)
    failed = sum(rec["failed"] for rec in rounds)
    print(f"rounds {len(rounds)}, attempted {attempted}, failed {failed}")
    result = {
        "correct": not bench.checks.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
