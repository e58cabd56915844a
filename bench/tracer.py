"""Per-layer tracing by wrapping satlab's public functions from outside.

Each function is wrapped at every name its callers look it up by: the
solver modules import ``solve_2sat_clauses``, ``delete_clauses``,
``substitute_clauses`` and ``evaluate`` into their own namespaces,
``analysis._SUCCESS_FN`` holds the trace-free fast paths, and
``RandomSource`` methods are looked up on the class.  A wrapper records a
span: its count, total time and self time (total minus the time of the
traced calls made inside it).  The draws ``coin`` and ``index`` are only
counted, since a span per draw would swamp the layers that make them.

Spans stay in memory; ``data()`` returns them as plain JSON-able data, and
``merge`` adds the data of another process to them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# layer name -> (defining module, attribute)
LAYERS = {
    "cnf.substitute_clauses": ("cnf", "substitute_clauses"),
    "cnf.evaluate": ("cnf", "evaluate"),
    "cnf.parse_dimacs": ("cnf", "parse_dimacs"),
    "twosat.solve_2sat_clauses": ("twosat", "solve_2sat_clauses"),
    "deletion.delete_clauses": ("deletion", "delete_clauses"),
    "deletion.del_success": ("deletion", "del_success"),
    "deletion.del_iteration": ("deletion", "del_iteration"),
    "ppz.ppz_success": ("ppz", "ppz_success"),
    "ppz.ppz_iteration": ("ppz", "ppz_iteration"),
    "combined.delppz_success": ("combined", "delppz_success"),
    "combined.delppz_iteration": ("combined", "delppz_iteration"),
    "combined.run_delppz": ("combined", "run_delppz"),
    "analysis.estimate_tau": ("analysis", "estimate_tau"),
    "analysis.enumerate_solutions": ("analysis", "enumerate_solutions"),
    "analysis.critical_profile": ("analysis", "critical_profile"),
    "analysis.exact_del_success": ("analysis", "exact_del_success"),
    "analysis.exact_ppz_success": ("analysis", "exact_ppz_success"),
    "generators.random_3cnf": ("generators", "random_3cnf"),
    "generators.xor_chain": ("generators", "xor_chain"),
    "cli.main": ("cli", "main"),
}

# Modules that look each layer up in their own namespace, besides the
# defining module (functions that import it locally read the definer's).
IMPORTERS = {
    "cnf.substitute_clauses": ("ppz", "combined"),
    "cnf.evaluate": ("ppz", "combined", "deletion", "analysis", "cli"),
    "cnf.parse_dimacs": ("cli",),
    "twosat.solve_2sat_clauses": ("deletion", "combined"),
    "deletion.delete_clauses": ("combined",),
    "deletion.del_success": ("analysis",),
    "deletion.del_iteration": ("cli",),
    "ppz.ppz_success": ("analysis",),
    "ppz.ppz_iteration": ("cli",),
    "combined.delppz_success": ("analysis",),
    "combined.run_delppz": ("cli",),
    "generators.random_3cnf": ("cli",),
    "generators.xor_chain": ("cli",),
}


class _Frame:
    __slots__ = ("child_time", "children", "sat_hit")

    def __init__(self):
        self.child_time = 0.0
        self.children: dict[str, int] = {}
        self.sat_hit = False


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, post=None):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.children[name] = parent.children.get(name, 0) + 1
            frame = _Frame()
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t0
                stack.pop()
                s = spans.get(name)
                if s is None:
                    s = spans[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += elapsed
                s[2] += elapsed - frame.child_time
                if parent is not None:
                    parent.child_time += elapsed
            if post is not None:
                post(frame, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- post hooks -------------------------------------------------------

    def _post_2sat(self, frame, parent, args, kwargs, result):
        if result is not None:
            self.counts["twosat.sat"] += 1
            if parent is not None:
                parent.sat_hit = True

    def _post_delppz_success(self, frame, parent, args, kwargs, result):
        # The fast path returns right after the first satisfiable 2-SAT
        # call, so a hit means a deletion-route exit at the step whose
        # deletion pass was the last one.
        if result and frame.sat_hit:
            self.counts["combined.del_exits"] += 1
            self.counts["combined.exit_steps"] += frame.children.get(
                "deletion.delete_clauses", 0
            )

    def _post_delppz_iteration(self, frame, parent, args, kwargs, result):
        outcome = result[0]
        if outcome.exit_step is not None:
            self.counts["combined.del_exits"] += 1
            self.counts["combined.exit_steps"] += outcome.exit_step

    def _post_estimate_tau(self, frame, parent, args, kwargs, result):
        self.counts["analysis.estimate_tau_trials"] += result.trials

    def _post_exact_del(self, frame, parent, args, kwargs, result):
        self.counts["analysis.exact_del_2sat_calls"] += frame.children.get(
            "twosat.solve_2sat_clauses", 0
        )

    def _post_exact_ppz(self, frame, parent, args, kwargs, result):
        self.counts["analysis.exact_ppz_substitute_calls"] += frame.children.get(
            "cnf.substitute_clauses", 0
        )

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer of every loaded satlab module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {
            name: importlib.import_module(f"satlab.{name}")
            for name in (
                "rng", "cnf", "twosat", "deletion", "ppz", "combined",
                "analysis", "generators",
            )
        }
        if "satlab.cli" in sys.modules:
            mods["cli"] = sys.modules["satlab.cli"]
        posts = {
            "twosat.solve_2sat_clauses": self._post_2sat,
            "combined.delppz_success": self._post_delppz_success,
            "combined.delppz_iteration": self._post_delppz_iteration,
            "analysis.estimate_tau": self._post_estimate_tau,
            "analysis.exact_del_success": self._post_exact_del,
            "analysis.exact_ppz_success": self._post_exact_ppz,
        }
        wrappers = {}
        for layer, (home, attr) in LAYERS.items():
            if home not in mods:
                continue
            original = getattr(mods[home], attr)
            wrapper = wrappers[original] = self._span(layer, original, posts.get(layer))
            for name in (home,) + IMPORTERS.get(layer, ()):
                if name in mods and getattr(mods[name], attr, None) is original:
                    self._set(mods[name], attr, wrapper)
        table = mods["analysis"]._SUCCESS_FN
        for key, fn in list(table.items()):
            self._set(table, key, wrappers[fn])

        rs = mods["rng"].RandomSource
        for_trial = rs.__dict__["for_trial"].__func__
        self._set(rs, "for_trial", classmethod(self._span("rng.for_trial", for_trial)))
        self._set(rs, "permutation", self._span("rng.permutation", rs.permutation))
        self._set(rs, "coin", self._counter("rng.draws", rs.coin))
        self._set(rs, "index", self._counter("rng.draws", rs.index))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- data -------------------------------------------------------------

    def data(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        for name, (count, total, self_s) in data["spans"].items():
            s = self.spans.setdefault(name, [0, 0.0, 0.0])
            s[0] += count
            s[1] += total
            s[2] += self_s
        for name, value in data["counts"].items():
            self.counts[name] += value
