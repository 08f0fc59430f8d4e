"""Span and counter wrappers around the package's public functions.

Tracing happens from outside the program: each traced function is wrapped
once and the wrapper is installed under every module-level name that holds
the original, because ``cli`` and ``verify`` import with ``from .x import
y`` and call through their own globals.  ``TransferMatrix.__post_init__``
is wrapped to count validations, and ``cli._RUNNERS`` is patched too.

Spans are aggregated in memory per name (calls and self seconds);
self time is a span's duration minus the time covered by its child spans.
Nothing is written until the traced passes end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer spans: traced name -> (module, attribute) of the definition.
SPANS = {
    "scenario.load_scenario": ("scenario", "load_scenario"),
    "barriers.transfer_of": ("barriers", "transfer_of"),
    "barriers.scenario_transfer": ("barriers", "scenario_transfer"),
    "transfer.compose": ("transfer", "compose"),
    "transfer.to_polar": ("transfer", "to_polar"),
    "bounds.bounds_report": ("bounds", "bounds_report"),
    "bounds.resonance_possible": ("bounds", "resonance_possible"),
    "verify.scenario_containment_audit": ("verify", "scenario_containment_audit"),
    "verify.random_phase_sweep": ("verify", "random_phase_sweep"),
    "verify.equivalence_audit": ("verify", "equivalence_audit"),
    "cli.run_bounds": ("cli", "run_bounds"),
    "cli.run_sweep": ("cli", "run_sweep"),
    "cli.run_verify": ("cli", "run_verify"),
    "cli.run_resonance": ("cli", "run_resonance"),
    "cli.main": ("cli", "main"),
}
FROM_MATRICES = "bounds.RapiditySequence.from_matrices"
PACKAGE = "compound_barriers"


class Tracer:
    """Installs the wrappers for the life of the process;
    ``stats[name] = [calls, self_s]``."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._pairs: set = set()

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self._pairs.clear()

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats = self.stats[name]
                stats[0] += 1
                stats[1] += dt - child
                if after is not None:
                    after(args, result, exc)

        return wrapper

    def _replace(self, original, wrapper) -> None:
        """Install ``wrapper`` wherever a package module binds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name: sys.modules[f"{PACKAGE}.{name}"]
                for name in ("scenario", "barriers", "transfer", "bounds", "verify", "cli")}
        hooks = self._hooks(mods)
        for name, (mod, attr) in SPANS.items():
            original = getattr(mods[mod], attr)
            wrapper = self._span(name, original, *hooks.get(name, (None, None)))
            self._replace(original, wrapper)
            runners = mods["cli"]._RUNNERS
            for key, value in runners.items():
                if value is original:
                    runners[key] = wrapper

        seq_cls = mods["bounds"].RapiditySequence
        raw = seq_cls.__dict__["from_matrices"]
        seq_cls.from_matrices = classmethod(self._span(FROM_MATRICES, raw.__func__))

        tm = mods["transfer"].TransferMatrix
        post_init = tm.__post_init__
        counters = self.counters

        def counted(obj):
            counters["transfer.TransferMatrix.validations"] += 1
            post_init(obj)

        tm.__post_init__ = counted

    def _hooks(self, mods):
        counters, pairs = self.counters, self._pairs
        violation = mods["verify"].BoundViolationError

        def pair(args):
            spec, ctx = args[0], args[1]
            pairs.add((spec, ctx.k))

        def main_start(args):
            pairs.clear()

        def main_end(args, result, exc):
            counters["barriers.transfer_of.distinct_pairs"] += len(pairs)

        def sweep_end(args, result, exc):
            seq, samples = args[0], args[1]
            counters["verify.random_phase_sweep.samples"] += samples
            counters["verify.random_phase_sweep.sample_barriers"] += samples * len(seq)
            counters["verify.random_phase_sweep.violations"] += isinstance(exc, violation)

        def audit_end(args, result, exc):
            if result is not None:
                counters["verify.scenario_containment_audit.rows"] += len(result.rows)

        return {
            "barriers.transfer_of": (pair, None),
            "cli.main": (main_start, main_end),
            "verify.random_phase_sweep": (None, sweep_end),
            "verify.scenario_containment_audit": (None, audit_end),
        }

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of the passes since the last reset."""
        st, ct = self.stats, self.counters

        def calls(name):
            return st[name][0] if name in st else 0

        def self_s(name):
            return st[name][1] if name in st else 0.0

        out: dict[str, float] = {}
        for name in ("barriers.transfer_of", "barriers.scenario_transfer", "transfer.compose",
                     "transfer.to_polar", "bounds.bounds_report", "bounds.resonance_possible",
                     "verify.random_phase_sweep"):
            out[f"{name}.calls"] = calls(name)
        for name in list(SPANS) + [FROM_MATRICES]:
            if name != "cli.main":
                out[f"{name}.s"] = self_s(name)
        out["cli.main.self_s"] = self_s("cli.main")
        tcalls = calls("barriers.transfer_of")
        out["barriers.transfer_of.useful_ratio"] = (
            ct["barriers.transfer_of.distinct_pairs"] / tcalls if tcalls else 0.0)
        out["transfer.TransferMatrix.validations"] = ct["transfer.TransferMatrix.validations"]
        out["verify.scenario_containment_audit.rows"] = ct["verify.scenario_containment_audit.rows"]
        out["verify.random_phase_sweep.samples"] = ct["verify.random_phase_sweep.samples"]
        out["verify.random_phase_sweep.violations"] = ct["verify.random_phase_sweep.violations"]
        sb = ct["verify.random_phase_sweep.sample_barriers"]
        out["verify.random_phase_sweep.ns_per_sample_barrier"] = (
            self_s("verify.random_phase_sweep") / sb * 1e9 if sb else 0.0)
        out["trace.self_sum_s"] = sum(v[1] for v in st.values())
        return out
