"""Span tracing of gearsim's public functions, installed from outside.

Each traced function is replaced, in every gearsim module that holds a
reference to it, by a wrapper that records one span (name, start, end,
parent, operation).  Modules that imported a function by name (`cli` imports
`transmission_ratio`, `dynamics` imports `eigensystem_for`, ...) each hold
their own reference, so all of them are patched.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (layer, function) pairs; relative.momentum_pairs is a RotorState method.
TRACED = (
    ("cli", "main"),
    ("model", "collective_to_momenta"),
    ("relative", "eigendecompose"),
    ("relative", "eigensystem_for"),
    ("relative", "ground_state"),
    ("relative", "build_hamiltonian"),
    ("relative", "widen"),
    ("relative", "momentum_pairs"),
    ("dynamics", "apply_kick"),
    ("dynamics", "evolve"),
    ("dynamics", "evolved_states"),
    ("dynamics", "time_series"),
    ("dynamics", "long_time_average"),
    ("dynamics", "run_protocol"),
    ("dynamics", "transmission_ratio"),
    ("ergotropy", "reduced_gear2"),
    ("ergotropy", "passive_state"),
    ("ergotropy", "ergotropy"),
    ("ergotropy", "ergotropy_time_series"),
    ("classical", "simulate_relative"),
    ("classical", "mean_relative_momentum"),
    ("classical", "classical_transmission"),
    ("oracle", "build_full_hamiltonian"),
    ("oracle", "oracle_ground_state"),
    ("oracle", "oracle_apply_kick"),
    ("oracle", "oracle_evolve"),
    ("oracle", "oracle_run"),
)

# Work counters read from arguments or results: (metric, unit, better).
COUNTERS = (
    ("relative.eigendecompose.states", "count", "lower"),
    ("relative.eigensystem_for.hit_ratio", "ratio", "higher"),
    ("classical.simulate_relative.steps", "count", "lower"),
    ("oracle.oracle_run.lattice_states", "count", "lower"),
)

# Reported by the traced run about itself.
RUN_METRICS = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.ops", "count", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints, as (name, unit, better)."""
    out = []
    for layer, fn in TRACED:
        out.append((f"{layer}.{fn}.calls", "count", "lower"))
        out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    return out + list(COUNTERS) + list(RUN_METRICS)


def _module(layer: str):
    # sys.modules, not getattr: the package attribute `gearsim.ergotropy`
    # is the function re-exported by __init__, not the module.
    return sys.modules[f"gearsim.{layer}"]


class Tracer:
    """Records spans while installed; aggregates them per traced name."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn in TRACED]
        self.name_idx = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = []
        for i, (layer, fn) in enumerate(TRACED):
            if (layer, fn) == ("relative", "momentum_pairs"):
                original = _module("relative").RotorState.momentum_pairs
            else:
                original = getattr(_module(layer), fn)
            self._wrappers.append((original, self._wrap(i, original)))

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        on_return = {
            "relative.eigendecompose": self._count_states,
            "classical.simulate_relative": self._count_steps,
            "oracle.oracle_run": self._count_lattice(fn),
        }.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _count_states(self, args, kwargs, result):
        self.counts["relative.eigendecompose.states"] += result.dim

    def _count_steps(self, args, kwargs, result):
        self.counts["classical.simulate_relative.steps"] += len(result.times) - 1

    def _count_lattice(self, fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            side = 2 * bound.arguments["cutoff"] + 1
            self.counts["oracle.oracle_run.lattice_states"] += side * side

        return count

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper."""
        gearsim_modules = [m for k, m in list(sys.modules.items())
                           if k == "gearsim" or k.startswith("gearsim.")]
        for idx, (original, wrapper) in enumerate(self._wrappers):
            if self.names[idx] == "relative.momentum_pairs":
                cls = _module("relative").RotorState
                self._patched.append((cls, "momentum_pairs", original))
                setattr(cls, "momentum_pairs", wrapper)
                continue
            for mod in gearsim_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _arrays(self):
        idx = np.asarray(self.name_idx, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        return idx, parent, start, end

    def metrics(self) -> dict[str, float]:
        """calls and self time per traced name, plus the work counters.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it and do not overlap each other.
        """
        idx, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(idx, minlength=n)
        self_s = np.bincount(idx, weights=self_time, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        lookups = out["relative.eigensystem_for.calls"]
        misses = out["relative.eigendecompose.calls"]
        out["relative.eigensystem_for.hit_ratio"] = (
            1.0 - misses / lookups if lookups else 0.0)
        return out

    def save(self, path) -> None:
        idx, parent, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_idx=idx, parent=parent,
            op=np.asarray(self.op, dtype=np.int64), start=start, end=end)
