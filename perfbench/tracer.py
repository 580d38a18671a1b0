"""Span recorder installed on hqsim's public functions from outside the package.

A traced run replaces each public function named in ``TARGETS`` with a
wrapper, in every ``hqsim`` module namespace that holds it.  That is where
the callers look the name up (``hqsim.hybrid_fft.execute_schedule``,
``hqsim.readout.effect_probability``, ``hqsim.cli.hybrid_dft``, ...), so
calls between modules are caught as well as the benchmark's own calls.
Private helpers (``_solution_mask``, ``_grover_step``, ``_measure``) are
not wrapped: their time lands in the self time of the public caller.

A span's self time is its duration minus the durations of its child spans.
The code under test is single-threaded, so children nest and never overlap.
Spans are kept in memory as (name, start, end, parent, op) columns and
written out once the run ends.  Names in ``AGGREGATED`` are called once per
schedule entry or per index; they are kept only as a per-op call count and
summed self time, so that memory stays bounded.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from array import array

perf = time.perf_counter

# (module, public function) pairs wrapped in a traced run.
TARGETS = (
    ("hybrid_fft", "hybrid_dft"),
    ("hybrid_fft", "decimate_leaves"),
    ("hybrid_fft", "butterfly_combine"),
    ("hybrid_fft", "direct_dft"),
    ("readout", "build_schedule"),
    ("readout", "execute_schedule"),
    ("readout", "prepare_block_state"),
    ("readout", "rebuild_phases"),
    ("readout", "rescale_to_dft"),
    ("core", "effect_probability"),
    ("core", "apply_controlled_circuit"),
    ("core", "apply_gate"),
    ("core", "sample_effect"),
    ("costs", "merge_ledgers"),
    ("search", "partition_search"),
    ("search", "search_node"),
    ("search", "plan_iterations"),
    ("cli", "parse_args"),
    ("cli", "run_experiment"),
    ("cli", "emit_outputs"),
)

AGGREGATED = frozenset(
    {"core.effect_probability", "core.sample_effect", "search.plan_iterations", "search.oracle"}
)

# Root span of one benchmark operation; its self time is the op time that no
# wrapped function covers.
OP_SPAN = "bench.op"


class GcCounter:
    """Counts garbage collections through ``gc.callbacks``; the collector
    itself is left enabled."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.count += 1

    def __enter__(self) -> "GcCounter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # op id -> {name: [calls, self seconds]} and op id -> {counter: value}
        self.op_layers: dict[int, dict[str, list]] = {}
        self.op_counts: dict[int, dict[str, int]] = {}
        self._op = -1
        self._layers: dict[int, list] = {}
        self._counts: dict[str, int] = {}
        self._frames: list[list[float]] = []  # child time covered, per open call
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span (or an aggregate) named ``name``."""
        idx = self._index(name)
        keep_span = name not in AGGREGATED
        frames = self._frames
        open_spans = self._open_spans

        def traced(*args, **kwargs):
            if keep_span:
                slot = len(self.span_name)
                self.span_name.append(idx)
                self.span_parent.append(open_spans[-1] if open_spans else -1)
                self.span_op.append(self._op)
                self.span_end.append(0.0)
                open_spans.append(slot)
            frame = [0.0]
            frames.append(frame)
            start = perf()
            if keep_span:
                self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                acc = self._layers.get(idx)
                if acc is None:
                    self._layers[idx] = [1, duration - frame[0]]
                else:
                    acc[0] += 1
                    acc[1] += duration - frame[0]
                if keep_span:
                    open_spans.pop()
                    self.span_end[slot] = end

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, value: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def count_for(self, op: int, name: str, value) -> None:
        counts = self.op_counts.setdefault(op, {})
        counts[name] = counts.get(name, 0) + value

    def begin_op(self, op: int) -> None:
        self._op = op
        self._layers = {}
        self._counts = {}

    def end_op(self) -> None:
        self.op_layers[self._op] = {self.names[i]: v for i, v in self._layers.items()}
        self.op_counts[self._op] = self._counts
        self._op = -1

    def _hooked(self, qualname: str, fn):
        """Add the counters measured at a layer boundary to ``fn``."""
        if qualname == "costs.merge_ledgers":
            def merge_ledgers(ledgers):
                ledgers = list(ledgers)
                self.count("costs.ledgers_merged", len(ledgers))
                return fn(ledgers)
            return merge_ledgers
        if qualname == "readout.rebuild_phases":
            def rebuild_phases(*args, **kwargs):
                estimate = fn(*args, **kwargs)
                self.count("readout.sign_tests", estimate.coefficients.size)
                self.count("readout.fallbacks", estimate.classical_fallbacks)
                return estimate
            return rebuild_phases
        if qualname == "search.search_node":
            def search_node(*args, **kwargs):
                outcome = fn(*args, **kwargs)
                if outcome.verified:
                    self.count("search.node_successes", 1)
                return outcome
            return search_node
        return fn

    def install(self) -> None:
        """Wrap every ``TARGETS`` function wherever an hqsim module holds it."""
        if not self._patches:
            wrappers = {}
            for module_name, func_name in TARGETS:
                original = getattr(importlib.import_module(f"hqsim.{module_name}"), func_name)
                qualname = f"{module_name}.{func_name}"
                wrappers[id(original)] = (original, self.wrap(qualname, self._hooked(qualname, original)))
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "hqsim" or mod_name.startswith("hqsim.")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((module, attr, value, hit[1]))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def span_columns(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }

    def absorb(self, op: int, root: int, child: dict) -> None:
        """Add the spans, per-layer totals and counters that a traced child
        process recorded to op ``op``; its top spans hang under ``root``."""
        columns = child["spans"]
        offset = len(self.span_name)
        remap = [self._index(name) for name in columns["names"]]
        for name, start, end, parent in zip(
            columns["name"], columns["start"], columns["end"], columns["parent"]
        ):
            self.span_name.append(remap[name])
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent + offset if parent >= 0 else root)
            self.span_op.append(op)
        layers = self.op_layers.setdefault(op, {})
        for name, (calls, self_s) in child["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in child["counts"].items():
            self.count_for(op, name, value)

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            op=np.asarray(self.span_op),
        )
