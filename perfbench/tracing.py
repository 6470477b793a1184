"""In-memory spans around calls into mqpure's public functions.

The benchmark wraps each traced callable from the outside: module-level
functions are replaced in every ``mqpure`` module namespace that holds
them, methods are replaced on their class, and the extractor factories
return closures that are themselves wrapped.  Nothing under ``src/`` is
changed, and :meth:`Tracer.uninstall` restores the originals so traced
and untraced ops can alternate in one process.

A span is ``(op, span_id, parent_id, name, start, end)``; a layer's self
time is its span duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import gzip
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module under mqpure, attribute path).  Several callables may
# share one span name; they then form one layer.
TARGETS = (
    ("hamiltonians.dq_hamiltonian", "hamiltonians", "dq_hamiltonian"),
    ("hamiltonians.secular_dipolar_hamiltonian", "hamiltonians", "secular_dipolar_hamiltonian"),
    ("hamiltonians.negated", "hamiltonians", "negated"),
    ("hamiltonians.load_couplings", "hamiltonians", "load_couplings"),
    ("evolution.sweep", "evolution", "sweep"),
    ("evolution.diagonalize", "evolution", "diagonalize"),
    ("evolution.evolve", "evolution", "evolve"),
    ("nonunitary.build_transition_graph", "nonunitary", "build_transition_graph"),
    ("nonunitary.populations", "nonunitary", "TransitionGraph.populations"),
    ("nonunitary.crush", "nonunitary", "crush"),
    ("nonunitary.saturate", "nonunitary", "saturate"),
    ("spectrum.linear_response", "spectrum", "linear_response"),
    ("spectrum.merge_peaks", "spectrum", "merge_peaks"),
    ("spectrum.count_peaks", "spectrum", "count_peaks"),
    ("mq.decompose", "mq", "decompose"),
    ("mq.phase_cycle_decompose", "mq", "phase_cycle_decompose"),
    ("mq.filter_order", "mq", "filter_order"),
    ("mq.mq_intensity", "mq", "mq_intensity"),
    ("spin_core.thermal_state", "spin_core", "thermal_state"),
    ("spin_core.validate", "spin_core", "Operator.__post_init__"),
    ("spin_core.validate", "spin_core", "DensityMatrix.__post_init__"),
    ("output.to_csv", "evolution", "SweepTable.to_csv"),
    ("output.to_csv", "nonunitary", "TransitionGraph.to_csv"),
    ("output.to_csv", "spectrum", "StickSpectrum.to_csv"),
    ("output.to_csv", "spectrum", "curve_to_csv"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("cli.main", "cli", "main"),
)

# Factories whose returned closures get an "evolution.extract" span each.
EXTRACTOR_FACTORIES = ("mq_intensity_extractor", "diag_pair_extractor", "population_extractor")

# Exact counts taken at span boundaries: (span name, count name, f(args, result)).
COUNTERS = (
    ("evolution.sweep", "evolution.sweep.points", lambda args, result: result.times.size),
    ("nonunitary.build_transition_graph", "nonunitary.graph.edges",
     lambda args, result: result.n_edges),
    ("spectrum.merge_peaks", "spectrum.merge_peaks.lines_in",
     lambda args, result: args[0].n_lines),
    ("spectrum.merge_peaks", "spectrum.merge_peaks.lines_out",
     lambda args, result: result.n_lines),
)

# Spans whose number per op is reported as "<name>.calls".
CALL_COUNTS = (
    "evolution.extract",
    "evolution.diagonalize",
    "nonunitary.populations",
    "mq.decompose",
    "spin_core.validate",
)

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TARGETS] + ["evolution.extract"]))


class Tracer:
    """Records spans and counts for the op currently running."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._installed: list = []

    def wrap(self, name, fn, reentrant=True):
        spans, stack = self.spans, self._stack
        counters = [(key, count) for span, key, count in COUNTERS if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not reentrant and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self.op, span_id, parent, name, start, end)
            for key, count in counters:
                self.counts[self.op, key] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced callable with its wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mqpure" or key.startswith("mqpure.")]
        for name, module, path in TARGETS:
            owner = sys.modules[f"mqpure.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, reentrant=name != "spin_core.validate")
            if classes:
                self._replace(owner, attr, original, wrapped)
            else:
                self._rebind(modules, original, wrapped)
        evolution = sys.modules["mqpure.evolution"]
        for factory_name in EXTRACTOR_FACTORIES:
            original = getattr(evolution, factory_name)
            self._rebind(modules, original, self._wrap_factory(original))

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("evolution.extract", factory(*args, **kwargs))

        return traced_factory

    def _rebind(self, modules, original, wrapped) -> None:
        """Replace ``original`` under every name any of ``modules`` binds it to."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _op_spans(self, op: int) -> list:
        return [s for s in self.spans if s[0] == op]

    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one op: self times, call counts, counters."""
        spans = self._op_spans(op)
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            child_time[parent] += end - start
        metrics = {f"{name}.s": 0.0 for name in SPAN_NAMES}
        calls = Counter()
        for _, span_id, _, name, start, end in spans:
            metrics[f"{name}.s"] += (end - start) - child_time[span_id]
            calls[name] += 1
        for name in CALL_COUNTS:
            metrics[f"{name}.calls"] = calls[name]
        for _, key, _ in COUNTERS:
            metrics[key] = self.counts[op, key]
        return metrics

    def root_seconds(self, op: int) -> float:
        """Duration of the op's top-level spans, which its self times sum to."""
        return sum(end - start for _, _, parent, _, start, end in self._op_spans(op)
                   if parent == -1)

    def write(self, path) -> None:
        """Write every span as gzip CSV, times in seconds since the first span."""
        origin = min(s[4] for s in self.spans)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "span", "parent", "name", "start_s", "end_s"])
            for op, span_id, parent, name, start, end in self.spans:
                writer.writerow([op, span_id, parent, name,
                                 f"{start - origin:.9f}", f"{end - origin:.9f}"])


def layer_shares(metrics: dict, op_s: float) -> dict:
    """Share of the traced op time spent in each module's own code."""
    shares = Counter()
    for name in SPAN_NAMES:
        shares[name.split(".")[0]] += metrics[f"{name}.s"] / op_s
    return dict(shares)


def median_metrics(per_op: list[dict]) -> dict:
    """Median over ops; a count that every op agrees on stays exact."""
    medians = {}
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        same = all(v == values[0] for v in values)
        medians[key] = values[0] if same else statistics.median(values)
    return medians
