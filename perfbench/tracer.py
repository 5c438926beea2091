"""Spans recorded around each layer's public calls, from outside the program.

A :class:`Tracer` keeps spans in memory (name, start, end, parent span and
the request/epoch id they belong to).  :func:`install` patches the layer
entry points listed in :data:`TARGETS` -- at the name the *calling* module
imported them under, e.g. ``repro.core.decomposition.solve_lp`` -- with
wrappers that open a span per call, and returns a function restoring the
originals, so one process can run the same work untraced and traced.

Busy time of a span name is the union of its spans' intervals (concurrent or
recursive calls are not double-counted); self time of a span is its
duration minus the union of its children's intervals, clipped to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass

#: (module, attribute path, span name).  Functions are patched in the module
#: that calls them; methods on their class.
TARGETS = (
    ("repro.api.broker", "SliceBroker.submit", "api.submit"),
    ("repro.api.broker", "SliceBroker.status", "api.read"),
    ("repro.api.broker", "SliceBroker.quote", "api.read"),
    ("repro.api.broker", "SliceBroker.release", "api.release"),
    ("repro.api.broker", "SliceBroker.advance_epoch", "api.advance_epoch"),
    ("repro.api.broker", "SliceBroker.report_load", "api.report_load"),
    ("repro.controlplane.orchestrator", "E2EOrchestrator.run_epoch", "controlplane.run_epoch"),
    ("repro.controlplane.orchestrator", "E2EOrchestrator.forecast_for", "controlplane.forecast"),
    ("repro.controlplane.orchestrator", "compute_path_sets", "topology.path_sets"),
    ("repro.controlplane.monitoring", "MonitoringService.record_samples", "controlplane.monitoring"),
    ("repro.controlplane.monitoring", "MonitoringService.peak_history", "controlplane.monitoring"),
    ("repro.controlplane.controllers", "ControllerSet.apply", "controlplane.controllers"),
    ("repro.forecasting.holt_winters", "HoltWintersForecaster.forecast", "forecasting.forecast"),
    ("repro.forecasting.exponential", "DoubleExponentialForecaster.forecast", "forecasting.forecast"),
    ("repro.forecasting.naive", "NaiveForecaster.forecast", "forecasting.forecast"),
    ("repro.core.problem", "ProblemStructureCache.build", "core.problem_build"),
    ("repro.core.benders", "BendersSolver.solve", "core.benders"),
    ("repro.core.benders", "CutPool.seed_master", "core.cutpool.seed"),
    ("repro.core.benders", "solve_milp", "core.milp"),
    ("repro.core.decomposition", "SlaveProblem.evaluate", "core.slave"),
    ("repro.core.decomposition", "SlaveProblem.evaluate_blocks", "core.blocks"),
    ("repro.core.decomposition", "solve_lp", "core.lp"),
    ("repro.dataplane.multiplexing", "SliceMultiplexer.unserved_traffic", "dataplane.multiplex"),
    ("repro.simulation.revenue", "RevenueAccountant.record_epoch", "simulation.revenue"),
    ("repro.workloads.replay", "iter_trace", "workloads.trace"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ctx: str


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ctx: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None:
            ctx = self.spans[parent].ctx if parent is not None else f"r{next(self._ids)}"
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), float("nan"), parent, ctx))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().remove(index)

    def export(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.ctx] for s in self.spans]


def spans_from(rows) -> list[Span]:
    return [Span(*row) for row in rows]


def _union_length(intervals) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def busy(spans: list[Span], name: str) -> float:
    """Seconds during which at least one span called ``name`` was open."""
    return _union_length((s.start, s.end) for s in spans if s.name == name)


def total(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called ``name`` (per-call time)."""
    return sum(s.end - s.start for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def descendants(spans: list[Span], name: str) -> list[Span]:
    """The spans opened inside a span called ``name`` (at any depth)."""
    inside: list[bool] = []
    for span in spans:
        parent = span.parent
        inside.append(
            parent is not None and (spans[parent].name == name or inside[parent])
        )
    return [span for span, flag in zip(spans, inside) if flag]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
            if spans[c].end > span.start and spans[c].start < span.end
        )
        result.append(span.end - span.start - covered)
    return result


def self_time(spans: list[Span], name: str) -> float:
    return sum(t for s, t in zip(spans, self_times(spans)) if s.name == name)


# ---------------------------------------------------------------------- #
# Installing wrappers
# ---------------------------------------------------------------------- #
def _epoch_ctx(name: str, args, kwargs) -> str | None:
    if name != "api.advance_epoch":
        return None
    epoch = kwargs.get("epoch", args[1] if len(args) > 1 else None)
    return f"epoch-{epoch}"


def _wrap(tracer: Tracer, original, name: str):
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def traced_generator(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return traced_generator

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.begin(name, _epoch_ctx(name, args, kwargs))
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def install(tracer: Tracer, targets=TARGETS):
    """Patch every target with a span-opening wrapper; return an undo."""
    undo = []
    for module_name, path, name in targets:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {module_name}.{path}: not a plain function")
        setattr(owner, attr, _wrap(tracer, original, name))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
