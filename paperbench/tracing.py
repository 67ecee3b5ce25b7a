"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each layer from the outside: it
replaces a function or method by a wrapper that records a span (name, start,
end, parent) and restores the original afterwards.  Nothing under ``src/`` is
changed.  Spans stay in memory and are written out when the run ends.

Wrapping rules:

* a module-level function is replaced in its own module *and* in every loaded
  ``repro`` module that imported it by name (``from x import f``);
* a class attribute keeps its descriptor kind: a ``property`` stays a property
  and a ``staticmethod`` stays a staticmethod.  Replacing the
  ``Trace.fingerprint`` property by a plain function makes ``trace.fingerprint``
  a bound method, and ``OnlineEngine.serve`` then fails with
  ``TypeError: cannot canonicalize method``;
* wrappers installed before a pool forks run in the workers too, but their spans
  stay in the worker; worker-side layers show only as ``parallel_map.map_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, span name, mode).  ``span`` records a timed span,
#: ``count`` only counts calls (for functions called too often to time).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.placement", "PlacementOptimizer.optimize", "placement.optimize", "span"),
    ("repro.core.placement", "global_cost", "placement.global_cost", "count"),
    ("repro.core.recomputation", "GcmrScheduler.schedule", "recomputation.schedule", "span"),
    ("repro.core.central_scheduler", "CentralScheduler.build_plan", "central_scheduler.build_plan", "span"),
    ("repro.core.dram_allocation", "DramAllocator.allocate", "dram_allocation.allocate", "span"),
    ("repro.core.evaluator", "Evaluator.evaluate", "evaluator.evaluate", "span"),
    ("repro.core.evaluator", "Evaluator._evaluate_uncached", "evaluator.raw_eval", "count"),
    ("repro.core.tp_engine", "TPEngine.stage_times", "tp_engine.stage_times", "span"),
    ("repro.parallelism.pipeline", "simulate_1f1b", "pipeline.simulate_1f1b", "span"),
    ("repro.predictor.analytical", "AnalyticalPredictor.estimate_batch", "predictor.estimate_batch", "span"),
    ("repro.workloads.memory", "TrainingMemoryModel.pipeline_breakdown", "memory.pipeline_breakdown", "span"),
    ("repro.core.genetic", "GeneticOptimizer.optimize", "genetic.optimize", "span"),
    ("repro.core.hardware_dse", "DieGranularityDse.sweep", "hardware_dse.sweep", "span"),
    ("repro.core.evalcache", "fingerprint", "evalcache.fingerprint", "span"),
    ("repro.core.evalcache", "EvaluationCache.flush", "evalcache.flush", "span"),
    ("repro.core.evalcache", "JsonlCacheStore.load", "evalcache.load", "span"),
    ("repro.core.evalcache", "SqliteCacheStore.load", "evalcache.load", "span"),
    ("repro.core.parallel_map", "WorkerPool.map", "parallel_map.map", "span"),
    ("repro.api.results", "JsonlResultStore.put", "results.put", "span"),
    ("repro.api.results", "JsonlResultStore.put_many", "results.put", "span"),
    ("repro.api.results", "SqliteResultStore.put", "results.put", "span"),
    ("repro.api.results", "SqliteResultStore.put_many", "results.put", "span"),
    ("repro.online.engine", "OnlineEngine.serve", "online.serve", "span"),
    ("repro.online.engine", "OnlineEngine._price", "online.price", "span"),
    ("repro.online.trace", "generate_trace", "trace.generate", "span"),
    ("repro.online.trace", "Trace.fingerprint", "trace.fingerprint", "span"),
)

#: Spans whose argument keys are tallied per pass, to report how many calls were
#: distinct.
KEYED = {
    "recomputation.schedule": lambda args, kwargs: (
        args[0].wafer.name,
        repr(args[1]),
        args[2:],
        tuple(sorted(kwargs.items())),
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name: str, start: float, parent: int, phase: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase


class Recorder:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.keys: Dict[str, set] = {}
        #: ``setup`` spans happen once per run; ``pass`` spans once per pass.
        self.phase = "setup"
        #: (start, end) of every traced pass: the wall time coverage is judged on.
        self.windows: List[Tuple[float, float]] = []
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ wrappers
    def _span_wrapper(self, name: str, func: Callable) -> Callable:
        keyed = KEYED.get(name)
        spans = self.spans
        local = self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if keyed is not None:
                key = (len(self.windows), keyed(args, kwargs))
                self.keys.setdefault(name, set()).add(key)
            parent = getattr(local, "top", -1)
            span = Span(name, time.perf_counter(), parent, self.phase)
            spans.append(span)
            local.top = len(spans) - 1
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                local.top = parent

        return wrapper

    def _count_wrapper(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, mode: str, func: Callable) -> Callable:
        if mode == "count":
            return self._count_wrapper(name, func)
        return self._span_wrapper(name, func)

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; aliases imported by name are wrapped too."""
        for module_name, path, name, mode in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    wrapped: Any = property(
                        self._wrap(name, mode, raw.fget), raw.fset, raw.fdel, raw.__doc__
                    )
                elif isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(name, mode, raw.__func__))
                else:
                    wrapped = self._wrap(name, mode, raw)
                self._replace(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, mode, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------ windows
    def timed_pass(self, func: Callable[[], Any]) -> Tuple[float, Any]:
        """Run one pass with the wrappers installed; returns (wall seconds, result)."""
        self.phase = "pass"
        self.install()
        start = time.perf_counter()
        try:
            result = func()
        finally:
            end = time.perf_counter()
            self.uninstall()
            self.phase = "setup"
        self.windows.append((start, end))
        return end - start, result

    def traced_setup(self, func: Callable[[], Any]) -> Any:
        self.install()
        try:
            return func()
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ analysis
    def _outermost(self, span: Span) -> bool:
        """True unless an ancestor span has the same name (recursion is counted once)."""
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor.name == span.name:
                return False
            parent = ancestor.parent
        return True

    def totals(self, phases: Tuple[str, ...] = ("setup", "pass")) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive seconds, calls and self seconds, as one pass.

        Setup spans count once; pass spans are averaged over the traced passes.
        """
        passes = max(1, len(self.windows))
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span.phase not in phases:
                continue
            share = 1.0 if span.phase == "setup" else 1.0 / passes
            row = out.setdefault(span.name, {"s": 0.0, "calls": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += share
            row["self_s"] += (duration - child_time[index]) * share
            if self._outermost(span):
                row["s"] += duration * share
        return out

    def coverage(self) -> Tuple[float, float]:
        """(covered share, unattributed seconds) of the traced passes' wall time, per pass."""
        passes = max(1, len(self.windows))
        wall = sum(end - start for start, end in self.windows)
        # Top-level spans of concurrent threads overlap: count their union once.
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(
            (span.start, span.end)
            for span in self.spans
            if span.phase == "pass" and span.parent < 0
        ):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return (covered / wall if wall else 0.0), (wall - covered) / passes

    def write(self, path: str) -> None:
        """The span log: one JSON object per span, parents by index."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "phase": span.phase,
                        }
                    )
                    + "\n"
                )

    def report(self) -> str:
        """A self-time table of one traced pass with an explicit ``(unattributed)`` row."""
        totals = self.totals(phases=("pass",))
        coverage, unattributed = self.coverage()
        wall_per_pass = sum(end - start for start, end in self.windows) / max(1, len(self.windows))
        lines = [f"{'layer':32s} {'self_s':>10s} {'incl_s':>10s} {'calls':>10s} {'share':>7s}"]
        for name, row in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
            share = row["self_s"] / wall_per_pass if wall_per_pass else 0.0
            lines.append(
                f"{name:32s} {row['self_s']:10.4f} {row['s']:10.4f} "
                f"{row['calls']:10.1f} {share:7.1%}"
            )
        share = unattributed / wall_per_pass if wall_per_pass else 0.0
        lines.append(f"{'(unattributed)':32s} {unattributed:10.4f} {'':10s} {'':10s} {share:7.1%}")
        lines.append(f"coverage {coverage:.1%} of {wall_per_pass:.3f} s per traced pass")
        return "\n".join(lines)


def unique_ratio(recorder: Recorder, name: str) -> float:
    """Distinct argument keys over calls for a keyed span (0 when never called)."""
    calls = sum(1 for span in recorder.spans if span.name == name)
    distinct = len(recorder.keys.get(name, ()))
    return distinct / calls if calls else 0.0


def per_pass_count(recorder: Recorder, name: str) -> float:
    """Calls of a ``count`` target per traced pass."""
    passes = max(1, len(recorder.windows))
    return recorder.counts.get(name, 0) / passes
