"""The benchmark's workloads, built on the public entry points of ``repro.api``.

Each workload splits one run into the parts the benchmark times separately:

* ``open_inputs`` resolves or generates the inputs (counted in ``setup_s``);
* ``open_session`` builds the ``Session`` the way a pass does (counted in
  ``setup_s`` too, pool fork included);
* ``fixture`` prepares one pass's files (untimed);
* ``execute`` is one timed pass over the workload's cells; it calls
  ``between()``, when given, between two operations (the host-speed gauge,
  whose time the benchmark takes out of the pass);
* ``check`` verifies a pass's outputs (untimed) and digests them per cell.

Every pass of a run has the same inputs, so every pass must produce the same
per-cell digests as the first.  The first pass also gets the expensive checks:
the best plans are re-priced from scratch and compared with what the search
returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.api import ExperimentSpec, Session, SweepSpec, open_result_store, registry
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import fingerprint
from repro.core.evaluator import Evaluator
from repro.core.hardware_dse import DieGranularityDse
from repro.online import StormSpec
from repro.online import trace as online_trace

#: The §V evaluation workloads and their sequence lengths, batched as the figure
#: benchmarks batch them (global batch 128, micro-batch 4).
PAPER_WORKLOADS = (
    ("llama2-30b", 4096),
    ("llama3-70b", 4096),
    ("gshard-137b", 2048),
    ("gpt-175b", 2048),
)
TABLE_II = ("config1", "config2", "config3", "config4")


def paper_workload(model: str, sequence_length: int) -> Dict[str, Any]:
    return {
        "model": model,
        "global_batch_size": 128,
        "micro_batch_size": 4,
        "sequence_length": sequence_length,
    }


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def geomean(values: List[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive or len(positive) != len(values):
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


@dataclasses.dataclass
class PassOutcome:
    """What ``check`` makes of one pass."""

    ok: int
    failed: int
    #: cell name -> digest of that cell's simulated outputs.
    cells: Dict[str, str]
    #: Failed output checks (empty when the pass is correct).
    problems: List[str]
    #: Geometric mean of the best plans' useful PFLOP/s (first pass only).
    sim_pflops: float = 0.0
    #: Per-layer numbers the pass reports itself (cache counters, queue metrics…).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def cache_layers(stats: Dict[str, float]) -> Dict[str, float]:
    return {
        "evalcache.hits": stats["hits"],
        "evalcache.misses": stats["misses"],
        "evalcache.hit_ratio": stats["hit_rate"],
        "evalcache.store_loaded": stats["loaded"],
    }


def check_ga_run(name: str, run, wafer, workload, first: bool, problems: List[str]):
    """Digest of one GA run's best plan and result, or ``None`` when it has none.

    On the first pass the best plan is also priced again by a fresh, uncached
    evaluator, which must agree with what the search returned.
    """
    if run.plan is None or run.result is None or run.result.oom:
        problems.append(f"{name}: no feasible plan")
        return None
    if first and Evaluator(wafer, use_cache=False).evaluate(workload, run.plan) != run.result:
        problems.append(f"{name}: best plan re-priced differently")
    return digest(
        {
            "plan": fingerprint(run.plan),
            "result": dataclasses.asdict(run.result),
            "metrics": run.metrics,
        }
    )


def run_counted(session: Session, spec: ExperimentSpec):
    """``session.run`` with exceptions counted as a failed operation."""
    try:
        return session.run(spec)
    except Exception:
        traceback.print_exc()
        return None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def open_inputs(self) -> None:
        raise NotImplementedError

    def open_session(self) -> Session:
        return Session()

    def fixture(self, index: int) -> Dict[str, str]:
        return {}

    def execute(self, fixture: Dict[str, str], between: Optional[Callable[[], Any]] = None) -> Any:
        raise NotImplementedError

    def check(self, result: Any, first: bool) -> PassOutcome:
        raise NotImplementedError


class _RunMatrix(Workload):
    """A fixed list of ``Session.run`` specs on one cold in-memory session."""

    def execute(self, fixture: Dict[str, str], between: Optional[Callable[[], Any]] = None) -> Any:
        with self.open_session() as session:
            runs = []
            for index, spec in enumerate(self.specs):
                if index and between is not None:
                    between()
                runs.append(run_counted(session, spec))
            return runs, session.cache.stats.as_dict(), session.cache


class GaPressured(_RunMatrix):
    """GA refinement on config3 for the four §V workloads (DRAM-bound cells)."""

    name = "ga-pressured"

    def open_inputs(self) -> None:
        self.wafer = registry.resolve_wafer("config3")
        self.specs = [
            ExperimentSpec(
                kind="ga",
                wafer="config3",
                workload=paper_workload(model, seq),
                seed=self.seed,
                name=model,
            )
            for model, seq in PAPER_WORKLOADS
        ]
        self.workloads = [registry.resolve_workload(spec.workload) for spec in self.specs]

    def check(self, result: Any, first: bool) -> PassOutcome:
        runs, stats, _cache = result
        problems: List[str] = []
        cells: Dict[str, str] = {}
        throughputs: List[float] = []
        for spec, workload, run in zip(self.specs, self.workloads, runs):
            if run is None:
                continue
            cell = check_ga_run(spec.name, run, self.wafer, workload, first, problems)
            if cell is not None:
                cells[spec.name] = cell
                throughputs.append(run.result.throughput / 1e15)
        ok = len(cells)
        layers = cache_layers(stats)
        layers["genetic.generations"] = sum(
            run.metrics.get("generations", 0) for run in runs if run is not None
        )
        return PassOutcome(
            ok=ok,
            failed=len(runs) - ok,
            cells=cells,
            problems=problems,
            sim_pflops=geomean(throughputs) if first else 0.0,
            layers=layers,
        )


class DseDie(_RunMatrix):
    """Die-granularity DSE (Fig. 25) for the four §V workloads."""

    name = "dse-die"

    def open_inputs(self) -> None:
        self.specs = [
            ExperimentSpec(kind="dse", workload=paper_workload(model, seq), name=model)
            for model, seq in PAPER_WORKLOADS
        ]
        self.workloads = [registry.resolve_workload(spec.workload) for spec in self.specs]

    @staticmethod
    def absolute_throughput(workload, point, cache) -> float:
        """Useful FLOP/s of a design point's best plan, priced as the DSE prices it."""
        wafer = DieGranularityDse(workload).build_wafer(point.area_mm2, point.aspect_ratio)
        scheduler = CentralScheduler(
            wafer,
            evaluator=Evaluator(wafer, cache=cache),
            max_tp=8,
            optimize_placement=False,
        )
        best = scheduler.best(workload)
        return best.result.throughput if best is not None else 0.0

    def check(self, result: Any, first: bool) -> PassOutcome:
        runs, stats, cache = result
        problems: List[str] = []
        cells: Dict[str, str] = {}
        ok = failed = 0
        throughputs: List[float] = []
        for spec, workload, run in zip(self.specs, self.workloads, runs):
            points = list(run.details) if run is not None else []
            expected = len(spec.areas_mm2) * len(spec.aspect_ratios)
            ok += len(points)
            failed += expected - len(points)
            if len(points) != expected:
                problems.append(f"{spec.name}: {len(points)} of {expected} design points")
                continue
            best = max(points, key=lambda p: p.objective)
            if run.metrics.get("best_design") != best.name:
                problems.append(f"{spec.name}: reported best is not the best objective")
            if first:
                top = max(points, key=lambda p: p.throughput)
                best_abs = self.absolute_throughput(workload, best, cache)
                top_abs = self.absolute_throughput(workload, top, cache)
                if top_abs <= 0 or not math.isclose(
                    best_abs / top_abs, best.throughput, rel_tol=1e-9
                ):
                    problems.append(f"{spec.name}: normalised throughput does not re-price")
                throughputs.append(best_abs / 1e15)
            cells[spec.name] = digest(
                {"points": [dataclasses.asdict(p) for p in points], "metrics": run.metrics}
            )
        layers = cache_layers(stats)
        layers["hardware_dse.points"] = ok
        return PassOutcome(
            ok=ok,
            failed=failed,
            cells=cells,
            problems=problems,
            sim_pflops=geomean(throughputs) if first else 0.0,
            layers=layers,
        )


class SweepStore(Workload):
    """The README's persistent sweep: sqlite cache store, pool of 2, two cell threads.

    An untimed fixture prices every other cell into the cache store first, so the
    timed sweep mixes store hits with pricing and writes.
    """

    name = "sweep-store"
    MODELS = ("llama2-7b", "mamba-2.8b", "sd-3.5-large", "gr-24")
    POOL = 2
    JOBS = 2

    def open_inputs(self) -> None:
        self.spec = SweepSpec.from_dict(
            {
                "base": {"kind": "ga", "seed": self.seed},
                "grid": {"wafer": list(TABLE_II), "workload": list(self.MODELS)},
            }
        )
        self.cells = self.spec.expand()
        self._prewarmed: Optional[str] = None

    def open_session(self, store: Optional[str] = None) -> Session:
        return Session(pool=self.POOL, store=store or os.path.join(self.workdir, "probe.sqlite"))

    def prewarm(self) -> str:
        """The untimed fixture: price every other cell into a store, once per run."""
        if self._prewarmed is None:
            path = os.path.join(self.workdir, "prewarm.sqlite")
            with Session(store=path) as session:
                for cell in self.cells[::2]:
                    session.run(cell.spec)
            self._prewarmed = path
        return self._prewarmed

    def fixture(self, index: int) -> Dict[str, str]:
        directory = os.path.join(self.workdir, f"pass-{index}")
        os.makedirs(directory, exist_ok=True)
        cache = os.path.join(directory, "cache.sqlite")
        shutil.copyfile(self.prewarm(), cache)
        return {"cache": cache, "results": os.path.join(directory, "results.sqlite")}

    def execute(
        self,
        fixture: Dict[str, str],
        between: Optional[Callable[[], Any]] = None,
        jobs: Optional[int] = None,
    ) -> Any:
        session = (
            self.open_session(fixture["cache"]) if jobs is None else Session(store=fixture["cache"])
        )
        runs: List[Any] = []
        errors: List[str] = []
        try:
            runs = list(
                session.sweep(self.spec, results=fixture["results"], jobs=jobs or self.JOBS)
            )
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            stats = session.cache.stats.as_dict()
            try:
                session.close()
            except Exception:
                # The close flushes the cache store from this thread; see NOTES.md.
                errors.append(traceback.format_exc())
        return runs, errors, stats

    def check(self, result: Any, first: bool) -> PassOutcome:
        runs, errors, stats = result
        problems: List[str] = []
        cells: Dict[str, str] = {}
        throughputs: List[float] = []
        failed_cells = 0
        reasons: Dict[str, int] = {}
        for cell, run in zip(self.cells, runs):
            if run.failed:
                failed_cells += 1
                lines = run.error.strip().splitlines() or ["unknown error"]
                reason = lines[-1].split(". ")[0]
                reasons[reason] = reasons.get(reason, 0) + 1
                continue
            wafer = registry.resolve_wafer(cell.spec.wafer)
            workload = registry.resolve_workload(cell.spec.workload)
            value = check_ga_run(cell.spec.name, run, wafer, workload, first, problems)
            if value is not None:
                cells[cell.cell_id] = value
                throughputs.append(run.result.throughput / 1e15)
        for reason, count in reasons.items():
            print(f"{count} cell(s) quarantined: {reason}", flush=True)
        for error in errors:
            print(f"session error: {error.strip().splitlines()[-1][:160]}", flush=True)
        missing = len(self.cells) - len(runs)
        layers = cache_layers(stats)
        layers["sweep.cells_failed"] = failed_cells + missing
        layers["genetic.generations"] = sum(
            run.metrics.get("generations", 0) for run in runs if not run.failed
        )
        return PassOutcome(
            ok=len(cells),
            # A close that raised is one more failed operation.
            failed=failed_cells + missing + len(errors),
            cells=cells,
            problems=problems,
            sim_pflops=geomean(throughputs) if first else 0.0,
            layers=layers,
        )


class OnlineStorm(Workload):
    """A seeded 10k-job EDF trace with one §VI-D fault storm, served online."""

    name = "online-storm"
    JOBS = 10_000
    #: Jobs per virtual second; puts the fleet near 0.8 utilisation.
    RATE = 3.0
    DEADLINE_S = 3.0
    MODELS = ("llama2-7b", "mamba-2.8b", "sd-3.5-large", "qwen3-next-80b-a3b")

    def open_inputs(self) -> None:
        horizon = self.JOBS / self.RATE
        self.trace = online_trace.generate_trace(
            jobs=self.JOBS,
            rate=self.RATE,
            seed=self.seed,
            workloads=list(self.MODELS),
            fleet=list(TABLE_II),
            deadline_s=self.DEADLINE_S,
            storms=[
                StormSpec(
                    wafer=0,
                    at=horizon / 3.0,
                    duration=60.0,
                    die_fault_rate=0.25,
                    mean_repair_s=20.0,
                )
            ],
            name="online-storm",
        )

    def fixture(self, index: int) -> Dict[str, str]:
        return {"results": os.path.join(self.workdir, f"online-{index}.jsonl")}

    def execute(self, fixture: Dict[str, str], between: Optional[Callable[[], Any]] = None) -> Any:
        with self.open_session() as session:
            report = session.serve(self.trace, policy="edf", results=fixture["results"])
            return report, session.cache.stats.as_dict(), session.cache, fixture["results"]

    def plan_pflops(self, cache) -> float:
        """Geometric mean of the plans the engine prices each (wafer, model) pair with."""
        values = []
        for wafer_name in TABLE_II:
            wafer = registry.resolve_wafer(wafer_name)
            scheduler = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=cache))
            for model in self.MODELS:
                best = scheduler.best(registry.resolve_workload(model))
                values.append(best.result.throughput / 1e15 if best is not None else 0.0)
        return geomean(values)

    def check(self, result: Any, first: bool) -> PassOutcome:
        report, stats, cache, path = result
        problems: List[str] = []
        with open_result_store(path) as store:
            rows = store.load()
        os.unlink(path)
        cells = {
            cell_id: digest({"result": record["result"], "spec": record["spec"]})
            for cell_id, record in rows.items()
        }
        summary = [r for r in rows.values() if r["result"]["kind"] == "trace_fleet"]
        if len(rows) != self.JOBS + 1 or len(summary) != 1:
            problems.append(f"store holds {len(rows)} rows, expected {self.JOBS + 1}")
        elif summary[0]["result"]["metrics"] != json.loads(
            json.dumps(report.summary.metrics)
        ):
            problems.append("stored fleet summary differs from the report")
        if report.jobs != self.JOBS:
            problems.append(f"report covers {report.jobs} of {self.JOBS} jobs")
        served = report.completed
        metrics = report.summary.metrics
        layers = cache_layers(stats)
        layers.update(
            {
                "online.preemptions": report.preemptions,
                "sim_wait_p95_s": metrics.get("wait_p95_s", 0.0),
                "sim_slo_miss_ratio": metrics.get("slo_miss_rate", 0.0),
            }
        )
        return PassOutcome(
            ok=served,
            failed=self.JOBS - served,
            cells=cells,
            problems=problems,
            sim_pflops=self.plan_pflops(cache) if first else 0.0,
            layers=layers,
        )


WORKLOADS = {
    cls.name: cls for cls in (GaPressured, DseDie, SweepStore, OnlineStorm)
}
