#!/usr/bin/env python3
"""Paper-scale benchmark for the WATOS reproduction.

Run from the repository root::

    python3 paperbench/run.py --workload ga-pressured --seed 1 --seconds 20 --trace 0

One run sets a workload up from ``--seed``, times whole passes over it until
``--seconds`` of pass time have been measured, checks every pass's outputs and
prints one JSON object as the last line of standard output.  ``ops_per_s`` and
``setup_s`` are scaled to a reference host speed (see ``hostspeed.py``)::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
from a separate traced run (see ``NOTES.md``).  A failed output check prints
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
#: Fresh processes timed from launch to ready; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Host-gauge samples taken just before and just after each timed pass or probe.
EDGE_SAMPLES = 2
#: ``-X importtime`` processes; the import metrics are their medians.
IMPORT_PROBES = 3
WORKLOAD_NAMES = ("ga-pressured", "dse-die", "sweep-store", "online-storm")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------- set-up
def setup_probe(name: str, seed: int, workdir: str) -> None:
    """Child side of a set-up probe: import, resolve inputs, open the session."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.open_inputs()
    session = workload.open_session()
    if session.pool is not None:
        session.pool.map(abs, [1, -1])  # the pool forks on first use
    print("ready", flush=True)
    session.close()


def measure_setup(name: str, seed: int) -> float:
    """Median launch-to-ready seconds over fresh processes, at reference host speed."""
    from hostspeed import ScaledClock

    times = []
    for _ in range(SETUP_PROBES):
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", name, "--seed", str(seed),
        ]
        clock = ScaledClock(EDGE_SAMPLES)
        clock.start()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env())
        try:
            line = child.stdout.readline()
            clock.stop()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(clock.seconds)
    return statistics.median(times)


def measure_imports() -> Dict[str, float]:
    """Cumulative import seconds of repro.api, numpy and networkx (``-X importtime``)."""
    wanted = {"repro.api": "import.repro_api_s", "numpy": "import.numpy_s",
              "networkx": "import.networkx_s"}
    samples: Dict[str, List[float]] = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.api"],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        found = {metric: 0.0 for metric in wanted.values()}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                found[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
        for metric, value in found.items():
            samples[metric].append(value)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------- checks
def compare_cells(reference: Dict[str, str], cells: Dict[str, str], what: str) -> List[str]:
    """Cells present in both passes must carry the same digest."""
    return [
        f"{what}: cell {cell} differs"
        for cell in sorted(set(reference) & set(cells))
        if reference[cell] != cells[cell]
    ]


class Tally:
    """Operation counts and output problems over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Dict[str, str] = {}

    def add(self, outcome, what: str) -> None:
        self.attempted += outcome.ok + outcome.failed
        self.failed += outcome.failed
        self.problems.extend(f"{what}: {problem}" for problem in outcome.problems)
        self.problems.extend(compare_cells(self.reference, outcome.cells, what))
        for cell, value in outcome.cells.items():
            self.reference.setdefault(cell, value)


def timed(func) -> Tuple[float, Any]:
    gc.collect()
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------- runs
def run_untraced(workload, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str]]:
    from hostspeed import ScaledClock

    workload.open_inputs()
    rates: List[float] = []
    measured = 0.0
    first = None
    index = 0
    while measured < seconds or index == 0:
        fixture = workload.fixture(index)
        gc.collect()
        clock = ScaledClock(EDGE_SAMPLES)
        clock.start()
        raw = workload.execute(fixture, between=clock.split)
        clock.stop()
        outcome = workload.check(raw, first=index == 0)
        tally.add(outcome, f"pass {index}")
        if first is None:
            first = outcome
        rates.append(outcome.ok / clock.seconds)
        measured += clock.wall
        print(
            f"pass {index}: {clock.wall:.3f} s, {outcome.ok} ok, {outcome.failed} failed, "
            f"{outcome.ok / clock.wall:.2f} ops/s on this host, "
            f"{rates[-1]:.2f} at reference speed",
            flush=True,
        )
        index += 1
    return {
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_best_pflops": (first.sim_pflops, "PFLOP/s"),
    }


def run_traced(workload, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str]]:
    from tracing import Recorder, per_pass_count, unique_ratio

    recorder = Recorder()
    recorder.traced_setup(workload.open_inputs)
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    traced = []
    measured = 0.0
    index = 0
    while measured < seconds or index == 0:
        # Alternate which side of the pair runs first, so warm-up favours neither.
        for side in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
            fixture = workload.fixture(len(plain_walls) + len(traced_walls))
            if side == "untraced":
                wall, raw = timed(lambda: workload.execute(fixture))
                outcome = workload.check(raw, first=not plain_walls)
                plain_walls.append(wall)
            else:
                gc.collect()
                wall, raw = recorder.timed_pass(lambda: workload.execute(fixture))
                outcome = workload.check(raw, first=False)
                traced.append(outcome)
                traced_walls.append(wall)
            tally.add(outcome, f"{side} pass {index}")
            measured += wall
        print(
            f"pair {index}: untraced {plain_walls[-1]:.3f} s, traced {traced_walls[-1]:.3f} s",
            flush=True,
        )
        index += 1

    speedup = 0.0
    if workload.name == "sweep-store":
        # The cold cells once more, serially, for the pool's speed-up over serial.
        fixture = workload.fixture(len(plain_walls) + len(traced_walls))
        serial_wall, raw = timed(lambda: workload.execute(fixture, jobs=1))
        tally.add(workload.check(raw, first=False), "serial pass")
        speedup = serial_wall / statistics.median(plain_walls)
        if speedup < 1.0:
            print(
                f"FINDING: pool=2, jobs=2 sweep is {speedup:.2f}x serial "
                f"({statistics.median(plain_walls):.2f} s against {serial_wall:.2f} s)",
                flush=True,
            )

    passes = len(traced)
    print(recorder.report(), flush=True)
    os.makedirs(WORK, exist_ok=True)
    recorder.write(os.path.join(WORK, f"spans-{workload.name}.jsonl"))

    totals = recorder.totals()

    def incl(name: str) -> float:
        return totals.get(name, {}).get("s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0.0)

    def reported(name: str) -> float:
        return sum(outcome.layers.get(name, 0.0) for outcome in traced) / passes

    coverage, unattributed = recorder.coverage()
    layers: Dict[str, Tuple[float, str]] = {
        "placement.optimize_s": (incl("placement.optimize"), "s"),
        "placement.optimize_calls": (calls("placement.optimize"), "count"),
        "placement.global_cost_calls": (per_pass_count(recorder, "placement.global_cost"), "count"),
        "recomputation.schedule_s": (incl("recomputation.schedule"), "s"),
        "recomputation.schedule_calls": (calls("recomputation.schedule"), "count"),
        "recomputation.schedule_unique_ratio": (
            unique_ratio(recorder, "recomputation.schedule"), "ratio"),
        "central_scheduler.build_plan_s": (incl("central_scheduler.build_plan"), "s"),
        "central_scheduler.build_plan_calls": (calls("central_scheduler.build_plan"), "count"),
        "dram_allocation.allocate_s": (incl("dram_allocation.allocate"), "s"),
        "evaluator.evaluate_s": (incl("evaluator.evaluate"), "s"),
        "evaluator.evaluate_calls": (calls("evaluator.evaluate"), "count"),
        "evaluator.raw_evals": (per_pass_count(recorder, "evaluator.raw_eval"), "count"),
        "tp_engine.stage_times_s": (incl("tp_engine.stage_times"), "s"),
        "tp_engine.stage_times_calls": (calls("tp_engine.stage_times"), "count"),
        "pipeline.simulate_1f1b_s": (incl("pipeline.simulate_1f1b"), "s"),
        "pipeline.simulate_1f1b_calls": (calls("pipeline.simulate_1f1b"), "count"),
        "predictor.estimate_batch_s": (incl("predictor.estimate_batch"), "s"),
        "memory.pipeline_breakdown_s": (incl("memory.pipeline_breakdown"), "s"),
        "genetic.optimize_s": (incl("genetic.optimize"), "s"),
        "genetic.generations": (reported("genetic.generations"), "count"),
        "hardware_dse.sweep_s": (incl("hardware_dse.sweep"), "s"),
        "hardware_dse.points": (reported("hardware_dse.points"), "count"),
        "evalcache.hits": (reported("evalcache.hits"), "count"),
        "evalcache.misses": (reported("evalcache.misses"), "count"),
        "evalcache.hit_ratio": (reported("evalcache.hit_ratio"), "ratio"),
        "evalcache.fingerprint_s": (incl("evalcache.fingerprint"), "s"),
        "evalcache.fingerprint_calls": (calls("evalcache.fingerprint"), "count"),
        "evalcache.flush_s": (incl("evalcache.flush"), "s"),
        "evalcache.load_s": (incl("evalcache.load"), "s"),
        "evalcache.store_loaded": (reported("evalcache.store_loaded"), "count"),
        "parallel_map.map_s": (incl("parallel_map.map"), "s"),
        "parallel_map.map_calls": (calls("parallel_map.map"), "count"),
        "parallel_map.speedup_vs_serial": (speedup, "x"),
        "sweep.cells_failed": (reported("sweep.cells_failed"), "count"),
        "results.put_s": (incl("results.put"), "s"),
        "results.put_calls": (calls("results.put"), "count"),
        "online.serve_s": (incl("online.serve"), "s"),
        "online.price_s": (incl("online.price"), "s"),
        "online.price_calls": (calls("online.price"), "count"),
        "online.engine_self_s": (totals.get("online.serve", {}).get("self_s", 0.0), "s"),
        "online.preemptions": (reported("online.preemptions"), "count"),
        "trace.generate_s": (incl("trace.generate"), "s"),
        "trace.fingerprint_s": (incl("trace.fingerprint"), "s"),
        "ops_failed_ratio": (tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"),
        "sim_wait_p95_s": (reported("sim_wait_p95_s"), "s"),
        "sim_slo_miss_ratio": (reported("sim_slo_miss_ratio"), "ratio"),
        "bench.coverage": (coverage, "ratio"),
        "bench.unattributed_s": (unattributed, "s"),
        "bench.trace_overhead_pct": (
            (sum(traced_walls) / sum(plain_walls) - 1.0) * 100.0, "%"),
    }
    for metric, value in measure_imports().items():
        layers[metric] = (value, "s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="pass time to measure (whole passes; at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "api", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, workdir)
            return 0
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        if args.trace:
            metrics = run_traced(workload, args.seconds, tally)
        else:
            metrics = run_untraced(workload, args.seconds, tally)
            metrics["setup_s"] = (measure_setup(args.workload, args.seed), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
