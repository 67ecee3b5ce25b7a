"""Golden equivalence of signature-level GCMR and TP-engine pricing against per-stage pricing.

``NaiveTPEngine`` prices every stage from scratch — re-shards the layer graph, profiles
it and prices the TP all-reduces on every call — and ``NaiveGcmrScheduler`` builds one
frontier per stage and scans the candidate thresholds linearly, exactly as the
per-stage implementations did.  The production engine prices from one layer profile
per (workload shape, TP degree, compute throughput, link quality), and GCMR prices one
frontier per (layer count, edge flag) signature and bisects the thresholds; both must
reproduce the references exactly (``==`` on plans and stage times).  The pinned explore
digests below were computed with the per-stage implementation.
"""

from __future__ import annotations

import functools
import itertools
from typing import List, Optional, Tuple

import pytest

from repro.api import registry
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import fingerprint
from repro.core.evaluator import Evaluator
from repro.core.hardware_dse import DieGranularityDse
from repro.core.plan import RecomputeConfig
from repro.core.recomputation import GcmrPlan, GcmrScheduler, StageOption
from repro.core.tp_engine import StageTimes, TPEngine
from repro.hardware.faults import FaultModel
from repro.parallelism.strategies import enumerate_tp_pp
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.transformer import embedding_operator
from repro.workloads.workload import TrainingWorkload

#: The four §V workloads plus one MoE and one Mamba model.
WORKLOADS = (
    ("llama2-30b", 4096),
    ("llama3-70b", 4096),
    ("gshard-137b", 2048),
    ("gpt-175b", 2048),
    ("deepseek-v3-671b", 2048),
    ("mamba-2.8b", 2048),
)
CONFIGS = ("config1", "config2", "config3", "config4")
DSE_POINTS = ((200.0, 1.0), (200.0, 1.6), (600.0, 1.0), (600.0, 1.6))


class NaiveTPEngine(TPEngine):
    """Prices every stage signature from scratch (no memo on any stage input)."""

    def stage_times(
        self,
        workload,
        stage,
        layers_in_stage,
        tp,
        pp,
        recomputed_ops=frozenset(),
        link_quality=1.0,
        compute_throughput=1.0,
    ) -> StageTimes:
        is_edge = stage == 0 or stage == pp - 1
        return self._price_stage_reference(
            workload, layers_in_stage, tp, recomputed_ops, is_edge, link_quality, compute_throughput
        )

    def _price_stage_reference(
        self,
        workload,
        layers_in_stage,
        tp,
        recomputed_ops,
        is_edge,
        link_quality,
        compute_throughput,
    ) -> StageTimes:
        operators = self._layer_graph(workload)

        latencies = self.profile.latencies([op.sharded(tp) for op in operators])
        fwd_compute = 0.0
        recompute_time = 0.0
        for op, base_latency in zip(operators, latencies):
            latency = base_latency / compute_throughput
            fwd_compute += latency
            if op.name in recomputed_ops:
                recompute_time += latency
        tp_comm = self.layer_tp_comm_time(operators, tp, link_quality)

        fwd_layer = fwd_compute + tp_comm
        bwd_layer = 2.0 * fwd_compute + tp_comm
        recompute_layer = recompute_time

        forward = layers_in_stage * fwd_layer
        backward = layers_in_stage * bwd_layer
        recompute = layers_in_stage * recompute_layer

        if is_edge:
            embed = embedding_operator(
                workload.model, workload.micro_batch_size, workload.seq_len
            ).sharded(tp)
            embed_time = self.profile.latency(embed) / compute_throughput
            forward += embed_time
            backward += 2.0 * embed_time

        return StageTimes(
            forward=forward,
            backward=backward,
            recompute=recompute,
            tp_comm=(layers_in_stage * tp_comm),
        )


class NaiveGcmrScheduler(GcmrScheduler):
    """One frontier per stage and a linear threshold scan.

    ``schedule`` additionally records the index of the threshold the scan stopped at
    (``None`` when no threshold is feasible) in :attr:`threshold_index`.
    """

    threshold_index: Optional[int] = None

    def _stage_options(
        self,
        workload: TrainingWorkload,
        memory: TrainingMemoryModel,
        steps,
        stage: int,
        layers: int,
        tp: int,
        pp: int,
        num_microbatches: int,
    ) -> List[StageOption]:
        options: List[StageOption] = []
        for names, fraction in steps:
            breakdown = memory.stage_breakdown(
                stage,
                pp,
                tp,
                workload.micro_batch_size,
                workload.seq_len,
                num_microbatches,
                recompute_fraction=fraction,
            )
            times = self.tp_engine.stage_times(
                workload, stage, layers, tp, pp, recomputed_ops=names
            )
            options.append(
                StageOption(
                    recomputed=names,
                    memory_bytes=breakdown.total_bytes,
                    stage_time=times.forward + times.backward_total,
                )
            )
        return options

    def schedule(self, workload, tp, pp, num_microbatches=None) -> GcmrPlan:
        if tp <= 0 or pp <= 0:
            raise ValueError("parallelism degrees must be positive")
        n = num_microbatches or workload.num_microbatches(1)
        capacity = self.wafer.die.dram_capacity
        wafer_budget = capacity * pp

        memory = TrainingMemoryModel(workload.model)
        steps = self._frontier_steps(workload, tp)
        frontiers = [
            self._stage_options(workload, memory, steps, stage, layers, tp, pp, n)
            for stage, layers in enumerate(memory.layers_per_stage(pp))
        ]

        candidates = sorted({opt.stage_time for frontier in frontiers for opt in frontier})
        chosen: Optional[List[StageOption]] = None
        self.threshold_index = None
        for index, threshold in enumerate(candidates):
            selection: List[StageOption] = []
            feasible = True
            for frontier in frontiers:
                allowed = [opt for opt in frontier if opt.stage_time <= threshold + 1e-12]
                if not allowed:
                    feasible = False
                    break
                selection.append(min(allowed, key=lambda opt: opt.memory_bytes))
            if not feasible:
                continue
            if sum(opt.memory_bytes for opt in selection) <= wafer_budget:
                chosen = self._relax_unnecessary_recompute(
                    frontiers, selection, threshold, wafer_budget
                )
                self.threshold_index = index
                break

        if chosen is None:
            full = [frontier[-1] for frontier in frontiers]
            recompute = RecomputeConfig(stages=tuple(opt.recomputed for opt in full))
            return GcmrPlan(
                recompute=recompute,
                mem_pairs=(),
                stage_memory_bytes=tuple(opt.memory_bytes for opt in full),
                senders=(),
                helpers=(),
                max_stage_time=max(opt.stage_time for opt in full),
                feasible=False,
            )

        recompute = RecomputeConfig(stages=tuple(opt.recomputed for opt in chosen))
        stage_memory = [opt.memory_bytes for opt in chosen]
        senders, helpers, pairs = self._pair_stages(stage_memory, capacity)
        return GcmrPlan(
            recompute=recompute,
            mem_pairs=tuple(pairs),
            stage_memory_bytes=tuple(stage_memory),
            senders=tuple(senders),
            helpers=tuple(helpers),
            max_stage_time=max(opt.stage_time for opt in chosen),
            feasible=True,
        )


def workload_of(model: str, seq: int) -> TrainingWorkload:
    return registry.resolve_workload(
        {
            "model": model,
            "global_batch_size": 128,
            "micro_batch_size": 4,
            "sequence_length": seq,
        }
    )


@functools.lru_cache(maxsize=None)
def wafers() -> Tuple:
    dse = DieGranularityDse(workload_of("llama2-30b", 4096))
    return tuple(registry.resolve_wafer(config) for config in CONFIGS) + tuple(
        dse.build_wafer(area, ratio) for area, ratio in DSE_POINTS
    )


@functools.lru_cache(maxsize=None)
def gcmr_grid() -> Tuple[Tuple[GcmrPlan, GcmrPlan, Optional[int]], ...]:
    """(production plan, reference plan, reference threshold index) over the grid."""
    rows = []
    for wafer in wafers():
        fast = GcmrScheduler(wafer)
        naive = NaiveGcmrScheduler(wafer, NaiveTPEngine(wafer, memoize=False))
        for model, seq in WORKLOADS:
            workload = workload_of(model, seq)
            for tp, pp in enumerate_tp_pp(wafer.num_dies, workload.model.num_layers):
                reference = naive.schedule(workload, tp, pp)
                rows.append((fast.schedule(workload, tp, pp), reference, naive.threshold_index))
    return tuple(rows)


class TestGoldenGcmr:
    def test_plans_match_reference(self):
        for fast, reference, _index in gcmr_grid():
            assert fast == reference

    def test_grid_exercises_every_branch(self):
        rows = gcmr_grid()
        assert any(reference.feasible for _fast, reference, _index in rows)
        assert any(not reference.feasible for _fast, reference, _index in rows)
        # The bisection must have to move past the smallest candidate at least once.
        assert any(index is not None and index > 0 for _fast, _reference, index in rows)
        assert any(index == 0 for _fast, _reference, index in rows)


#: (stage, layers in the stage, pp): first, middle and last stages, and a lone stage.
STAGE_SHAPES = ((0, 3, 4), (1, 3, 4), (3, 7, 4), (0, 5, 1))


class TestGoldenStageTimes:
    @pytest.mark.parametrize("wafer_index", [2, 4])
    def test_stage_times_match_reference(self, wafer_index):
        wafer = wafers()[wafer_index]
        engines = (TPEngine(wafer), TPEngine(wafer, memoize=False))
        naive = NaiveTPEngine(wafer)
        gcmr = GcmrScheduler(wafer)
        for model, seq in WORKLOADS:
            workload = workload_of(model, seq)
            all_ops = frozenset(op.name for op in workload.layer_operators())
            for tp in (1, 2, 4, 8):
                recompute_sets = [names for names, _ in gcmr._frontier_steps(workload, tp)]
                grid = itertools.product(
                    recompute_sets + [all_ops], STAGE_SHAPES, (1.0, 0.5), (1.0, 0.6)
                )
                for names, (stage, layers, pp), link, compute in grid:
                    args = (workload, stage, layers, tp, pp, names, link, compute)
                    expected = naive.stage_times(*args)
                    for engine in engines:
                        assert engine.stage_times(*args) == expected


def _explore_digest(
    wafer_spec, model: str, seq: int, optimize_placement: bool, faulty: bool
) -> str:
    if isinstance(wafer_spec, str):
        wafer = registry.resolve_wafer(wafer_spec)
    else:
        wafer = DieGranularityDse(workload_of("llama2-30b", 4096)).build_wafer(*wafer_spec)
    faults = FaultModel()
    if faulty:
        faults.add_die_fault((1, 1), 0.5)
        faults.add_link_fault(((0, 0), (0, 1)), 0.3)
    scheduler = CentralScheduler(
        wafer,
        evaluator=Evaluator(wafer, faults=faults, use_cache=False),
        max_tp=8,
        optimize_placement=optimize_placement,
    )
    records = scheduler.explore(workload_of(model, seq))
    assert records
    return fingerprint(records)


#: (wafer, model, sequence length, optimize placement, inject faults) per explore case.
EXPLORE_CASES = {
    "config3-llama2-30b": ("config3", "llama2-30b", 4096, True, False),
    "config1-gshard-137b": ("config1", "gshard-137b", 2048, True, False),
    "config2-llama3-70b-faulty": ("config2", "llama3-70b", 4096, True, True),
    "die200-ar1.0-gpt-175b": ((200.0, 1.0), "gpt-175b", 2048, False, False),
    "die600-ar1.6-llama2-30b": ((600.0, 1.6), "llama2-30b", 4096, False, False),
}
#: ``fingerprint`` of each case's whole record list under the per-stage implementation
#: (``repr`` would not do: it orders frozensets by hash seed).
PINNED_EXPLORE_DIGESTS = {
    "config3-llama2-30b": "422ea590560ef0b2160c3b8b4baca3f5b080401098d32cef3bc8f95e1d5fe6be",
    "config1-gshard-137b": "21d35a273121363d0c7efcf7438fc417b65061c6429feeb06731421671b6b0a9",
    "config2-llama3-70b-faulty": "17cb135da7be68568cc2bc9a919f17b8a97ecbf7ad1f5c1958c473ac76ff7d3a",
    "die200-ar1.0-gpt-175b": "a67306272dbe246b643b0bb9b72cd5bf8cb417d4bb033bab113a863423ec610f",
    "die600-ar1.6-llama2-30b": "1700f329260976c7a4690a848a16282fd1398d268536ccfb7fd68e8eda9f41c5",
}


@pytest.mark.parametrize("case", sorted(EXPLORE_CASES))
def test_explore_digests_pinned(case):
    assert _explore_digest(*EXPLORE_CASES[case]) == PINNED_EXPLORE_DIGESTS[case]
