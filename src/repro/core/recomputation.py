"""GCMR: globally coordinated memory-efficient recomputation (paper §IV-B, Alg. 2).

The scheduler decides, per pipeline stage, which operator units to recompute so that

* the *wafer-wide* memory budget is respected (checkpoints may later be balanced across
  stages, so the binding constraint is the aggregate, not the per-stage capacity), and
* the maximum per-stage execution time — the quantity that sets the 1F1B critical path —
  is minimised.

Per stage the candidate recomputation sets form a monotone frontier: operators are added
in order of bytes-saved per second of recompute time, so option ``k`` recomputes the
``k`` most "profitable" operators.  Minimising the maximum stage time subject to the
aggregate memory budget is then a parametric search over the candidate stage times.

After the recomputation choice, stages whose footprint still exceeds the per-die DRAM
are marked **Senders** and stages with slack are **Helpers**; the greedy pairing produces
the Mem_pair set that the memory scheduler (placement + DRAM allocation) refines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.plan import MemPair, RecomputeConfig
from repro.core.tp_engine import TPEngine
from repro.hardware.template import WaferConfig
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.operators import Operator
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class StageOption:
    """One point on a stage's recomputation frontier."""

    recomputed: FrozenSet[str]
    memory_bytes: float
    stage_time: float


@dataclass(frozen=True)
class GcmrPlan:
    """Result of the GCMR scheduler for one (TP, PP) configuration."""

    recompute: RecomputeConfig
    mem_pairs: Tuple[MemPair, ...]
    stage_memory_bytes: Tuple[float, ...]
    senders: Tuple[int, ...]
    helpers: Tuple[int, ...]
    max_stage_time: float
    feasible: bool

    @property
    def total_balanced_bytes(self) -> float:
        return sum(pair.bytes_moved for pair in self.mem_pairs)


class GcmrScheduler:
    """Builds memory-feasible recomputation plans with minimal pipeline impact."""

    def __init__(self, wafer: WaferConfig, tp_engine: Optional[TPEngine] = None) -> None:
        self.wafer = wafer
        self.tp_engine = tp_engine or TPEngine(wafer)

    # ------------------------------------------------------------------ frontiers
    def _frontier_steps(
        self, workload: TrainingWorkload, tp: int
    ) -> List[Tuple[FrozenSet[str], float]]:
        """``(recomputed names, checkpoint fraction dropped)`` for option ``k`` of any stage.

        Operators are added in order of checkpoint bytes saved per second of recompute
        latency (best first); the order and fractions are the same for every stage.
        """
        operators = workload.layer_operators()
        recomputable = [op for op in operators if op.recomputable]

        def efficiency(op: Operator) -> float:
            latency = self.tp_engine.profile.latency(op.sharded(tp))
            return op.checkpoint_bytes / (latency + 1e-12)

        ordered = sorted(recomputable, key=efficiency, reverse=True)
        steps = []
        for k in range(len(ordered) + 1):
            names = frozenset(op.name for op in ordered[:k])
            fraction = RecomputeConfig.uniform(1, names).recompute_fraction(0, operators)
            steps.append((names, fraction))
        return steps

    # ------------------------------------------------------------------ scheduling
    def schedule(
        self,
        workload: TrainingWorkload,
        tp: int,
        pp: int,
        num_microbatches: Optional[int] = None,
    ) -> GcmrPlan:
        """Choose per-stage recomputation and Sender/Helper pairs for a (TP, PP) split."""
        if tp <= 0 or pp <= 0:
            raise ValueError("parallelism degrees must be positive")
        n = num_microbatches or workload.num_microbatches(1)
        capacity = self.wafer.die.dram_capacity
        wafer_budget = capacity * pp

        memory = TrainingMemoryModel(workload.model)
        steps = self._frontier_steps(workload, tp)
        # A stage's time depends only on its (layer count, edge flag) signature, so each
        # signature's frontier is priced once.  Option ``k``'s footprint is the no-recompute
        # breakdown with its checkpoints scaled by ``1 - fraction_k`` — the expression
        # ``stage_breakdown`` itself evaluates.
        signature_times: Dict[Tuple[int, bool], List[float]] = {}
        frontiers: List[List[StageOption]] = []
        for stage, layers in enumerate(memory.layers_per_stage(pp)):
            signature = (layers, stage == 0 or stage == pp - 1)
            times = signature_times.get(signature)
            if times is None:
                times = []
                for names, _ in steps:
                    stage_times = self.tp_engine.stage_times(
                        workload, stage, layers, tp, pp, recomputed_ops=names
                    )
                    times.append(stage_times.forward + stage_times.backward_total)
                signature_times[signature] = times
            base = memory.stage_breakdown(
                stage,
                pp,
                tp,
                workload.micro_batch_size,
                workload.seq_len,
                n,
                recompute_fraction=0.0,
            )
            state, checkpoints = base.model_state_bytes, base.checkpoint_bytes
            frontiers.append(
                [
                    StageOption(names, state + checkpoints * (1.0 - fraction), stage_time)
                    for (names, fraction), stage_time in zip(steps, times)
                ]
            )

        # Candidate maximum stage times: every option's time is a potential optimum.
        # Feasibility is monotone in the threshold (allowed sets only grow, so the summed
        # minimum footprint only shrinks): bisect for the first feasible candidate.
        candidates = sorted({t for times in signature_times.values() for t in times})
        lo, hi = 0, len(candidates)
        selection: Optional[List[StageOption]] = None
        while lo < hi:
            mid = (lo + hi) // 2
            feasible = self._select(frontiers, candidates[mid], wafer_budget)
            if feasible is None:
                lo = mid + 1
            else:
                hi, selection = mid, feasible
        chosen: Optional[List[StageOption]] = None
        if selection is not None:
            chosen = self._relax_unnecessary_recompute(
                frontiers, selection, candidates[hi], wafer_budget
            )

        if chosen is None:
            # Even full recomputation everywhere does not fit the wafer.
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

    @staticmethod
    def _select(
        frontiers: Sequence[Sequence[StageOption]], threshold: float, wafer_budget: float
    ) -> Optional[List[StageOption]]:
        """Smallest-footprint option per stage under ``threshold``, or None if infeasible."""
        selection: List[StageOption] = []
        for frontier in frontiers:
            allowed = [opt for opt in frontier if opt.stage_time <= threshold + 1e-12]
            if not allowed:
                return None
            # Under the time budget, take the option with the smallest footprint.
            selection.append(min(allowed, key=lambda opt: opt.memory_bytes))
        if sum(opt.memory_bytes for opt in selection) <= wafer_budget:
            return selection
        return None

    @staticmethod
    def _relax_unnecessary_recompute(
        frontiers: Sequence[Sequence[StageOption]],
        selection: List[StageOption],
        threshold: float,
        wafer_budget: float,
    ) -> List[StageOption]:
        """Drop recomputation that the memory budget does not actually require.

        The feasibility pass picks the *smallest-footprint* option per stage, which can
        over-recompute when memory is plentiful; this pass walks every stage back to the
        least-recompute option that keeps the aggregate within budget and the stage time
        within the chosen threshold.
        """
        relaxed = list(selection)
        for index, frontier in enumerate(frontiers):
            others = sum(opt.memory_bytes for s, opt in enumerate(relaxed) if s != index)
            for option in frontier:  # frontier is ordered from no-recompute upwards
                if option.stage_time > threshold + 1e-12:
                    continue
                if others + option.memory_bytes <= wafer_budget:
                    relaxed[index] = option
                    break
        return relaxed

    # ------------------------------------------------------------------ pairing
    @staticmethod
    def _pair_stages(
        stage_memory: Sequence[float], capacity: float
    ) -> Tuple[List[int], List[int], List[MemPair]]:
        """Greedy Sender→Helper pairing (Alg. 2 lines 9–14)."""
        overflow = {s: m - capacity for s, m in enumerate(stage_memory) if m > capacity}
        spare = {s: capacity - m for s, m in enumerate(stage_memory) if m < capacity}
        senders = sorted(overflow, key=lambda s: -overflow[s])
        helpers = sorted(spare, key=lambda s: -spare[s])
        pairs: List[MemPair] = []
        spare_left = dict(spare)
        for sender in senders:
            need = overflow[sender]
            for helper in helpers:
                if need <= 1e-9:
                    break
                available = spare_left.get(helper, 0.0)
                if available <= 1e-9:
                    continue
                moved = min(need, available)
                pairs.append(MemPair(sender, helper, moved))
                spare_left[helper] = available - moved
                need -= moved
        return senders, helpers, pairs

    # ------------------------------------------------------------------ naive baseline
    def naive_full_recompute(
        self, workload: TrainingWorkload, tp: int, pp: int
    ) -> RecomputeConfig:
        """The naive strategy of Fig. 8a: recompute everything recomputable, everywhere."""
        operators = workload.layer_operators()
        return RecomputeConfig.full(pp, operators)
