"""Golden equivalence of the table-driven Eq. 2 kernel against the naive evaluation.

``naive_global_cost`` and ``NaiveOptimizer`` below are the straightforward Eq. 2 scorer
and permutation searches: they recompute boundary dies, centres and XY routes for every
candidate placement.  The production kernel must reproduce them exactly (``==`` on
floats and placements) on the paper's configurations and workloads, on both search
paths, and on the random permutations the GA's fitness scores.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Dict, Optional, Sequence, Tuple

import pytest

from repro.api import registry
from repro.core.central_scheduler import CentralScheduler
from repro.core.placement import PlacementOptimizer, global_cost, serpentine_placement
from repro.core.plan import MemPair, StagePlacement
from repro.core.recomputation import GcmrScheduler
from repro.interconnect.routing import path_links, xy_path
from repro.interconnect.topology import MeshTopology
from repro.parallelism.partition import best_mesh_shape
from repro.parallelism.strategies import enumerate_tp_pp

PAPER_WORKLOADS = (
    ("llama2-30b", 4096),
    ("llama3-70b", 4096),
    ("gshard-137b", 2048),
    ("gpt-175b", 2048),
)
CONFIGS = ("config1", "config2", "config3", "config4")
#: Local-search budget for the golden comparison: enough accepted and rejected swaps to
#: exercise the search, small enough that the naive reference stays fast.
LOCAL_ITERATIONS = 60


def naive_global_cost(
    placement: StagePlacement,
    mem_pairs: Sequence[MemPair],
    pipeline_comm: float = 1.0,
    pair_comm: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    pp = placement.num_stages
    cost = 0.0
    tracker_links: set = set()
    for stage in range(pp - 1):
        src, dst = placement.boundary_dies(stage, stage + 1)
        tracker_links.update(path_links(xy_path(src, dst)))
        cost += placement.stage_distance(stage, stage + 1) * pipeline_comm
    for pair in mem_pairs:
        src, dst = placement.boundary_dies(pair.sender_stage, pair.helper_stage)
        gamma = sum(1 for link in path_links(xy_path(src, dst)) if link in tracker_links)
        weight = pair.bytes_moved if pair.bytes_moved > 0 else 1.0
        if pair_comm is not None:
            weight = pair_comm.get((pair.sender_stage, pair.helper_stage), weight)
        distance = placement.stage_distance(pair.sender_stage, pair.helper_stage)
        cost += distance * weight * (1 + gamma)
    return cost


class NaiveOptimizer(PlacementOptimizer):
    """The permutation searches, scoring a full ``StagePlacement`` per candidate."""

    def optimize(self, tp_shape, pp, mem_pairs=(), pipeline_comm=1.0):
        base = serpentine_placement(self.mesh.dies_x, self.mesh.dies_y, tp_shape, pp)
        if pp <= 2 or not mem_pairs:
            return base
        pairs = self._normalise(mem_pairs)
        if pp <= self.exhaustive_limit:
            best, best_cost = base, naive_global_cost(base, pairs, pipeline_comm)
            for order in itertools.permutations(range(pp)):
                candidate = base.permuted(order)
                cost = naive_global_cost(candidate, pairs, pipeline_comm)
                if cost < best_cost:
                    best, best_cost = candidate, cost
            return best
        rng = random.Random(self.seed)
        order = list(range(pp))
        best, best_cost = base, naive_global_cost(base, pairs, pipeline_comm)
        for _ in range(self.local_search_iterations):
            i, j = rng.sample(range(pp), 2)
            order[i], order[j] = order[j], order[i]
            candidate = base.permuted(order)
            cost = naive_global_cost(candidate, pairs, pipeline_comm)
            if cost < best_cost:
                best, best_cost = candidate, cost
            else:
                order[i], order[j] = order[j], order[i]
        return best


@functools.lru_cache(maxsize=None)
def gcmr_cases(
    config: str,
) -> Tuple[Tuple[str, Tuple[int, int], int, Tuple[MemPair, ...]], ...]:
    """(model, tp_shape, pp, mem_pairs) for every split GCMR balances on ``config``."""
    wafer = registry.resolve_wafer(config)
    scheduler = CentralScheduler(wafer)
    gcmr = GcmrScheduler(wafer)
    cases = []
    for model, seq in PAPER_WORKLOADS:
        workload = registry.resolve_workload(
            {
                "model": model,
                "global_batch_size": 128,
                "micro_batch_size": 4,
                "sequence_length": seq,
            }
        )
        n = workload.num_microbatches(1)
        for tp, pp in enumerate_tp_pp(wafer.num_dies, workload.model.num_layers):
            try:
                tp_shape = best_mesh_shape(tp, wafer.dies_x, wafer.dies_y)
            except ValueError:
                continue
            if pp <= 2 or not scheduler.needs_downstream(workload, tp, pp, n):
                continue
            plan = gcmr.schedule(workload, tp, pp, n)
            if plan.feasible and plan.mem_pairs:
                cases.append((model, tp_shape, pp, plan.mem_pairs))
    return tuple(cases)


@pytest.fixture(scope="module", params=CONFIGS)
def config_cases(request):
    config = request.param
    return MeshTopology.from_wafer(registry.resolve_wafer(config)), gcmr_cases(config)


class TestGoldenPlacement:
    def test_cases_cover_both_search_paths(self):
        depths = [pp for config in CONFIGS for _model, _shape, pp, _pairs in gcmr_cases(config)]
        limit = PlacementOptimizer.exhaustive_limit
        assert any(pp <= limit for pp in depths)
        assert any(pp > limit for pp in depths)

    def test_global_cost_matches_naive(self, config_cases):
        mesh, cases = config_cases
        for _model, tp_shape, pp, pairs in cases:
            base = serpentine_placement(mesh.dies_x, mesh.dies_y, tp_shape, pp)
            assert global_cost(base, pairs) == naive_global_cost(base, pairs)
            assert global_cost(base, pairs, 2.5) == naive_global_cost(base, pairs, 2.5)
            weights = {(p.sender_stage, p.helper_stage): 0.5 + i for i, p in enumerate(pairs)}
            assert global_cost(base, pairs, pair_comm=weights) == naive_global_cost(
                base, pairs, pair_comm=weights
            )

    def test_random_permutations_match_naive(self, config_cases):
        """The GA fitness path: arbitrary stage→block permutations of one block set."""
        mesh, cases = config_cases
        rng = random.Random(2026)
        for _model, tp_shape, pp, pairs in cases:
            base = serpentine_placement(mesh.dies_x, mesh.dies_y, tp_shape, pp)
            for _ in range(5):
                order = list(range(pp))
                rng.shuffle(order)
                candidate = base.permuted(order)
                assert global_cost(candidate, pairs) == naive_global_cost(candidate, pairs)

    def test_optimizer_matches_naive(self, config_cases):
        mesh, cases = config_cases
        for _model, tp_shape, pp, pairs in cases:
            fast = PlacementOptimizer(mesh, local_search_iterations=LOCAL_ITERATIONS)
            naive = NaiveOptimizer(mesh, local_search_iterations=LOCAL_ITERATIONS)
            placement = fast.optimize(tp_shape, pp, pairs)
            assert placement == naive.optimize(tp_shape, pp, pairs)
            assert global_cost(placement, pairs) == naive_global_cost(placement, pairs)

    def test_default_local_search_matches_naive_on_deep_pipeline(self):
        """Full 400-iteration budget on the deepest config3 pipeline with Mem_pairs."""
        mesh = MeshTopology.from_wafer(registry.resolve_wafer("config3"))
        _model, tp_shape, pp, pairs = max(gcmr_cases("config3"), key=lambda case: case[2])
        assert pp > 7
        assert PlacementOptimizer(mesh).optimize(tp_shape, pp, pairs) == NaiveOptimizer(
            mesh
        ).optimize(tp_shape, pp, pairs)

    def test_exhaustive_matches_naive_on_small_mesh(self, small_wafer):
        """Exhaustive shapes on a small mesh; symmetric pairs tie, and the first winner stays."""
        mesh = MeshTopology.from_wafer(small_wafer)
        pair_sets = (
            [MemPair(0, 3, 4.0)],
            [MemPair(0, 2, 1.0), MemPair(1, 3, 1.0)],
            [MemPair(3, 0, 0.0), MemPair(1, 2, 2.0), MemPair(2, 0, 7.0)],
        )
        for tp_shape, pp in (((1, 1), 4), ((1, 2), 5), ((1, 2), 6), ((1, 1), 7), ((2, 2), 4)):
            for pairs in pair_sets:
                fast = PlacementOptimizer(mesh).optimize(tp_shape, pp, pairs)
                assert fast == NaiveOptimizer(mesh).optimize(tp_shape, pp, pairs)
