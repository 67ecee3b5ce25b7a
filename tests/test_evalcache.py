"""Tests for the fast evaluation subsystem: the content-addressed evaluation cache,
fingerprint sensitivity, the event-driven 1F1B simulator and the parallel search loops.
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import (
    EvaluationCache,
    canonicalize,
    combine_fingerprints,
    fingerprint,
)
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.plan import MemPair
from repro.api import Session, registry
from repro.online import StormSpec, generate_trace
from repro.hardware.faults import FaultModel
from repro.parallelism.partition import TPSplitStrategy
from repro.parallelism.pipeline import (
    PipelineCostInputs,
    PipelineResult,
    Task,
    _stage_task_order,
    simulate_1f1b,
)
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model


@pytest.fixture
def wafer():
    return make_small_wafer(dram_gb=1.0)


@pytest.fixture
def workload():
    return TrainingWorkload(
        make_tiny_model(), global_batch_size=32, micro_batch_size=8,
        sequence_length=2048,
    )


@pytest.fixture
def seed_plan(wafer, workload):
    return CentralScheduler(wafer).best(workload).plan


# ---------------------------------------------------------------------- cache basics
class TestEvaluationCache:
    def test_hit_miss_accounting(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        first = evaluator.evaluate(workload, seed_plan)
        second = evaluator.evaluate(workload, seed_plan)
        assert first == second
        assert evaluator.cache.misses == 1
        assert evaluator.cache.hits == 1
        assert evaluator.raw_evaluations == 1
        assert evaluator.cache.hit_rate == 0.5

    def test_structurally_equal_plans_share_an_entry(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        clone = replace(seed_plan)
        assert clone is not seed_plan
        evaluator.evaluate(workload, seed_plan)
        evaluator.evaluate(workload, clone)
        assert evaluator.cache.hits == 1 and evaluator.cache.misses == 1

    def test_disabled_cache_paths(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer, use_cache=False)
        assert evaluator.cache is None
        a = evaluator.evaluate(workload, seed_plan)
        b = evaluator.evaluate(workload, seed_plan)
        assert a == b
        assert evaluator.raw_evaluations == 2

    def test_cached_equals_uncached_bitforbit(self, wafer, workload, seed_plan):
        raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
        fast = Evaluator(wafer)
        assert raw.evaluate(workload, seed_plan) == fast.evaluate(workload, seed_plan)

    def test_lru_eviction(self):
        cache = EvaluationCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.peek("b") is None
        assert cache.stats.evictions == 1

    def test_get_or_compute(self):
        cache = EvaluationCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 43) == 42
        assert len(calls) == 1


# ---------------------------------------------------------------- fingerprint checks
class TestFingerprintSensitivity:
    def fp(self, evaluator, workload, plan):
        return evaluator.fingerprint(workload, plan)

    def test_any_plan_field_change_misses(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        base = self.fp(evaluator, workload, seed_plan)
        pp = seed_plan.parallelism.pp

        variants = [
            seed_plan.with_recompute(
                seed_plan.recompute.with_stage(0, frozenset({"attention.qkv"}))
                if seed_plan.recompute.stage(0) != frozenset({"attention.qkv"})
                else seed_plan.recompute.with_stage(0, frozenset())
            ),
            replace(
                seed_plan,
                collective=(
                    CollectiveAlgorithm.TACOS
                    if seed_plan.collective is not CollectiveAlgorithm.TACOS
                    else CollectiveAlgorithm.BIDIRECTIONAL_RING
                ),
            ),
            replace(seed_plan, split_strategy=TPSplitStrategy.SEQUENCE),
            replace(seed_plan, offload_to_host=True),
        ]
        if seed_plan.placement is not None and pp >= 2:
            order = list(range(pp))
            order[0], order[1] = order[1], order[0]
            variants.append(seed_plan.with_placement(seed_plan.placement.permuted(order)))
        if pp >= 2:
            variants.append(
                seed_plan.with_mem_pairs(
                    list(seed_plan.mem_pairs) + [MemPair(0, pp - 1, 123.0)]
                )
            )
        if seed_plan.mem_pairs:
            scaled = [replace(p, bytes_moved=p.bytes_moved * 0.5) for p in seed_plan.mem_pairs]
            variants.append(seed_plan.with_mem_pairs(scaled))

        fps = [self.fp(evaluator, workload, variant) for variant in variants]
        assert all(fp != base for fp in fps), "every plan field change must miss"
        assert len(set(fps)) == len(fps), "distinct variants must not collide"

    def test_workload_and_hardware_changes_miss(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        base = self.fp(evaluator, workload, seed_plan)
        assert self.fp(evaluator, workload.with_sequence_length(1024), seed_plan) != base
        assert self.fp(evaluator, workload.with_batch(64, 8), seed_plan) != base

        other_wafer = make_small_wafer(dram_gb=2.0)
        assert self.fp(Evaluator(other_wafer), workload, seed_plan) != base
        assert self.fp(Evaluator(wafer, fault_aware=False), workload, seed_plan) != base

        faults = FaultModel()
        faults.add_die_fault((0, 0), 0.5)
        assert self.fp(Evaluator(wafer, faults=faults), workload, seed_plan) != base

    def test_in_place_fault_injection_invalidates(self, wafer, workload, seed_plan):
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (0, 1)), 0.5)
        evaluator = Evaluator(wafer, faults=faults)
        before = self.fp(evaluator, workload, seed_plan)
        faults.add_link_fault(((0, 0), (0, 1)), 0.25)
        assert self.fp(evaluator, workload, seed_plan) != before

    def test_canonicalize_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_combine_order_sensitive(self):
        a, b = fingerprint(1), fingerprint(2)
        assert combine_fingerprints(a, b) != combine_fingerprints(b, a)


# ------------------------------------------------------------ golden canonical form
def _reference_canonicalize(value: Any) -> Any:
    """The canonical form as it was before the exact-type fast path (verbatim)."""
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        # hex() is lossless and avoids repr ambiguity across float formatting rules.
        return ("f", value.hex())
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _reference_canonicalize(getattr(value, f.name)))
                for f in fields(value)
            ),
        )
    if isinstance(value, dict):
        items = [
            (_reference_canonicalize(k), _reference_canonicalize(v)) for k, v in value.items()
        ]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_reference_canonicalize(v) for v in value), key=repr)))
    if isinstance(value, (tuple, list)):
        return tuple(_reference_canonicalize(v) for v in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} for fingerprinting")


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    pass


@dataclass(frozen=True)
class _Point:
    x: Any
    y: Any = None


@dataclass
class _Node:
    label: str
    children: list
    meta: dict


@dataclass(eq=False)
class _Coord:
    i: int


class _CoordEnum(_Coord, enum.Enum):
    """An enum that is also a dataclass: canonicalized as an enum."""

    ORIGIN = 0
    ONE = 1


# Keys that sort near each other once repr'd: prefixes, quotes, backslashes and
# characters below the closing quote.
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(list("a!'\"\\ #\t\n\x00")), st.characters()),
    max_size=6,
)
_HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    _TRICKY_TEXT,
    st.binary(max_size=4),
    st.sampled_from(list(_Color) + list(_Level) + list(_CoordEnum)),
    _TRICKY_TEXT.map(_Name),
    st.tuples(st.integers(), _TRICKY_TEXT),
    st.builds(_Point, st.integers(), _TRICKY_TEXT),
)
_ATOMS = st.one_of(
    _HASHABLE,
    st.floats(),  # NaN and infinities included
    st.sets(_HASHABLE, max_size=4),
    st.frozensets(_HASHABLE, max_size=4),
)
_VALUES = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4),
        st.dictionaries(_HASHABLE, children, max_size=4),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4).map(OrderedDict),
        st.builds(_Point, children, children),
        st.builds(
            _Node,
            _TRICKY_TEXT,
            st.lists(children, max_size=3),
            st.dictionaries(_TRICKY_TEXT, children, max_size=3),
        ),
    ),
    max_leaves=24,
)


#: Digests of config3 x llama2-30b (its best plan, the workload, the wafer) and of a
#: seeded 200-job storm trace, computed with the reference canonical form.
PINNED_DIGESTS = {
    "plan": "9f7d7b68561f6594d0ab965cf5de4d60fa39bad1b264047d4a08daa60f227a4e",
    "workload": "1fd4f77412c9b75adaadb0c34f17504bf9fa566dbe8c27dcbc2531ec370f13a0",
    "wafer": "3316add4c5ee73ee7c00c359d43916d6f901b40cf4b43e2bbc49833aaa69dab7",
    "trace": "dae553e787683a04afc5fb71e9af6f24cf5030843a594ad64928ac7fcd0a5e6c",
}


def _storm_trace():
    return generate_trace(
        jobs=200,
        rate=3.0,
        seed=5,
        workloads=["llama2-7b", "mamba-2.8b", "tiny"],
        fleet=["config1", "config2"],
        deadline_s=30.0,
        storms=[
            StormSpec(wafer=0, at=20.0, duration=30.0, die_fault_rate=0.25, mean_repair_s=5.0)
        ],
        name="golden",
    )


class TestCanonicalFormGolden:
    """The fast canonical form is byte-identical to the reference one.

    Stores key entries by these digests, so any drift would turn every persisted
    cache and result store cold without a ``CACHE_SCHEMA_VERSION`` bump.
    """

    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_reference_on_random_values(self, value):
        assert repr(canonicalize(value)) == repr(_reference_canonicalize(value))

    @pytest.mark.parametrize(
        "value",
        [
            {"a": 1, "a!": 2},
            {"a!": 1, "a": 2},
            {"a'": 1, 'a"': 2, "a\\": 3, "a": 4, "": 5, "'": 6, '"': 7, "a\\'": 8, "a ": 9},
            {"b": {"a!": 1.5, "a": -0.0}, "a": [1, (2.0, "x")]},
            {1: "x", "1": "y", (1, 2): "z", None: 0, 2.5: 1, True: 2, b"k": 3},
            {"a": 1, 2: "b"},
            OrderedDict([("b", 1), ("a", 2)]),
            _Level.HIGH,
            {"k": _Level.LOW, "j": [_Color.RED, _Level.HIGH]},
            _Name("x"),
            {_Name("b"): 1, "a": 2},
            [_Name("a'"), _Name('a"')],
            {frozenset({1, "a"}), frozenset()},
            _CoordEnum.ONE,
            _Node("n", [_Point(1.0, {"z": None})], {"a!": _Coord(2), "a": _Point(x=())}),
            float("inf"),
            float("nan"),
            [],
            {},
        ],
    )
    def test_matches_reference_on_edge_cases(self, value):
        assert repr(canonicalize(value)) == repr(_reference_canonicalize(value))

    @pytest.mark.parametrize(
        "value", [object(), [1, object()], {"a": object()}, {1: object()}, _Point(object())]
    )
    def test_rejects_what_the_reference_rejects(self, value):
        with pytest.raises(TypeError) as reference:
            _reference_canonicalize(value)
        with pytest.raises(TypeError) as fast:
            canonicalize(value)
        assert str(fast.value) == str(reference.value)

    def test_pinned_digests_are_unchanged(self):
        """Digests computed with the reference canonical form: stores stay warm."""
        wafer = registry.resolve_wafer("config3")
        workload = registry.resolve_workload(
            {
                "model": "llama2-30b",
                "global_batch_size": 128,
                "micro_batch_size": 4,
                "sequence_length": 4096,
            }
        )
        values = {
            "plan": CentralScheduler(wafer).best(workload).plan,
            "workload": workload,
            "wafer": wafer,
            "trace": _storm_trace(),
        }
        assert {name: fingerprint(value) for name, value in values.items()} == PINNED_DIGESTS
        assert values["trace"].fingerprint == "45d08cdc2d6a0e6b"
        for value in values.values():
            assert repr(canonicalize(value)) == repr(_reference_canonicalize(value))


# ------------------------------------------------------------- 1F1B event-driven sim
def simulate_1f1b_reference(inputs: PipelineCostInputs) -> PipelineResult:
    """The original O(pp² · µbatches) polling-scan simulator.

    Kept as the oracle for randomized equivalence tests of the event-driven scheduler
    in ``repro.parallelism.pipeline``; produces bit-for-bit identical results.
    """
    pp, n = inputs.num_stages, inputs.num_microbatches
    orders = [_stage_task_order(s, pp, n) for s in range(pp)]
    pointers = [0] * pp
    finish: Dict[Task, float] = {}
    stage_free = [0.0] * pp
    stage_busy = [0.0] * pp
    remaining = sum(len(order) for order in orders)

    def dependency_ready(task: Task) -> Tuple[bool, float]:
        kind, stage, micro = task
        if kind == "F":
            if stage == 0:
                return True, 0.0
            upstream = finish.get(("F", stage - 1, micro))
            if upstream is None:
                return False, 0.0
            return True, upstream + inputs.comm[stage - 1]
        if stage == pp - 1:
            upstream = finish.get(("F", stage, micro))
            if upstream is None:
                return False, 0.0
            return True, upstream
        downstream = finish.get(("B", stage + 1, micro))
        if downstream is None:
            return False, 0.0
        return True, downstream + inputs.comm[stage]

    while remaining > 0:
        progressed = False
        for stage in range(pp):
            if pointers[stage] >= len(orders[stage]):
                continue
            task = orders[stage][pointers[stage]]
            ready, dep_time = dependency_ready(task)
            if not ready:
                continue
            kind = task[0]
            duration = inputs.forward[stage] if kind == "F" else inputs.backward[stage]
            start = max(stage_free[stage], dep_time)
            end = start + duration
            finish[task] = end
            stage_free[stage] = end
            stage_busy[stage] += duration
            pointers[stage] += 1
            remaining -= 1
            progressed = True
        if not progressed:
            raise RuntimeError("1F1B schedule deadlocked; dependency graph is inconsistent")

    iteration_time = max(stage_free)
    return PipelineResult(
        iteration_time=iteration_time,
        stage_busy_time=tuple(stage_busy),
        stage_finish_time=tuple(stage_free),
    )


class TestEventDriven1F1B:
    def test_randomized_equivalence_grid(self):
        rng = random.Random(1234)
        for pp in range(1, 7):
            for n in range(1, 17):
                forward = [rng.uniform(0.0, 2.0) for _ in range(pp)]
                backward = [rng.uniform(0.05, 3.0) for _ in range(pp)]
                comm = [rng.uniform(0.0, 0.5) for _ in range(pp - 1)]
                inputs = PipelineCostInputs(forward, backward, comm, n)
                new = simulate_1f1b(inputs)
                old = simulate_1f1b_reference(inputs)
                assert new.iteration_time == old.iteration_time, (pp, n)
                assert new.stage_busy_time == old.stage_busy_time, (pp, n)
                assert new.stage_finish_time == old.stage_finish_time, (pp, n)

    def test_heterogeneous_stages_still_match(self):
        inputs = PipelineCostInputs(
            forward=[1.0, 0.1, 2.5, 0.4],
            backward=[2.0, 0.2, 5.0, 0.8],
            comm=[0.3, 0.0, 1.2],
            num_microbatches=7,
        )
        new, old = simulate_1f1b(inputs), simulate_1f1b_reference(inputs)
        assert new == old


# ----------------------------------------------------------------- search-loop perf
class TestSearchLoops:
    def test_select_survives_fitness_ties(self, wafer, workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(wafer), workload, GAConfig(seed=7))
        mutant = ga.mutate(seed_plan)
        # (fitness, TrainingPlan) tuples with equal fitness: plain sorted()/min() would
        # compare the plans and raise TypeError; selection must key on fitness only.
        scored = [(1.0, seed_plan), (1.0, mutant)] * 4
        survivors = ga._select(scored)
        assert len(survivors) == ga.config.population_size // 2
        assert survivors[0] is seed_plan  # stable: ties keep population order

    @pytest.mark.perf_smoke
    def test_cached_ga_prices_fewer_than_population_x_generations(
        self, wafer, workload, seed_plan
    ):
        config = GAConfig(population_size=8, generations=6, seed=0)
        evaluator = Evaluator(wafer)
        GeneticOptimizer(evaluator, workload, config).optimize(seed_plan)
        logical = config.population_size * config.generations
        assert evaluator.raw_evaluations < logical
        assert evaluator.cache.hits > 0

    def test_ga_parallel_matches_serial(self, wafer, workload, seed_plan):
        config = GAConfig(population_size=6, generations=3, seed=5)
        serial = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)
        with Session(pool=2) as session:
            parallel = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(
                seed_plan, session=session
            )
        assert parallel.best_fitness == serial.best_fitness
        assert parallel.history == serial.history
        assert parallel.best_plan == serial.best_plan

    def test_scheduler_explore_parallel_matches_serial(self, wafer, workload):
        serial = CentralScheduler(wafer).explore(workload)
        scheduler = CentralScheduler(wafer)
        with Session(pool=2) as session:
            parallel = scheduler.explore(workload, session=session)
        assert [r.plan for r in parallel] == [r.plan for r in serial]
        assert [r.result for r in parallel] == [r.result for r in serial]

    def test_parallel_explore_counters_stay_honest(self, wafer, workload):
        scheduler = CentralScheduler(wafer)
        with Session(pool=2) as session:
            first = scheduler.explore(workload, session=session)
            evaluator = scheduler.evaluator
            raw_after_first = evaluator.raw_evaluations
            assert raw_after_first == len(first)  # every candidate priced exactly once
            # A warm re-exploration must be answered from the cache: no new raw
            # pricing, one hit per candidate.
            hits_before = evaluator.cache.hits
            second = scheduler.explore(workload, session=session)
        assert [r.result for r in second] == [r.result for r in first]
        assert evaluator.raw_evaluations == raw_after_first
        assert evaluator.cache.hits == hits_before + len(second)

    def test_dse_sweep_parallel_matches_serial(self, workload):
        dse = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,)
        )
        serial = dse.sweep(max_tp=4)
        with Session(pool=2) as session:
            parallel = dse.sweep(max_tp=4, session=session)
        assert parallel == serial
