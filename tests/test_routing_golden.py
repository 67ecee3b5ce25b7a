"""Golden equivalence of the native fault-aware router against the networkx router.

``fault_aware_path`` used to build an ``nx.Graph`` of the healthy mesh per call and ask
``nx.shortest_path(..., weight="weight")`` (every weight 1.0, which dispatches to
``bidirectional_dijkstra``).  It now runs a unit-weight port of that search over
``MeshTopology.adjacency()``.  Among equal-length routes the search picks one by its
neighbour order and heap tie-breaks, so the pinned digests below — computed with the
networkx router — check that every route is the same one, not merely as short.

The robustness digests pin priced faulty-wafer results (§VI-D, Fig. 22), which are
cached under ``CACHE_SCHEMA_VERSION``: a route change would silently change them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from typing import Dict, List, Tuple

import pytest

from repro.api import registry
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import fingerprint
from repro.core.evaluator import Evaluator
from repro.core.robustness import RobustnessEvaluator
from repro.hardware.faults import FaultModel
from repro.interconnect.routing import fault_aware_path, manhattan_hops, xy_path
from repro.interconnect.topology import MeshTopology
from repro.workloads.models import get_model
from repro.workloads.workload import TrainingWorkload

WAFERS = ("tiny", "config1", "config2", "config3", "config4")
LINK_RATES = (0.05, 0.1, 0.2, 0.4)
DIE_RATES = (0.0, 0.1, 0.2)
#: Share of faulty links/dies that fail outright: the default, and one that cuts pairs off.
DEAD_SHARES = (0.2, 0.6)
#: Meshes up to this many dies route every ordered (src, dst) pair; larger ones a sample.
ALL_PAIRS_MAX_DIES = 16
SAMPLED_PAIRS = 120

#: sha256 over every (wafer, link rate, die rate, dead share, src, dst, route) row of the
#: grid, computed with the networkx router.
PINNED_ROUTE_DIGEST = "480bd107a4dc48c2dc9b990f98844f068674efa760cc4503f5ee7395eeb3db0c"

MeshKey = Tuple[str, float, float, float]
Row = Tuple[MeshKey, tuple, tuple, Tuple[tuple, ...]]


@functools.lru_cache(maxsize=None)
def route_grid() -> Tuple[Tuple[Row, ...], Dict[MeshKey, MeshTopology]]:
    """(rows, mesh per (wafer, link rate, die rate, dead share)) over the whole grid."""
    rows: List[Row] = []
    meshes: Dict[MeshKey, MeshTopology] = {}
    keys = itertools.product(WAFERS, LINK_RATES, DIE_RATES, DEAD_SHARES)
    for seed, key in enumerate(keys):
        name, link_rate, die_rate, dead_share = key
        wafer = registry.resolve_wafer(name)
        faults = FaultModel.random(
            wafer.dies_x, wafer.dies_y, link_rate, die_rate, dead_share=dead_share, seed=seed
        )
        mesh = meshes[key] = MeshTopology.from_wafer(wafer, faults)
        dies = mesh.dies()
        if len(dies) <= ALL_PAIRS_MAX_DIES:
            pairs = [(src, dst) for src in dies for dst in dies]
        else:
            rng = random.Random(seed)
            pairs = [(rng.choice(dies), rng.choice(dies)) for _ in range(SAMPLED_PAIRS)]
        for src, dst in pairs:
            rows.append((key, src, dst, tuple(fault_aware_path(mesh, src, dst))))
    return tuple(rows), meshes


class TestGoldenRoutes:
    def test_routes_match_pinned_digest(self):
        rows, _meshes = route_grid()
        digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
        assert digest == PINNED_ROUTE_DIGEST

    def test_grid_exercises_every_branch(self):
        rows, meshes = route_grid()
        adjacency = {key: mesh.adjacency() for key, mesh in meshes.items()}
        dead_endpoint = disconnected = detour = same = 0
        for key, src, dst, path in rows:
            adj = adjacency[key]
            if src == dst:
                same += 1
                assert path == (src,)
            elif src not in adj or dst not in adj:
                dead_endpoint += 1
                assert list(path) == xy_path(src, dst)
            elif path[-1] != dst or any(b not in adj[a] for a, b in zip(path, path[1:])):
                # Not a healthy route, so it must be the XY fallback of a cut-off pair.
                disconnected += 1
                assert list(path) == xy_path(src, dst)
            elif len(path) - 1 > manhattan_hops(src, dst):
                detour += 1
        assert dead_endpoint and disconnected and detour and same


class TestNetworkxCrossCheck:
    def test_matches_networkx_bidirectional_dijkstra(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        for seed in range(60):
            dies_x, dies_y = rng.randint(2, 12), rng.randint(2, 12)
            faults = FaultModel.random(
                dies_x, dies_y, rng.uniform(0.05, 0.4), rng.uniform(0.0, 0.2), seed=seed
            )
            mesh = MeshTopology(dies_x, dies_y, 1e12, faults=faults)
            graph = nx.Graph()
            graph.add_nodes_from(mesh.healthy_dies())
            for a, b in mesh.links():
                if faults.link_quality((a, b)) > 0.0:
                    graph.add_edge(a, b, weight=1.0)
            dies = mesh.dies()
            for _ in range(20):
                src, dst = rng.choice(dies), rng.choice(dies)
                try:
                    _, expected = nx.bidirectional_dijkstra(graph, src, dst, weight="weight")
                except (nx.NodeNotFound, nx.NetworkXNoPath):
                    expected = xy_path(src, dst)
                assert fault_aware_path(mesh, src, dst) == expected


#: (link fault rate, die fault rate) per robustness point on config3 × llama2-30b.
ROBUSTNESS_RATES = ((0.15, 0.0), (0.3, 0.0), (0.0, 0.2), (0.2, 0.1))
#: ``fingerprint`` of each point and of its robust and baseline evaluation results,
#: computed with the networkx router.
PINNED_ROBUSTNESS_DIGESTS = {
    (0.15, 0.0): "a47b972179c633ec17c337c291b2120a88bcb52ec86a86d4283a07987166fd36",
    (0.3, 0.0): "ce70b2af5c6d08e75e1f9948fda4eb996b34c5cbdfaa335de932be282f32fccc",
    (0.0, 0.2): "df732a71d7467707b35e37c13d190f32271de1b076313c4414fef12acceb2ad2",
    (0.2, 0.1): "bec4bd01c61956b3036bd717be7b7d71e14fffc93d1c56f262cb7907b9367ebe",
}


@functools.lru_cache(maxsize=None)
def _robustness_setup():
    wafer = registry.resolve_wafer("config3")
    workload = TrainingWorkload(get_model("llama2-30b"), 128, 4, 4096)
    plan = CentralScheduler(wafer).best(workload).plan
    return wafer, workload, plan


@pytest.mark.parametrize("rates", ROBUSTNESS_RATES)
def test_robustness_digests_pinned(rates):
    wafer, workload, plan = _robustness_setup()
    link_rate, die_rate = rates
    point = RobustnessEvaluator(wafer, workload, plan, seed=7).point(link_rate, die_rate)
    faults = FaultModel.random(
        wafer.dies_x, wafer.dies_y, link_fault_rate=link_rate, die_fault_rate=die_rate, seed=7
    )
    results = [
        Evaluator(wafer, faults=faults, fault_aware=aware, use_cache=False).evaluate(
            workload, plan
        )
        for aware in (True, False)
    ]
    assert fingerprint(point, *results) == PINNED_ROBUSTNESS_DIGESTS[rates]
