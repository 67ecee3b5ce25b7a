"""Memory scheduler, part 1: spatial location-aware stage placement (paper §IV-C-1, Eq. 2).

The mesh is partitioned into ``pp`` contiguous blocks of ``tp`` dies each.  The baseline
assigns stages to blocks in the naive left-to-right / top-to-bottom (serpentine) order;
the optimizer permutes the assignment so that Mem_pair partners end up close together
while the pipeline path stays short, minimising the GlobalCost of Eq. 2:

    GlobalCost = Σ Dist(S_i, S_{i+1}) · Comm_PP
               + Σ Dist(S_s, S_h) · Comm_pair · (1 + γ)

where γ counts links the balance path shares with already-placed pipeline paths.

Every term depends only on the pair of *blocks* two stages occupy, and a search only
permutes stages over a fixed block set, so the geometry is tabulated once per block set
(:func:`block_geometry`) and γ becomes the popcount of two link bitmasks.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.plan import MemPair, StagePlacement
from repro.interconnect.routing import Link, path_links, xy_path
from repro.interconnect.topology import MeshTopology

Coord = Tuple[int, int]
Block = Tuple[Coord, ...]


def mesh_blocks(
    dies_x: int, dies_y: int, tp_shape: Tuple[int, int], num_blocks: int
) -> List[Tuple[Coord, ...]]:
    """Tile the mesh with ``num_blocks`` rectangles of ``tp_shape`` dies each.

    Blocks are laid out in serpentine (boustrophedon) order so that consecutive blocks
    are always adjacent, which is what keeps the pipeline path short.
    """
    bx, by = tp_shape
    if bx <= 0 or by <= 0:
        raise ValueError("TP shape must be positive")
    if bx > dies_x or by > dies_y:
        raise ValueError(f"TP shape {tp_shape} does not fit a {dies_x}x{dies_y} mesh")
    group_size = bx * by
    if group_size * num_blocks > dies_x * dies_y:
        raise ValueError(
            f"cannot place {num_blocks} blocks of {tp_shape} on a {dies_x}x{dies_y} mesh"
        )
    blocks_per_row = dies_x // bx
    blocks_per_col = dies_y // by
    if blocks_per_row * blocks_per_col >= num_blocks:
        blocks: List[Tuple[Coord, ...]] = []
        for row in range(blocks_per_col):
            cols = range(blocks_per_row)
            if row % 2 == 1:
                cols = reversed(cols)
            for col in cols:
                dies = tuple(
                    (col * bx + dx, row * by + dy) for dy in range(by) for dx in range(bx)
                )
                blocks.append(dies)
                if len(blocks) == num_blocks:
                    return blocks
        return blocks
    # Rectangle tiling cannot host every block (e.g. a 2×2 group on a 7-wide mesh wastes
    # a column); fall back to chopping the serpentine die order into contiguous groups,
    # which keeps every group connected even if not perfectly rectangular.
    serpentine: List[Coord] = []
    for y in range(dies_y):
        xs = range(dies_x)
        if y % 2 == 1:
            xs = reversed(xs)
        serpentine.extend((x, y) for x in xs)
    return [
        tuple(serpentine[block * group_size:(block + 1) * group_size])
        for block in range(num_blocks)
    ]


def serpentine_placement(
    dies_x: int, dies_y: int, tp_shape: Tuple[int, int], pp: int
) -> StagePlacement:
    """The naive left-to-right / top-to-bottom placement of Fig. 11a."""
    blocks = mesh_blocks(dies_x, dies_y, tp_shape, pp)
    return StagePlacement(stage_dies=tuple(blocks))


class BlockGeometry(NamedTuple):
    """Eq. 2's geometry for one block set, tabulated per *ordered* block pair.

    ``distance[a][b]`` is the Manhattan distance between the centres of blocks ``a`` and
    ``b``; ``links[a][b]`` is a bitmask of the mesh links on the XY route between their
    boundary dies.  Boundary dies and XY routes depend on direction, so ``links[a][b]``
    and ``links[b][a]`` may differ.  ``index`` maps a block's die tuple to its row.
    Instances are cached and shared, so callers only read them.
    """

    index: Dict[Block, int]
    distance: Tuple[Tuple[float, ...], ...]
    links: Tuple[Tuple[int, ...], ...]


@functools.lru_cache(maxsize=256)
def block_geometry(blocks: Tuple[Block, ...]) -> BlockGeometry:
    """The tables for a sorted block tuple, built once and shared by every permutation.

    Entries come from :class:`StagePlacement`'s own ``stage_distance`` and
    ``boundary_dies``, so a table lookup returns exactly what the per-placement
    geometry would.
    """
    geometry = StagePlacement(stage_dies=blocks)
    count = len(blocks)
    distance = [[0.0] * count for _ in range(count)]
    links = [[0] * count for _ in range(count)]
    bits: Dict[Link, int] = {}
    for a in range(count):
        for b in range(count):
            if a == b:
                continue
            distance[a][b] = geometry.stage_distance(a, b)
            mask = 0
            for link in path_links(xy_path(*geometry.boundary_dies(a, b))):
                mask |= 1 << bits.setdefault(link, len(bits))
            links[a][b] = mask
    return BlockGeometry(
        {block: row for row, block in enumerate(blocks)},
        tuple(map(tuple, distance)),
        tuple(map(tuple, links)),
    )


def _weighted_pairs(
    mem_pairs: Sequence[MemPair], pair_comm: Optional[Dict[Tuple[int, int], float]] = None
) -> List[Tuple[int, int, float]]:
    """``(sender, helper, Comm_pair)`` per Mem_pair, in list order."""
    weighted = []
    for pair in mem_pairs:
        weight = pair.bytes_moved if pair.bytes_moved > 0 else 1.0
        if pair_comm is not None:
            weight = pair_comm.get((pair.sender_stage, pair.helper_stage), weight)
        weighted.append((pair.sender_stage, pair.helper_stage, weight))
    return weighted


def _eq2(
    geometry: BlockGeometry,
    where: Sequence[int],
    pairs: Sequence[Tuple[int, int, float]],
    pipeline_comm: float,
) -> float:
    """Eq. 2 with stage ``s`` on table row ``where[s]``.

    Terms are summed pipeline edges first (in stage order), then Mem_pairs (in list
    order); γ is the number of links a pair's route shares with the pipeline routes.
    """
    distance, links = geometry.distance, geometry.links
    cost = 0.0
    pipeline_links = 0
    for a, b in zip(where, where[1:]):
        pipeline_links |= links[a][b]
        cost += distance[a][b] * pipeline_comm
    for sender, helper, weight in pairs:
        a, b = where[sender], where[helper]
        cost += distance[a][b] * weight * (1 + (links[a][b] & pipeline_links).bit_count())
    return cost


def global_cost(
    placement: StagePlacement,
    mem_pairs: Sequence[MemPair],
    pipeline_comm: float = 1.0,
    pair_comm: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    """Evaluate Eq. 2 for a placement.

    ``pipeline_comm`` weights the pipeline edges; ``pair_comm`` optionally weights each
    Mem_pair (defaults to the pair's byte volume, or 1.0 when the volume is zero).
    """
    geometry = block_geometry(tuple(sorted(placement.stage_dies)))
    where = [geometry.index[dies] for dies in placement.stage_dies]
    return _eq2(geometry, where, _weighted_pairs(mem_pairs, pair_comm), pipeline_comm)


@dataclass
class PlacementOptimizer:
    """Search over stage→block permutations to minimise GlobalCost.

    For small pipeline depths (≤ ``exhaustive_limit`` stages) the search is exhaustive;
    beyond that it falls back to a randomised pairwise-swap local search, which matches
    the role the placement step plays inside the larger GA loop.  Both searches score
    stage→row index lists against the block set's :func:`block_geometry` tables and
    build a :class:`StagePlacement` only for the winner.
    """

    mesh: MeshTopology
    exhaustive_limit: int = 7
    local_search_iterations: int = 400
    seed: int = 0

    def optimize(
        self,
        tp_shape: Tuple[int, int],
        pp: int,
        mem_pairs: Sequence[MemPair] = (),
        pipeline_comm: float = 1.0,
    ) -> StagePlacement:
        """The lowest-GlobalCost placement found for the given pipeline and Mem_pairs."""
        base = serpentine_placement(self.mesh.dies_x, self.mesh.dies_y, tp_shape, pp)
        if pp <= 2 or not mem_pairs:
            return base
        pairs = _weighted_pairs(self._normalise(mem_pairs))
        geometry = block_geometry(tuple(sorted(base.stage_dies)))
        rows = [geometry.index[dies] for dies in base.stage_dies]
        search = self._exhaustive if pp <= self.exhaustive_limit else self._local_search
        return base.permuted(search(geometry, rows, pairs, pipeline_comm))

    @staticmethod
    def _normalise(mem_pairs: Sequence[MemPair]) -> List[MemPair]:
        total = sum(p.bytes_moved for p in mem_pairs) or 1.0
        return [
            MemPair(p.sender_stage, p.helper_stage, p.bytes_moved / total * 10.0)
            for p in mem_pairs
        ]

    # ``rows[block]`` is the table row of base block ``block``; both searches return the
    # winning ``order`` in :meth:`StagePlacement.permuted`'s convention
    # (``order[block] = stage``), keeping the first strictly cheapest candidate.

    @staticmethod
    def _exhaustive(
        geometry: BlockGeometry,
        rows: Sequence[int],
        pairs: Sequence[Tuple[int, int, float]],
        pipeline_comm: float,
    ) -> Sequence[int]:
        where = list(rows)
        best_order: Sequence[int] = range(len(rows))
        best_cost = _eq2(geometry, where, pairs, pipeline_comm)
        for order in itertools.permutations(range(len(rows))):
            for row, stage in zip(rows, order):
                where[stage] = row
            cost = _eq2(geometry, where, pairs, pipeline_comm)
            if cost < best_cost:
                best_order, best_cost = order, cost
        return best_order

    def _local_search(
        self,
        geometry: BlockGeometry,
        rows: Sequence[int],
        pairs: Sequence[Tuple[int, int, float]],
        pipeline_comm: float,
    ) -> Sequence[int]:
        rng = random.Random(self.seed)
        pp = len(rows)
        order = list(range(pp))
        where = list(rows)
        best_order = tuple(order)
        best_cost = _eq2(geometry, where, pairs, pipeline_comm)
        for _ in range(self.local_search_iterations):
            i, j = rng.sample(range(pp), 2)
            order[i], order[j] = order[j], order[i]
            where[order[i]], where[order[j]] = rows[i], rows[j]
            cost = _eq2(geometry, where, pairs, pipeline_comm)
            if cost < best_cost:
                best_order, best_cost = tuple(order), cost
            else:
                order[i], order[j] = order[j], order[i]
                where[order[i]], where[order[j]] = rows[i], rows[j]
        return best_order
