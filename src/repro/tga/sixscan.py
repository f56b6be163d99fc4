"""6Scan (Hou et al., ToN 2023).

6Scan extends 6Tree with *regional encoding*: scan directions are
updated online by tracking, per tree region, how productive recent
probes were.  Its space partitioning is the same leftmost-split tree as
6Tree — which, as the paper's RQ4 observes, makes its output overlap
6Tree's almost completely; it contributes little extra when both run.

Our implementation: 6Tree's structure, plus online reweighting of leaf
budgets by smoothed observed hitrate with a small uniform exploration
floor (the regional-encoding feedback loop).
"""

from __future__ import annotations

from ..addr import SeedList
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import cached_space_tree

__all__ = ["SixScan"]


@register_tga
class SixScan(TargetGenerator):
    """6Scan: 6Tree's tree with online hitrate-driven region weights."""

    name = "6scan"
    online = True

    def __init__(
        self,
        salt: int = 0,
        max_leaf_seeds: int = 12,
        max_level: int = 3,
        exploration_floor: float = 0.05,
    ) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self.exploration_floor = exploration_floor
        self._pool: LeafPool | None = None
        self._pending: dict[int, int] = {}

    def _ingest(self, seeds: SeedList) -> None:
        # Frozen model: the (cached) space tree.  Per-run state: pool
        # weights, pending probes and hitrate bookkeeping.
        tree = cached_space_tree(
            seeds, strategy="leftmost", max_leaf_seeds=self.max_leaf_seeds
        )
        self._pool = LeafPool(
            tree.leaves, max_level=self.max_level, exclude=set(seeds)
        )
        self._pending = {}

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        assert self._pool is not None
        drawn = self._pool.draw(count)
        for address, leaf_index in drawn:
            self._pending[address] = leaf_index
        return [address for address, _ in drawn]

    def observe(self, results) -> None:
        assert self._pool is not None
        pool = self._pool
        probed: set[int] = set()
        for address, hit in results.items():
            leaf_index = self._pending.pop(address, None)
            if leaf_index is None:
                continue
            pool.record(leaf_index, hit)
            probed.add(leaf_index)
        # Regional encoding update: weight = prior density scaled by the
        # Laplace-smoothed hitrate, floored so no region starves entirely.
        # Leaves probed only in earlier rounds keep the weight their
        # unchanged counts gave them.
        for index in probed:
            smoothed = (pool.hits[index] + 1.0) / (pool.probes[index] + 2.0)
            pool.set_weight(
                index,
                max(self.exploration_floor, smoothed)
                * max(pool.densities[index], 1e-9),
            )
