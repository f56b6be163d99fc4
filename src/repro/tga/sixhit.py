"""6Hit (Hou et al., INFOCOM 2021).

The first fully online TGA: reinforcement learning over space-tree
regions.  Each region carries a Q-value updated as an exponential moving
average of its recent reward rate, and the budget allocation is
epsilon-greedy — almost everything goes to the current best regions, a
small epsilon explores.

That aggressive exploitation is 6Hit's character in the paper: decent
but not leading hit counts (it over-commits early), mediocre AS
diversity, and — because a saturated aliased region keeps its Q pinned
at 1.0 — notably poor behaviour around aliases (it found *more* aliases
with online-only seed dealiasing than with offline-only, Table 4).
6Hit also periodically recreates its tree from the current actives.
"""

from __future__ import annotations

from ..addr import SeedList
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import cached_space_tree

__all__ = ["SixHit"]


@register_tga
class SixHit(TargetGenerator):
    """6Hit: epsilon-greedy Q-learning over space-tree regions."""

    name = "6hit"
    online = True

    def __init__(
        self,
        salt: int = 0,
        max_leaf_seeds: int = 12,
        max_level: int = 3,
        learning_rate: float = 0.35,
        epsilon: float = 0.08,
        greedy_top: int = 12,
        rebuild_every: int = 12,
        max_tracked_actives: int = 150_000,
    ) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.greedy_top = greedy_top
        self.rebuild_every = rebuild_every
        self.max_tracked_actives = max_tracked_actives
        self._pool: LeafPool | None = None
        self._q: list[float] = []
        self._pending: dict[int, int] = {}
        self._round_counts: dict[int, list[int]] = {}
        self._seeds: set[int] = set()
        self._discovered: set[int] = set()
        self._rounds_since_rebuild = 0

    def _build_pool(self, seeds: list[int]) -> None:
        # Frozen model: the (cached) space tree — online rebuilds on
        # seeds+discovered route through the cache too, so repeated
        # rebuilds of the same active set are free.  Per-run state:
        # pool, Q-values, pending probes.
        tree = cached_space_tree(
            seeds, strategy="leftmost", max_leaf_seeds=self.max_leaf_seeds
        )
        self._pool = LeafPool(
            tree.leaves,
            max_level=self.max_level,
            exclude=self._seeds | self._discovered,
        )
        # Optimistic initial Q so every region gets tried at least once.
        self._q = [1.0] * len(tree.leaves)
        self._pending = {}

    def _ingest(self, seeds: SeedList) -> None:
        self._seeds = set(seeds)
        self._discovered = set()
        self._rounds_since_rebuild = 0
        self._build_pool(seeds)

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
        per_leaf: dict[int, list[int]] = {}
        for address, hit in results.items():
            leaf_index = self._pending.pop(address, None)
            if leaf_index is None:
                continue
            pool.record(leaf_index, hit)
            stats = per_leaf.setdefault(leaf_index, [0, 0])
            stats[0] += 1
            stats[1] += int(hit)
            if hit and len(self._discovered) < self.max_tracked_actives:
                self._discovered.add(address)
        # Q update: EMA of this round's reward rate, per touched region.
        lr = self.learning_rate
        for leaf_index, (probes, hits) in per_leaf.items():
            reward = hits / probes if probes else 0.0
            self._q[leaf_index] = (1.0 - lr) * self._q[leaf_index] + lr * reward
        # Epsilon-greedy allocation: the top-Q regions split almost the
        # whole budget; everything else shares the epsilon slice.
        ranked = sorted(range(len(self._q)), key=lambda i: -self._q[i])
        top = set(ranked[: self.greedy_top])
        n_rest = max(1, len(self._q) - len(top))
        for index in range(len(self._q)):
            if index in top:
                pool.set_weight(index, (1.0 - self.epsilon) * max(self._q[index], 1e-6))
            else:
                pool.set_weight(index, self.epsilon / n_rest)
        self._rounds_since_rebuild += 1
        if self._rounds_since_rebuild >= self.rebuild_every and self._discovered:
            self._rounds_since_rebuild = 0
            self._build_pool(sorted(self._seeds | self._discovered))
