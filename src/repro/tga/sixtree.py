"""6Tree (Liu et al., Computer Networks 2019).

The original tree-based TGA: build a hierarchical space tree by
splitting on the most significant variable nybble, then expand leaf
regions densest-first.  Despite its age, the paper found 6Tree still
outperforms many newer models on hits — the density-first expansion is
simply very good at exploiting low-IID and wordy assignment patterns.

We implement the offline (pre-generated target list) usage, matching the
optimised 6Tree variant from Hou et al. that the paper evaluates.
"""

from __future__ import annotations

from ..addr import SeedList
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import cached_space_tree

__all__ = ["SixTree"]


@register_tga
class SixTree(TargetGenerator):
    """6Tree: leftmost-splitting space tree with density-ranked expansion."""

    name = "6tree"
    online = False

    def __init__(self, salt: int = 0, max_leaf_seeds: int = 12, max_level: int = 3) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self._pool: LeafPool | None = None

    def _ingest(self, seeds: SeedList) -> None:
        # Frozen model: the space tree (pure function of the seed list,
        # shared through the model cache).  Per-run state: the pool.
        tree = cached_space_tree(
            seeds, strategy="leftmost", max_leaf_seeds=self.max_leaf_seeds
        )
        self._pool = LeafPool(
            tree.leaves, max_level=self.max_level, exclude=set(seeds)
        )

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        assert self._pool is not None
        return [address for address, _ in self._pool.draw(count)]
