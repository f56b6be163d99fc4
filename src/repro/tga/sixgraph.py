"""6Graph (Yang et al., Computer Networks 2022).

6Graph mines address patterns offline: seeds are partitioned with
entropy-based splitting mechanics similar to DET's, then pattern nodes
are clustered via a similarity graph and merged into wildcard patterns.

Our implementation follows that two-stage shape:

1. an entropy-split space tree partitions the seeds (offline, no
   feedback loop — the defining difference from DET);
2. a graph-clustering analogue merges leaves that share the same
   wildcard signature inside one /32, *bounded* so merged patterns stay
   compact (real 6Graph rejects outlier merges the same way).

Budget is spread with square-root damping over pattern density, which
gives 6Graph its paper profile: flatter, broader coverage — competitive
AS diversity, hits below the best exploiters.
"""

from __future__ import annotations

from ..addr import SeedList
from ..addr.vector import np
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import SHARED_ENTROPY_CAPS, cached_space_tree, get_model_cache
from .spacetree import LeafTable, count_variable_dims, group_masks, leaves_for_groups

__all__ = ["SixGraph"]


@register_tga
class SixGraph(TargetGenerator):
    """6Graph: entropy-split pattern mining with bounded pattern merging."""

    name = "6graph"
    online = False

    def __init__(
        self,
        salt: int = 0,
        max_leaf_seeds: int = SHARED_ENTROPY_CAPS[1],
        max_level: int = 3,
        max_merged_dims: int = 6,
    ) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self.max_merged_dims = max_merged_dims
        self._pool: LeafPool | None = None

    def _frozen_patterns(self, seeds: SeedList) -> tuple[LeafTable, tuple]:
        """Frozen model: the merged pattern table plus damped weights.

        Pure function of the seed list, cached process-wide.  Internal
        passthrough regions are rows taken from the shared space tree's
        table, which stays as it is.
        """

        def build() -> tuple[LeafTable, tuple]:
            tree = cached_space_tree(
                seeds, strategy="entropy", max_leaf_seeds=self.max_leaf_seeds
            )
            table = tree.leaves
            # Graph-clustering analogue: leaves with the same wildcard
            # signature inside one /32 merge into a single pattern,
            # provided the merged pattern stays compact.
            buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
            first_seeds = table.first_seeds()
            for row in np.flatnonzero(~table.internal).tolist():
                key = (first_seeds[row] >> 96, tuple(table.variable_dims(row)))
                buckets.setdefault(key, []).extend(table.region_seeds(row))

            keys = sorted(buckets)
            groups = [sorted(set(buckets[key])) for key in keys]
            counts = count_variable_dims(group_masks(groups)).tolist()
            # Outlier merge: a combined pattern that is too diffuse keeps
            # only the densest half of its members as one pattern.
            for slot, (_, signature) in enumerate(keys):
                if counts[slot] > max(len(signature) + 2, self.max_merged_dims):
                    groups[slot] = groups[slot][: max(2, len(groups[slot]) // 2)]
            patterns = LeafTable.concat(
                [
                    leaves_for_groups(groups),
                    table.take(np.flatnonzero(table.internal)),
                ]
            )
            # Outlier culling (real 6Graph discards isolated seeds from its
            # pattern graph): single-support patterns get a token weight.
            # Remaining patterns are density-weighted with mild damping —
            # flatter than 6Tree, trading peak exploitation for breadth.
            weights = tuple(
                max(density, 1e-9) ** 0.85
                if size >= 2
                else max(density, 1e-9) * 0.05
                for density, size in zip(patterns.density, patterns.sizes.tolist())
            )
            return patterns, weights

        return get_model_cache().get_or_build(
            "6graph.patterns",
            seeds.fingerprint,
            (self.max_leaf_seeds, self.max_merged_dims),
            build,
            cost=len(seeds),
        )

    def _ingest(self, seeds: SeedList) -> None:
        leaves, weights = self._frozen_patterns(seeds)
        self._pool = LeafPool(
            leaves,
            weights=list(weights),
            max_level=self.max_level,
            exclude=set(seeds),
        )

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        assert self._pool is not None
        return [address for address, _ in self._pool.draw(count)]
