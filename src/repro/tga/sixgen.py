"""6Gen (Murdock et al., IMC 2017).

6Gen clusters seed addresses into dense *ranges* — per-dimension value
sets grown greedily around tight groups of seeds — and generates the
unseen members of the densest ranges first.

Our implementation groups seeds at /64 granularity (merging sparse /64
groups up to their /48) and expands each cluster's wildcard range via
the shared leaf machinery.  Because clusters never span beyond a /48,
6Gen exploits dense in-prefix patterns extremely well (the paper finds
it contributes a non-trivial set of *unique* ICMP hits) but reaches far
fewer ASes than the tree generators.
"""

from __future__ import annotations

from ..addr import SeedList
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import get_model_cache
from .spacetree import LeafTable, leaves_for_groups

__all__ = ["SixGen"]


@register_tga
class SixGen(TargetGenerator):
    """6Gen: greedy dense-range clustering at /64–/48 granularity."""

    name = "6gen"
    online = False

    def __init__(self, salt: int = 0, min_cluster_seeds: int = 3, max_level: int = 3) -> None:
        super().__init__(salt=salt)
        self.min_cluster_seeds = min_cluster_seeds
        self.max_level = max_level
        self._pool: LeafPool | None = None

    def _frozen_clusters(self, seeds: SeedList) -> LeafTable:
        """Frozen model: the clustered range leaves, cached process-wide."""

        def build() -> LeafTable:
            by_net64: dict[int, list[int]] = {}
            for seed in set(seeds):
                by_net64.setdefault(seed >> 64, []).append(seed)

            clusters: list[list[int]] = []
            sparse_by_net48: dict[int, list[int]] = {}
            for net64, members in by_net64.items():
                if len(members) >= self.min_cluster_seeds:
                    clusters.append(sorted(members))
                else:
                    sparse_by_net48.setdefault(net64 >> 16, []).extend(members)
            for members in sparse_by_net48.values():
                clusters.append(sorted(members))

            return leaves_for_groups(clusters)

        return get_model_cache().get_or_build(
            "6gen.clusters",
            seeds.fingerprint,
            (self.min_cluster_seeds,),
            build,
            cost=len(seeds),
        )

    def _ingest(self, seeds: SeedList) -> None:
        leaves = self._frozen_clusters(seeds)
        self._pool = LeafPool(leaves, max_level=self.max_level, exclude=set(seeds))

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        assert self._pool is not None
        return [address for address, _ in self._pool.draw(count)]
