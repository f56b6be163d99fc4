"""DET (Song et al., ToN 2022).

DET refines 6Tree in two ways the paper highlights:

1. the space tree splits on the *lowest-entropy* variable nybble
   (peeling the most structured dimension first), and
2. it is online: budgets are periodically reallocated from scan
   feedback, and discovered active addresses are folded back into the
   tree on periodic rebuilds.

Our DET allocates in two tiers.  Leaves are grouped by their /32
network; across networks the budget follows a UCB rule (observed
hitrate plus an exploration bonus decaying with probes), and within a
network leaves are expanded densest-first with hitrate feedback.  The
cross-network exploration term is what gives DET its signature
behaviour in the paper: the best *active-AS diversity* of all eight
generators, and occasional runaway wins on small port-specific datasets
where the online component hones in quickly.

Without seed dealiasing, the same feedback loop is DET's downfall:
aliased regions return 100% hitrates, so DET pours its budget into them
(33M of its 50M budget in the paper's Table 4).
"""

from __future__ import annotations

import math

from ..addr import SeedList
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import SHARED_ENTROPY_CAPS, cached_space_tree, get_model_cache
from .spacetree import LeafTable

__all__ = ["DET"]


class _NetworkGroup:
    """Leaves of one /32 plus its cross-network UCB statistics."""

    __slots__ = ("net32", "pool", "probes", "hits")

    def __init__(self, net32: int, pool: LeafPool) -> None:
        self.net32 = net32
        self.pool = pool
        self.probes = 0
        self.hits = 0

    @property
    def hitrate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0


@register_tga
class DET(TargetGenerator):
    """DET: entropy-split tree, two-tier UCB reallocation, online rebuilds."""

    name = "det"
    online = True

    def __init__(
        self,
        salt: int = 0,
        max_leaf_seeds: int = SHARED_ENTROPY_CAPS[0],
        max_level: int = 3,
        exploration_constant: float = 0.8,
        rebuild_every: int = 10,
        max_tracked_actives: int = 200_000,
    ) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self.exploration_constant = exploration_constant
        self.rebuild_every = rebuild_every
        self.max_tracked_actives = max_tracked_actives
        self._groups: list[_NetworkGroup] = []
        self._pending: dict[int, tuple[int, int]] = {}  # addr -> (group, leaf)
        self._seeds: set[int] = set()
        self._discovered: set[int] = set()
        self._rounds_since_rebuild = 0

    # -- model construction -----------------------------------------------

    def _frozen_groups(
        self, seeds: SeedList, partner_cap: int | None = None
    ) -> tuple[tuple[int, LeafTable], ...]:
        """Frozen model: entropy-tree leaves grouped by /32, cached.

        Each group is the sub-table of the leaves whose first seed lies
        in its /32, in tree order.  Pure function of the seed list — the
        UCB statistics, pools and pending maps layered on top are
        per-run state.  ``partner_cap`` goes to the tree's build.
        """

        def build() -> tuple[tuple[int, LeafTable], ...]:
            tree = cached_space_tree(
                seeds,
                strategy="entropy",
                max_leaf_seeds=self.max_leaf_seeds,
                partner_cap=partner_cap,
            )
            by_net32: dict[int, list[int]] = {}
            for row, first in enumerate(tree.leaves.first_seeds()):
                by_net32.setdefault(first >> 96, []).append(row)
            return tuple(
                (net32, tree.leaves.take(rows))
                for net32, rows in sorted(by_net32.items())
            )

        return get_model_cache().get_or_build(
            "det.groups",
            seeds.fingerprint,
            (self.max_leaf_seeds,),
            build,
            cost=len(seeds),
        )

    def _build_groups(self, seeds: SeedList, partner_cap: int | None = None) -> None:
        grouped = self._frozen_groups(seeds, partner_cap)
        exclude = self._seeds | self._discovered
        old_stats = {group.net32: (group.probes, group.hits) for group in self._groups}
        self._groups = []
        for net32, leaves in grouped:
            pool = LeafPool(leaves, max_level=self.max_level, exclude=exclude)
            group = _NetworkGroup(net32, pool)
            group.probes, group.hits = old_stats.get(net32, (0, 0))
            self._groups.append(group)
        self._pending = {}

    def _ingest(self, seeds: SeedList) -> None:
        self._seeds = set(seeds)
        self._discovered = set()
        self._rounds_since_rebuild = 0
        self._groups = []
        # 6Graph prepares the same seeds after DET in the paper's grid, so
        # its tree grows in this build; the online rebuilds grow DET's
        # alone.
        self._build_groups(seeds, partner_cap=SHARED_ENTROPY_CAPS[1])

    # -- generation ----------------------------------------------------------

    def _group_weight(self, group: _NetworkGroup, log_total: float) -> float:
        bonus = self.exploration_constant * math.sqrt(
            log_total / (group.probes + 1.0)
        )
        return group.hitrate + bonus

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        alive = [
            (index, group)
            for index, group in enumerate(self._groups)
            if group.pool.alive
        ]
        if not alive:
            return []
        total_probes = sum(group.probes for group in self._groups) + 1
        log_total = math.log(total_probes + 1.0)
        weights = {
            index: self._group_weight(group, log_total) for index, group in alive
        }
        total_weight = sum(weights.values()) or 1.0
        alive.sort(key=lambda item: -weights[item[0]])
        result: list[int] = []
        seen: set[int] = set()

        def take(group_index: int, group: _NetworkGroup, want: int) -> None:
            # Internal generalisation regions can reach across /32s, so
            # two groups may derive the same candidate: dedupe here.
            for address, leaf_index in group.pool.draw(want):
                if address in seen or address in self._pending:
                    continue
                seen.add(address)
                self._pending[address] = (group_index, leaf_index)
                result.append(address)

        for group_index, group in alive:
            if len(result) >= count:
                break
            share = max(1, int(count * weights[group_index] / total_weight))
            take(group_index, group, min(share, count - len(result)))
        # Fill pass: exhaust remaining capacity in weight order.
        for group_index, group in alive:
            if len(result) >= count:
                break
            take(group_index, group, count - len(result))
        return result

    def observe(self, results) -> None:
        probed: set[tuple[int, int]] = set()
        for address, hit in results.items():
            located = self._pending.pop(address, None)
            if located is None:
                continue
            group_index, leaf_index = located
            group = self._groups[group_index]
            group.probes += 1
            if hit:
                group.hits += 1
                if len(self._discovered) < self.max_tracked_actives:
                    self._discovered.add(address)
            pool = group.pool
            if leaf_index < len(pool):
                pool.record(leaf_index, hit)
                probed.add(located)
        # Within-group reweight: density prior scaled by smoothed hitrate.
        # Leaves probed only in earlier rounds keep the weight their
        # unchanged counts gave them.
        for group_index, index in probed:
            pool = self._groups[group_index].pool
            smoothed = (pool.hits[index] + 1.0) / (pool.probes[index] + 2.0)
            pool.set_weight(index, smoothed * max(pool.densities[index], 1e-9))
        self._rounds_since_rebuild += 1
        if self._rounds_since_rebuild >= self.rebuild_every and self._discovered:
            self._rounds_since_rebuild = 0
            self._build_groups(SeedList(sorted(self._seeds | self._discovered)))

    @property
    def discovered_actives(self) -> int:
        """Number of actives folded back into the model so far."""
        return len(self._discovered)
