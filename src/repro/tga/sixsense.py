"""6Sense (Williams et al., USENIX Security 2024).

6Sense is the most recent online generator the paper evaluates.  Three
design elements define it, and all three are reproduced here:

1. **Hierarchical generation per network section.**  Seeds are grouped
   by /32 ("sections" standing in for the per-AS hierarchy 6Sense
   learns); each section gets its own space tree, all of them grown in
   one forest build, and its candidate pool is made the first time it
   receives budget.
2. **Reinforcement-learning budget allocation with a dedicated
   AS-coverage slice.**  Most of each round goes to sections weighted by
   their smoothed hitrate; a fixed exploration fraction goes to the
   least-probed sections — the mechanism behind 6Sense's strong active-AS
   numbers in the paper.
3. **Built-in online dealiasing.**  Sections whose /96s saturate (many
   consecutive hits, no misses) are treated as aliased: the /96 is
   suppressed from future generation and its hits stop feeding the
   reward.  This is why 6Sense generated only ~94K aliased addresses
   from fully aliased seeds while DET generated 33M (paper Table 4).
"""

from __future__ import annotations

import itertools
import math

from ..addr import SeedList
from ..addr.vector import np
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import get_model_cache
from .spacetree import LeafTable, space_forest

__all__ = ["SixSense"]


class _Section:
    """One /32 section: its tree's leaves, a lazy pool and reward statistics."""

    __slots__ = ("net32", "size", "leaves", "pool", "probes", "hits", "reward")

    def __init__(self, net32: int, size: int, leaves: LeafTable) -> None:
        self.net32 = net32
        self.size = size  # seeds in the section
        self.leaves = leaves
        self.pool: LeafPool | None = None
        self.probes = 0
        self.hits = 0
        self.reward = 0.5  # optimistic start

    def ensure_pool(self, exclude: set[int], max_level: int) -> LeafPool:
        if self.pool is None:
            self.pool = LeafPool(self.leaves, max_level=max_level, exclude=exclude)
        return self.pool

    @property
    def alive(self) -> bool:
        return self.pool is None or self.pool.alive


@register_tga
class SixSense(TargetGenerator):
    """6Sense: sectioned RL generation with AS exploration and dealiasing."""

    name = "6sense"
    online = True

    def __init__(
        self,
        salt: int = 0,
        max_level: int = 3,
        exploration_fraction: float = 0.18,
        reward_smoothing: float = 0.3,
        alias_suppression_threshold: int = 16,
    ) -> None:
        super().__init__(salt=salt)
        self.max_level = max_level
        self.exploration_fraction = exploration_fraction
        self.reward_smoothing = reward_smoothing
        self.alias_suppression_threshold = alias_suppression_threshold
        self._sections: list[_Section] = []
        self._seed_set: set[int] = set()
        self._pending: dict[int, int] = {}  # address -> section index
        self._net96_hits: dict[int, int] = {}
        self._suppressed_net96: set[int] = set()
        self.suppressed_alias_prefixes = 0

    # -- model ------------------------------------------------------------

    def _frozen_sections(
        self, seeds: SeedList
    ) -> tuple[tuple[int, int, LeafTable], ...]:
        """Frozen model: (net32, seed count, leaf table) per /32 section,
        cached.

        Each section's table is its leftmost space tree with leaves of at
        most 10 seeds, every section grown in one forest build.  The
        sections are runs of the ascending seeds, so the forest reads the
        seed list's own matrix.
        """

        def build() -> tuple[tuple[int, int, LeafTable], ...]:
            ordered = seeds.sorted_unique()
            _, counts = np.unique(ordered.packed.prefix64 >> 32, return_counts=True)
            sizes = counts.tolist()
            tables = space_forest(
                ordered, sizes, strategy="leftmost", max_leaf_seeds=10
            )
            starts = itertools.accumulate(sizes, initial=0)
            return tuple(
                (ordered[start] >> 96, size, table)
                for start, size, table in zip(starts, sizes, tables)
            )

        return get_model_cache().get_or_build(
            "6sense.sections",
            seeds.fingerprint,
            (),
            build,
            cost=len(seeds),
        )

    def _ingest(self, seeds: SeedList) -> None:
        # Per-run state: fresh _Section wrappers (reward, probes, lazy
        # pool) over the frozen section table.
        self._sections = [
            _Section(net32, size, leaves)
            for net32, size, leaves in self._frozen_sections(seeds)
        ]
        self._seed_set = set(seeds)
        self._pending = {}
        self._net96_hits = {}
        self._suppressed_net96 = set()
        self.suppressed_alias_prefixes = 0

    # -- generation ----------------------------------------------------------

    def _draw_from_section(self, section_index: int, count: int) -> list[int]:
        section = self._sections[section_index]
        pool = section.ensure_pool(self._seed_set, self.max_level)
        out: list[int] = []
        # Over-draw slightly to compensate for alias suppression drops.
        drawn = pool.draw(count + 4)
        for address, _leaf in drawn:
            if (address >> 32) in self._suppressed_net96:
                continue
            if address in self._pending:
                continue  # another section derived the same candidate
            out.append(address)
            self._pending[address] = section_index
            if len(out) >= count:
                break
        return out

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        alive = [i for i, section in enumerate(self._sections) if section.alive]
        if not alive:
            return []
        result: list[int] = []

        # Exploration slice: least-probed sections, evenly.
        explore_budget = int(count * self.exploration_fraction)
        if explore_budget:
            by_probes = sorted(alive, key=lambda i: self._sections[i].probes)
            cohort = by_probes[: max(1, len(by_probes) // 4)]
            per_section = max(1, explore_budget // len(cohort))
            for index in cohort:
                result.extend(self._draw_from_section(index, per_section))
                if len(result) >= explore_budget:
                    break

        # Exploitation slice: reward-proportional, size-damped.
        remaining = count - len(result)
        if remaining > 0:
            weights = {
                i: self._sections[i].reward
                * math.sqrt(1.0 + self._sections[i].size)
                for i in alive
            }
            total = sum(weights.values()) or 1.0
            ranked = sorted(alive, key=lambda i: -weights[i])
            for index in ranked:
                if remaining <= 0:
                    break
                share = max(1, int(remaining * weights[index] / total))
                got = self._draw_from_section(index, min(share, remaining))
                result.extend(got)
                remaining = count - len(result)
            # Final fill pass for underfilled rounds.
            for index in ranked:
                if len(result) >= count:
                    break
                result.extend(self._draw_from_section(index, count - len(result)))
        return result[:count]

    def observe(self, results) -> None:
        touched: dict[int, list[int]] = {}
        for address, hit in results.items():
            section_index = self._pending.pop(address, None)
            if section_index is None:
                continue
            net96 = address >> 32
            if hit:
                streak = self._net96_hits.get(net96, 0) + 1
                self._net96_hits[net96] = streak
                if (
                    streak >= self.alias_suppression_threshold
                    and net96 not in self._suppressed_net96
                ):
                    self._suppressed_net96.add(net96)
                    self.suppressed_alias_prefixes += 1
                if net96 in self._suppressed_net96:
                    # Aliased hits do not feed the reward signal.
                    continue
            else:
                self._net96_hits[net96] = 0
            stats = touched.setdefault(section_index, [0, 0])
            stats[0] += 1
            stats[1] += int(hit)
        smoothing = self.reward_smoothing
        for section_index, (probes, hits) in touched.items():
            section = self._sections[section_index]
            section.probes += probes
            section.hits += hits
            rate = hits / probes if probes else 0.0
            section.reward = (1.0 - smoothing) * section.reward + smoothing * rate
