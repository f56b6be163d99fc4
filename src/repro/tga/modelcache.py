"""Process-wide cache of frozen, salt-free TGA model artifacts.

Profiling an 8-TGA grid slice shows ``TargetGenerator.prepare``
dominating wall time, yet every prepared model is a pure function of
the seed list (never of the per-cell salt): the space tree, DET's
network groups, 6Graph's merged pattern list, 6Gen's clusters,
6Sense's sections, Entropy/IP's segment chain.  The paper's grid runs
each (TGA, dataset) pair on four ports, and the tree-family TGAs share
identical ``SpaceTree`` parameterisations — so the same artifact is
rebuilt many times per study.

:class:`ModelCache` memoises those builds process-wide.  Keys are
``(artifact_kind, seed_fingerprint, params)`` where the fingerprint is
an 8-byte BLAKE2b over the seed count and the packed seed bytes, so a
hit can only occur for the exact same seed sequence and build
parameters — and since every builder is deterministic, serving a
cached artifact is bit-identical to rebuilding it.  Artifacts must therefore be treated
as *frozen*: TGAs layer their per-run mutable state (pools, pending
maps, random streams seeded by the per-cell salt) on top without
mutating the shared structures.

Eviction is a bounded LRU over entry count and total cost (seed
count), so long :class:`~repro.experiments.harness.Study` sessions do
not grow without limit.  Cache traffic is counted under the
``tga.model_cache.*`` telemetry namespace, which — like ``meta.*`` —
is sanctioned to differ between cold/warm and serial/parallel
executions of an otherwise identical workload.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from ..addr import ADDRESS_NYBBLES, SeedList
from ..telemetry import get_telemetry
from .modelstore import get_model_store
from .spacetree import SpaceTree

__all__ = [
    "CacheStats",
    "ModelCache",
    "cached_space_tree",
    "get_model_cache",
    "seed_fingerprint",
    "use_model_cache",
]


def seed_fingerprint(seeds: Sequence[int]) -> int:
    """64-bit fingerprint of a seed list (order-sensitive).

    Two seed lists share a fingerprint only when they are the same
    addresses in the same order — the conservative choice, since some
    models (Entropy/IP's transition counts) genuinely depend on seed
    order.  Cells get cross-cell hits for free because
    :func:`~repro.experiments.runner.run_generation` prepares every cell
    of a dataset on the dataset's one ascending
    :class:`~repro.addr.SeedList` (``SeedDataset.sorted_seeds``), which
    computes this fingerprint once and keeps it.

    The fingerprint is an 8-byte BLAKE2b over the seed count and each
    seed's 16 big-endian bytes (``SeedList.fingerprint``).
    """
    return SeedList.of(seeds).fingerprint


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`ModelCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for benchmark artifacts and diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class ModelCache:
    """Bounded LRU cache of frozen model artifacts.

    ``max_entries`` bounds the entry count and ``max_cost`` bounds the
    summed per-entry cost (builders charge one unit per seed), so the
    cache holds many small-dataset artifacts or a few huge ones.  The
    most recently inserted entry is never evicted: an over-budget
    artifact still caches long enough to be shared within one cell.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_cost: int = 4_000_000,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_cost < 1:
            raise ValueError("max_cost must be at least 1")
        self.max_entries = max_entries
        self.max_cost = max_cost
        #: Escape hatch (CLI ``--no-model-cache``): when false, every
        #: lookup builds fresh and records no statistics.
        self.enabled = enabled
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._total_cost = 0

    # -- state -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        """Whether ``(kind, fingerprint, params)`` is cached in memory."""
        return key in self._entries

    @property
    def total_cost(self) -> int:
        """Summed cost of all cached entries (seed units)."""
        return self._total_cost

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()
        self._total_cost = 0

    # -- lookup ------------------------------------------------------------

    def get_or_build(
        self,
        kind: str,
        fingerprint: int,
        params: tuple,
        builder: Callable[[], object],
        cost: int = 1,
    ) -> object:
        """Return the cached artifact for ``(kind, fingerprint, params)``,
        building (and caching) it via ``builder`` on a miss.

        The returned artifact is shared between callers and must not be
        mutated.  ``cost`` feeds the eviction budget; pass the seed
        count of the build.  With the cache disabled this is a plain
        ``builder()`` call — no storage, no counters.

        When a persistent :class:`~repro.tga.modelstore.ModelStore` is
        active, a memory miss consults the disk tier before building,
        and fresh builds are persisted for future processes.
        """
        if not self.enabled:
            return builder()
        key = (kind, fingerprint, params)
        entry = self._entries.get(key)
        tel = get_telemetry()
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if tel.enabled:
                tel.count("tga.model_cache.hits")
            return entry[0]
        self.stats.misses += 1
        if tel.enabled:
            tel.count("tga.model_cache.misses")
        store = get_model_store()
        if store is not None:
            artifact = store.get_or_build(kind, fingerprint, params, builder)
        else:
            artifact = builder()
        self._insert(key, artifact, cost)
        return artifact

    def put(
        self, kind: str, fingerprint: int, params: tuple, artifact: object, cost: int = 1
    ) -> None:
        """Cache ``artifact`` under ``(kind, fingerprint, params)`` unless
        an entry is already there.

        For a builder that makes another artifact on the way (one
        entropy build grows DET's and 6Graph's trees): it counts no hit
        or miss, and it stays in memory (the disk store persists what
        was asked for).
        """
        key = (kind, fingerprint, params)
        if self.enabled and key not in self._entries:
            self._insert(key, artifact, cost)

    def _insert(self, key: tuple, artifact: object, cost: int) -> None:
        """Add an entry as the newest, then evict down to the bounds."""
        cost = max(1, cost)
        self._entries[key] = (artifact, cost)
        self._total_cost += cost
        evicted = 0
        while (
            len(self._entries) > self.max_entries
            or self._total_cost > self.max_cost
        ) and len(self._entries) > 1:
            _, (_, dropped_cost) = self._entries.popitem(last=False)
            self._total_cost -= dropped_cost
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            tel = get_telemetry()
            if tel.enabled:
                tel.count("tga.model_cache.evictions", evicted)


#: The process-wide default cache (workers get their own per process).
_DEFAULT_CACHE = ModelCache()

_ACTIVE: ModelCache | None = None


def get_model_cache() -> ModelCache:
    """The active model cache (the process-wide default unless
    :func:`use_model_cache` has activated another one)."""
    return _ACTIVE if _ACTIVE is not None else _DEFAULT_CACHE


@contextmanager
def use_model_cache(cache: ModelCache | None) -> Iterator[ModelCache]:
    """Activate ``cache`` for the dynamic extent of the block.

    ``use_model_cache(None)`` is a pass-through (the previously active
    cache stays active), mirroring
    :func:`~repro.telemetry.use_telemetry` so call sites can wire an
    optional parameter without branching.  Tests use this to run
    against a private cold cache regardless of process state.
    """
    global _ACTIVE
    if cache is None:
        yield get_model_cache()
        return
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous


#: DET's and 6Graph's default entropy leaf caps (their constructors'
#: defaults).  DET's prepare grows 6Graph's tree in the same build
#: (``cached_space_tree(partner_cap=...)``), since 6Graph prepares
#: every dataset after DET in the paper's grid (``ALL_TGA_NAMES``).
SHARED_ENTROPY_CAPS = (12, 16)


def cached_space_tree(
    seeds: Sequence[int],
    strategy: str = "leftmost",
    max_leaf_seeds: int = 12,
    max_depth: int = ADDRESS_NYBBLES,
    internal_regions: bool = True,
    max_internal_seeds: int = 384,
    max_internal_dims: int = 8,
    partner_cap: int | None = None,
):
    """Build (or fetch) a :class:`~repro.tga.spacetree.SpaceTree`.

    This is the shared frozen-model entry point for every tree-family
    TGA: 6Tree/6Scan/6Hit (leftmost), DET/AddrMiner (entropy) and
    6Graph (entropy, wider leaves) all route their tree builds through
    here, so identically parameterised trees are built once per seed
    set and process.  The returned tree — leaves included — is shared
    and must not be mutated; ``LeafPool`` already keeps all per-run
    state (weights, iterators, emitted sets) on its own side.

    ``partner_cap`` names a second leaf cap whose tree a later request
    for the same seeds is expected to ask for (DET's prepare passes
    6Graph's).  On a miss, with the cache on and that tree not cached
    yet, both trees grow in one build and the partner's is cached beside
    the one returned (:meth:`ModelCache.put`).  Otherwise the tree is a
    one-cap build of its own, as every request without a partner is
    (DET's online rebuilds, AddrMiner, 6Graph, non-default caps).  Each
    tree keeps its own key, so a tree stored by an earlier version still
    loads.
    """
    seeds = SeedList.of(seeds)
    shape = (max_depth, internal_regions, max_internal_seeds, max_internal_dims)
    cache = get_model_cache()
    caps = [max_leaf_seeds]
    if (
        partner_cap not in (None, max_leaf_seeds)
        and cache.enabled
        and ("spacetree", seeds.fingerprint, (strategy, partner_cap, *shape))
        not in cache
    ):
        caps.append(partner_cap)

    def build() -> SpaceTree:
        tree, *partners = SpaceTree.grown(seeds, strategy, caps, *shape)
        for cap, partner in zip(caps[1:], partners):
            cache.put(
                "spacetree",
                seeds.fingerprint,
                (strategy, cap, *shape),
                partner,
                cost=len(seeds),
            )
        return tree

    return cache.get_or_build(
        "spacetree",
        seeds.fingerprint,
        (strategy, max_leaf_seeds, *shape),
        build,
        cost=len(seeds),
    )
