"""AddrMiner (Song et al., USENIX ATC 2022) — bonus ninth generator.

AddrMiner expands DET toward *long-term, comprehensive* discovery; the
paper under reproduction does not evaluate it directly but uses the
hitlist it produces as a seed source.  We include it as an optional
extra generator (registered, but not part of the paper's eight in
``ALL_TGA_NAMES``), implementing its three-regime design:

* **many-seed regions** — DET-style density-first tree expansion;
* **few-seed regions** — pattern *transfer*: IID structures that proved
  productive in rich regions are replayed into sparsely seeded /48s;
* **seedless regions** — optional: given a list of announced prefixes
  (AddrMiner uses BGP data), a budget slice probes conventional IIDs in
  prefixes no seed has ever touched.
"""

from __future__ import annotations

from ..addr import Prefix, SeedList
from ..addr.rand import DeterministicStream
from .base import TargetGenerator, register_tga
from .leafpool import LeafPool
from .modelcache import cached_space_tree, get_model_cache

__all__ = ["AddrMiner"]

#: Conventional IIDs replayed into few-seed and seedless space.
_TRANSFER_IIDS: tuple[int, ...] = (
    0x1, 0x2, 0x3, 0x10, 0x53, 0x80, 0x100, 0x443, 0xDEAD, 0xBEEF, 0xCAFE,
)


@register_tga
class AddrMiner(TargetGenerator):
    """AddrMiner: DET-style mining plus pattern transfer and seedless probing."""

    name = "addrminer"
    online = True

    def __init__(
        self,
        salt: int = 0,
        max_leaf_seeds: int = 12,
        max_level: int = 3,
        transfer_fraction: float = 0.15,
        seedless_fraction: float = 0.1,
        announced_prefixes: tuple[Prefix, ...] = (),
    ) -> None:
        super().__init__(salt=salt)
        self.max_leaf_seeds = max_leaf_seeds
        self.max_level = max_level
        self.transfer_fraction = transfer_fraction
        self.seedless_fraction = seedless_fraction if announced_prefixes else 0.0
        self.announced_prefixes = announced_prefixes
        self._pool: LeafPool | None = None
        self._pending: dict[int, int] = {}
        self._seed_set: set[int] = set()
        self._sparse_net48: list[int] = []
        self._stream: DeterministicStream | None = None
        self._emitted_extra: set[int] = set()

    # -- model ------------------------------------------------------------

    def _ingest(self, seeds: SeedList) -> None:
        # Frozen model: the (cached) entropy tree plus the sparse-/48
        # table.  Per-run state: pool, pending map, transfer stream.
        self._seed_set = set(seeds)
        tree = cached_space_tree(
            seeds, strategy="entropy", max_leaf_seeds=self.max_leaf_seeds
        )
        self._pool = LeafPool(
            tree.leaves, max_level=self.max_level, exclude=self._seed_set
        )

        def build_sparse() -> tuple[int, ...]:
            by_net48: dict[int, int] = {}
            for seed in self._seed_set:
                net48 = seed >> 80
                by_net48[net48] = by_net48.get(net48, 0) + 1
            return tuple(
                sorted(net48 for net48, count in by_net48.items() if count <= 2)
            )

        self._sparse_net48 = list(
            get_model_cache().get_or_build(
                "addrminer.sparse48",
                seeds.fingerprint,
                (),
                build_sparse,
                cost=len(seeds),
            )
        )
        self._stream = DeterministicStream(0xADD2, self.salt)
        self._pending = {}
        self._emitted_extra = set()

    # -- the three regimes -------------------------------------------------

    def _transfer_candidates(self, count: int) -> list[int]:
        """Replay conventional IIDs into sparsely seeded /48s."""
        if not self._sparse_net48:
            return []
        assert self._stream is not None
        out: list[int] = []
        attempts = 0
        while len(out) < count and attempts < count * 8:
            attempts += 1
            net48 = self._sparse_net48[
                self._stream.next_below(len(self._sparse_net48))
            ]
            subnet = self._stream.next_below(8)  # low subnets, per convention
            iid = _TRANSFER_IIDS[self._stream.next_below(len(_TRANSFER_IIDS))]
            address = ((net48 << 16) | subnet) << 64 | iid
            if address in self._seed_set or address in self._emitted_extra:
                continue
            self._emitted_extra.add(address)
            out.append(address)
        return out

    def _seedless_candidates(self, count: int) -> list[int]:
        """Probe conventional IIDs in announced-but-unseeded prefixes."""
        if not self.announced_prefixes:
            return []
        assert self._stream is not None
        seeded_net32 = {seed >> 96 for seed in self._seed_set}
        virgin = [
            prefix
            for prefix in self.announced_prefixes
            if not any(
                prefix.contains(net32 << 96) for net32 in seeded_net32
            )
        ]
        pool = virgin or list(self.announced_prefixes)
        out: list[int] = []
        attempts = 0
        while len(out) < count and attempts < count * 8:
            attempts += 1
            prefix = pool[self._stream.next_below(len(pool))]
            site = self._stream.next_below(4)
            subnet = self._stream.next_below(4)
            iid = _TRANSFER_IIDS[self._stream.next_below(len(_TRANSFER_IIDS))]
            net64 = (prefix.value >> 64) | (site << 16) | subnet
            address = (net64 << 64) | iid
            if address in self._seed_set or address in self._emitted_extra:
                continue
            self._emitted_extra.add(address)
            out.append(address)
        return out

    # -- generation -----------------------------------------------------------

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        assert self._pool is not None
        transfer_quota = int(count * self.transfer_fraction)
        seedless_quota = int(count * self.seedless_fraction)
        result = self._transfer_candidates(transfer_quota)
        result.extend(self._seedless_candidates(seedless_quota))
        drawn = self._pool.draw(count - len(result))
        emitted = set(result)
        for address, leaf_index in drawn:
            if address in emitted or address in self._pending:
                continue
            self._pending[address] = leaf_index
            result.append(address)
        return result[:count]

    def observe(self, results) -> None:
        assert self._pool is not None
        pool = self._pool
        probed: set[int] = set()
        for address, hit in results.items():
            leaf_index = self._pending.pop(address, None)
            if leaf_index is not None:
                pool.record(leaf_index, hit)
                probed.add(leaf_index)
        # Leaves probed only in earlier rounds keep their weights.
        for index in probed:
            smoothed = (pool.hits[index] + 1.0) / (pool.probes[index] + 2.0)
            pool.set_weight(index, smoothed * max(pool.densities[index], 1e-9))
