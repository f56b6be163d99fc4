"""Weighted candidate pools over space-tree leaves.

All the region generators (6Tree, 6Scan, DET, 6Hit, AddrMiner, 6Sense)
and the clustering generators (6Gen, 6Graph) boil down to the same
mechanic: keep a set of *regions*, each with a lazy candidate stream,
and split the generation budget across regions according to some
(possibly adaptive) weight.  :class:`LeafPool` implements that mechanic
once.  A pool reads its regions' densities from a
:class:`~repro.tga.spacetree.LeafTable`'s column and builds a region's
leaf and candidate stream only when it first draws from that region.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .spacetree import LeafTable, SpaceTreeLeaf, leaf_candidates

__all__ = ["LeafPool"]

#: A stream slot whose iterator has not been made yet (``None`` marks an
#: exhausted leaf).
_UNMADE = object()

#: A slot as stored, without making its stream.
_slot = list.__getitem__


class _Streams(list):
    """Per-leaf candidate iterators, each made on its first lookup.

    A slot holds ``_UNMADE`` until then and ``None`` once the leaf is
    exhausted.  Iterating the list yields the slots as they are, so
    liveness scans never build a leaf.
    """

    __slots__ = ("_regions", "_max_level")

    def __init__(self, leaves: Sequence[SpaceTreeLeaf], max_level: int) -> None:
        super().__init__([_UNMADE] * len(leaves))
        self._regions = leaves
        self._max_level = max_level

    def __getitem__(self, index):
        stream = _slot(self, index)
        if stream is _UNMADE:
            stream = leaf_candidates(self._regions[index], self._max_level)
            self[index] = stream
        return stream


class LeafPool:
    """Budget-weighted round-robin over per-leaf candidate iterators."""

    def __init__(
        self,
        leaves: Sequence[SpaceTreeLeaf],
        weights: list[float] | None = None,
        max_level: int = 3,
        exclude: set[int] | None = None,
    ) -> None:
        if weights is not None and len(weights) != len(leaves):
            raise ValueError("weights must match leaves")
        self.leaves = leaves
        self._iterators: list[Iterator[int] | None] = _Streams(leaves, max_level)
        #: Each leaf's density (read only): a :class:`LeafTable`'s own
        #: column, shared with every other pool over the table.
        self.densities: list[float] = (
            leaves.density
            if isinstance(leaves, LeafTable)
            else [leaf.density for leaf in leaves]
        )
        if weights is not None:
            self.weights: list[float] = list(weights)
        else:
            self.weights = [max(density, 1e-9) for density in self.densities]
        self._exclude = exclude if exclude is not None else set()
        self._emitted: set[int] = set()
        #: probes/hits bookkeeping for adaptive callers.
        self.probes = [0] * len(leaves)
        self.hits = [0] * len(leaves)

    # -- state ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.leaves)

    @property
    def alive(self) -> bool:
        """Whether any leaf can still produce candidates."""
        return any(iterator is not None for iterator in self._iterators)

    def set_weight(self, index: int, weight: float) -> None:
        """Set one leaf's budget weight (non-negative)."""
        self.weights[index] = max(0.0, weight)

    def record(self, index: int, hit: bool) -> None:
        """Record scan feedback for an address proposed by leaf ``index``."""
        self.probes[index] += 1
        if hit:
            self.hits[index] += 1

    def hitrate(self, index: int) -> float:
        """Observed hitrate of one leaf (0 before any feedback)."""
        probes = self.probes[index]
        return self.hits[index] / probes if probes else 0.0

    # -- drawing -----------------------------------------------------------

    def _take(self, index: int, want: int, out: list[tuple[int, int]]) -> int:
        """Append up to ``want`` fresh (address, ``index``) pairs from one
        leaf to ``out``; return how many.

        The leaf's iterator is made on its first take, advanced no
        further than its ``want``-th fresh address, and dropped once it
        ends.
        """
        emitted = self._emitted
        exclude = self._exclude
        taken = 0
        # Read the slot as stored: a pool takes from a leaf many times,
        # and only the first take needs the stream made.
        stream = _slot(self._iterators, index)
        if stream is _UNMADE:
            stream = self._iterators[index]
        for address in stream:
            if address in emitted or address in exclude:
                continue
            emitted.add(address)
            out.append((address, index))
            taken += 1
            if taken == want:
                return taken
        self._iterators[index] = None
        return taken

    def draw(self, count: int) -> list[tuple[int, int]]:
        """Draw up to ``count`` fresh (address, leaf_index) pairs.

        The budget is split across live leaves proportionally to their
        weights each pass; leaves that exhaust drop out and their share
        is redistributed on the next pass.
        """
        result: list[tuple[int, int]] = []
        if count <= 0:
            return result
        while len(result) < count:
            live = [
                i
                for i, iterator in enumerate(self._iterators)
                if iterator is not None and self.weights[i] > 0.0
            ]
            if not live:
                # Fall back to zero-weight leaves rather than underfilling.
                live = [
                    i for i, it in enumerate(self._iterators) if it is not None
                ]
                if not live:
                    break
                for i in live:
                    self.weights[i] = 1e-9
            total = sum(self.weights[i] for i in live)
            live.sort(key=lambda i: -self.weights[i])
            remaining = count - len(result)
            progressed = False
            for i in live:
                share = max(1, int(remaining * self.weights[i] / total))
                if self._take(i, min(share, count - len(result)), result):
                    progressed = True
                if len(result) >= count:
                    break
            if not progressed:
                break
        return result
