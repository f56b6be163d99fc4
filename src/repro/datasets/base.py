"""Seed dataset containers.

A :class:`SeedDataset` is an immutable named set of IPv6 addresses with
collection metadata; a :class:`DatasetCollection` is the full study input
(one dataset per source) with convenience set algebra, mirroring how the
paper assembles its 118.7M-address combined seed set from 12 sources.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum

from ..addr import SeedList
from ..asdb import ASRegistry

__all__ = ["SourceKind", "SeedDataset", "DatasetCollection"]


class SourceKind(str, Enum):
    """Provenance family of a seed source (the paper's D / R / Both)."""

    DOMAIN = "domain"
    ROUTER = "router"
    HITLIST = "hitlist"

    @property
    def table_tag(self) -> str:
        """The tag used in the paper's Table 3."""
        if self is SourceKind.DOMAIN:
            return "D"
        if self is SourceKind.ROUTER:
            return "R"
        return "Both"


@dataclass(frozen=True)
class SeedDataset:
    """An immutable, named set of seed addresses.

    :attr:`sorted_seeds` is made on first read and kept; it takes no
    part in equality and is not pickled.
    """

    name: str
    kind: SourceKind
    addresses: frozenset[int]
    collected: str = ""  # ISO date of collection
    metadata: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.addresses, frozenset):
            object.__setattr__(self, "addresses", frozenset(self.addresses))

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses)

    def __contains__(self, address: int) -> bool:
        return address in self.addresses

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("sorted_seeds", None)
        return state

    @functools.cached_property
    def sorted_seeds(self) -> SeedList:
        """The addresses in ascending order, as the one :class:`SeedList`
        every cell over this dataset prepares on: it is sorted, packed
        and fingerprinted once."""
        return SeedList(sorted(self.addresses))

    def ases(self, registry: ASRegistry) -> set[int]:
        """Distinct ASNs represented in the dataset."""
        return registry.ases_of(self.addresses)

    def restricted_to(self, keep: Iterable[int], suffix: str) -> "SeedDataset":
        """A derived dataset containing only addresses also in ``keep``."""
        keep_set = keep if isinstance(keep, (set, frozenset)) else set(keep)
        return SeedDataset(
            name=f"{self.name}:{suffix}",
            kind=self.kind,
            addresses=frozenset(self.addresses & keep_set),
            collected=self.collected,
            metadata=dict(self.metadata),
        )

    def without(self, drop: Iterable[int], suffix: str) -> "SeedDataset":
        """A derived dataset with the given addresses removed."""
        drop_set = drop if isinstance(drop, (set, frozenset)) else set(drop)
        return SeedDataset(
            name=f"{self.name}:{suffix}",
            kind=self.kind,
            addresses=frozenset(self.addresses - drop_set),
            collected=self.collected,
            metadata=dict(self.metadata),
        )

    def union_with(self, other: "SeedDataset", name: str) -> "SeedDataset":
        """The union of two datasets under a new name."""
        return SeedDataset(
            name=name,
            kind=self.kind if self.kind is other.kind else SourceKind.HITLIST,
            addresses=self.addresses | other.addresses,
        )

    def overlap_fraction(self, other: "SeedDataset") -> float:
        """Fraction of *this* dataset's addresses also present in ``other``."""
        if not self.addresses:
            return 0.0
        return len(self.addresses & other.addresses) / len(self.addresses)


class DatasetCollection:
    """The per-source seed datasets of one study, in collection order."""

    def __init__(self, datasets: Iterable[SeedDataset]) -> None:
        self._datasets: dict[str, SeedDataset] = {}
        for dataset in datasets:
            if dataset.name in self._datasets:
                raise ValueError(f"duplicate dataset name: {dataset.name}")
            self._datasets[dataset.name] = dataset

    def __getitem__(self, name: str) -> SeedDataset:
        return self._datasets[name]

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __iter__(self) -> Iterator[SeedDataset]:
        return iter(self._datasets.values())

    def __len__(self) -> int:
        return len(self._datasets)

    @property
    def names(self) -> list[str]:
        return list(self._datasets)

    def combined(self, name: str = "all-sources") -> SeedDataset:
        """Union of every source (the paper's 'All Sources' row)."""
        union: set[int] = set()
        for dataset in self._datasets.values():
            union |= dataset.addresses
        return SeedDataset(name=name, kind=SourceKind.HITLIST, addresses=frozenset(union))

    def of_kind(self, kind: SourceKind) -> list[SeedDataset]:
        """All datasets of one provenance family."""
        return [dataset for dataset in self._datasets.values() if dataset.kind is kind]

    def combined_of_kind(self, kind: SourceKind, name: str) -> SeedDataset:
        """Union within one family (the paper's All Domains / All Routers rows)."""
        union: set[int] = set()
        for dataset in self.of_kind(kind):
            union |= dataset.addresses
        return SeedDataset(name=name, kind=kind, addresses=frozenset(union))
