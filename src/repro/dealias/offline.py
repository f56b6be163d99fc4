"""Offline dealiasing: filtering against a published alias list.

Mirrors the common practice of removing addresses covered by the IPv6
Hitlist's published aliased-prefix list.  The published list is
*incomplete by construction* (it only knows aliases someone has already
found), which is exactly the limitation the paper's RQ1.a quantifies.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable

from ..addr import Prefix
from ..internet import SimulatedInternet
from ..telemetry import get_telemetry
from .prefixset import AliasPrefixSet

__all__ = ["OfflineDealiaser"]

#: The dealiaser :meth:`OfflineDealiaser.from_internet` built for each
#: live world, so the published-list trie is built once per world.
_BY_WORLD: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class OfflineDealiaser:
    """Alias filtering against a static, pre-published prefix list."""

    def __init__(self, published: Iterable[Prefix]) -> None:
        self.prefix_set = AliasPrefixSet(published)

    @classmethod
    def from_internet(cls, internet: SimulatedInternet) -> "OfflineDealiaser":
        """The published list the simulated community has accumulated.

        The list depends only on the world and a dealiaser is read-only
        once built, so every call for one world returns the same
        instance: seed preprocessing and every grid cell share its trie.
        """
        dealiaser = _BY_WORLD.get(internet)
        if dealiaser is None:
            dealiaser = _BY_WORLD[internet] = cls(internet.published_alias_prefixes)
        return dealiaser

    def is_aliased(self, address: int) -> bool:
        """Whether the address is covered by the published list."""
        return self.prefix_set.covers(address)

    def partition(self, addresses: Iterable[int]) -> tuple[set[int], set[int]]:
        """Split into (clean, aliased-per-published-list)."""
        clean, aliased = self.prefix_set.partition(addresses)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("dealias.offline.aliased_addresses", len(aliased))
            tel.count("dealias.offline.clean_addresses", len(clean))
        return clean, aliased

    def filter(self, addresses: Iterable[int]) -> set[int]:
        """Addresses not covered by the published list."""
        clean, _ = self.partition(addresses)
        return clean

    def __len__(self) -> int:
        return len(self.prefix_set)
