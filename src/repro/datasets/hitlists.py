"""Pre-compiled hitlist sources (IPv6 Hitlist, AddrMiner).

The IPv6 Hitlist is modelled as a broad, partially dealiased sample of
ever-responsive addresses (the paper measured only 84% of it still
responsive at scan time); AddrMiner as a much larger generator-derived
list that is heavily contaminated with aliased addresses and staler
content — matching Table 3, where AddrMiner's 74M raw addresses shrink
to 10M after dealiasing.
"""

from __future__ import annotations

from ..internet import SimulatedInternet
from .base import SeedDataset
from .sampling import collect_source
from .sources import SOURCE_SPECS

__all__ = ["HITLIST_SOURCES", "collect_hitlist_source"]

#: Names of the pre-compiled hitlist sources.
HITLIST_SOURCES: tuple[str, ...] = ("hitlist", "addrminer")


def collect_hitlist_source(
    internet: SimulatedInternet, name: str, pools: dict[int, list[int]] | None = None
) -> SeedDataset:
    """Collect one hitlist source.

    The IPv6 Hitlist additionally filters its own published alias list
    (the list it ships is derived from its own collection pipeline), so
    only the configured leakage fraction of aliased content survives.
    """
    if name not in HITLIST_SOURCES:
        raise KeyError(f"not a hitlist source: {name}")
    dataset = collect_source(internet, SOURCE_SPECS[name], pools)
    if name == "hitlist" and internet.published_alias_prefixes:
        from ..dealias import OfflineDealiaser

        # The world's shared published-list table, queried directly:
        # this is the hitlist's own curation, not a dealiasing step, so
        # it records no ``dealias.offline.*`` counters.
        alias_set = OfflineDealiaser.from_internet(internet).prefix_set
        clean, _ = alias_set.partition(dataset.addresses)
        dataset = SeedDataset(
            name=dataset.name,
            kind=dataset.kind,
            addresses=frozenset(clean),
            collected=dataset.collected,
            metadata=dict(dataset.metadata),
        )
    return dataset
