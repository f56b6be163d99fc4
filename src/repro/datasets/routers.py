"""Router/traceroute-derived seed sources (Scamper, RIPE Atlas).

These sources see router interfaces on forwarding paths (including
firewalled routers that never answer probes) and, for RIPE Atlas, the
probe-host population itself.  Their defining property, reproduced from
the paper's Figure 1, is extreme AS breadth with comparatively few
addresses.
"""

from __future__ import annotations

from ..internet import SimulatedInternet
from .base import SeedDataset
from .sampling import collect_source
from .sources import SOURCE_SPECS

__all__ = ["ROUTER_SOURCES", "collect_router_source"]

#: Names of the traceroute-based sources.
ROUTER_SOURCES: tuple[str, ...] = ("scamper", "ripe_atlas")


def collect_router_source(
    internet: SimulatedInternet, name: str, pools: dict[int, list[int]] | None = None
) -> SeedDataset:
    """Collect one traceroute-based source."""
    if name not in ROUTER_SOURCES:
        raise KeyError(f"not a router source: {name}")
    return collect_source(internet, SOURCE_SPECS[name], pools)
