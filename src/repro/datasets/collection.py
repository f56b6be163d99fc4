"""Assembling the full study input: all 12 sources.

Mirrors the paper's Section 5: collect every source, then (elsewhere)
scan, dealias and characterise the combined 12-source seed set.
"""

from __future__ import annotations

from ..internet import SimulatedInternet
from .base import DatasetCollection, SeedDataset
from .domains import DOMAIN_SOURCES, collect_domain_source
from .hitlists import HITLIST_SOURCES, collect_hitlist_source
from .routers import ROUTER_SOURCES, collect_router_source
from .sources import SOURCE_ORDER

__all__ = ["collect_all", "collect_one"]


def collect_one(
    internet: SimulatedInternet, name: str, pools: dict[int, list[int]] | None = None
) -> SeedDataset:
    """Collect a single source by name (``pools``: see
    :func:`~repro.datasets.sampling.collect_source`)."""
    if name in DOMAIN_SOURCES:
        return collect_domain_source(internet, name, pools)
    if name in ROUTER_SOURCES:
        return collect_router_source(internet, name, pools)
    if name in HITLIST_SOURCES:
        return collect_hitlist_source(internet, name, pools)
    raise KeyError(f"unknown seed source: {name}")


def collect_all(internet: SimulatedInternet) -> DatasetCollection:
    """Collect all 12 sources in Table 3 order.

    The sources share one dict of observable pools, so each sampled
    region's observable addresses are built once per call.
    """
    pools: dict[int, list[int]] = {}
    return DatasetCollection(
        collect_one(internet, name, pools) for name in SOURCE_ORDER
    )
