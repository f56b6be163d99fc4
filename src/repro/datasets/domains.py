"""Domain-derived seed sources.

Models the paper's AAAA-resolution pipeline: domain corpora (CT logs,
Rapid7 FDNS, CAIDA DNS names, five toplists) are resolved to IPv6
addresses.  The resolution itself is summarised by per-source volume
ratios calibrated to the paper's Table 8 (e.g. Censys certificates yield
~130 domains and ~6 AAAA records per unique IPv6 address; toplists are
fixed at one million domains with high AAAA response rates).
"""

from __future__ import annotations

from ..internet import SimulatedInternet
from .base import SeedDataset
from .sampling import collect_source
from .sources import SOURCE_SPECS

__all__ = ["DOMAIN_SOURCES", "collect_domain_source", "domain_volume_row"]

#: Names of the eight domain-based sources, in Table 8 order.
DOMAIN_SOURCES: tuple[str, ...] = (
    "censys",
    "rapid7",
    "caida_dns",
    "umbrella",
    "majestic",
    "tranco",
    "secrank",
    "radar",
)

# (domains per unique IP, AAAA answers per unique IP), from Table 8 ratios.
_VOLUME_RATIOS: dict[str, tuple[float, float]] = {
    "censys": (129.5, 6.0),
    "rapid7": (208.1, 10.5),
    "caida_dns": (16.9, 1.0),
    "umbrella": (3.8, 0.88),
    "majestic": (7.6, 2.2),
    "tranco": (7.1, 2.0),
    "secrank": (7.8, 0.89),
    "radar": (6.7, 1.9),
}


def collect_domain_source(
    internet: SimulatedInternet, name: str, pools: dict[int, list[int]] | None = None
) -> SeedDataset:
    """Collect one domain-based source, attaching resolution-volume metadata."""
    if name not in DOMAIN_SOURCES:
        raise KeyError(f"not a domain source: {name}")
    dataset = collect_source(internet, SOURCE_SPECS[name], pools)
    domains_ratio, aaaa_ratio = _VOLUME_RATIOS[name]
    unique_ips = len(dataset)
    metadata = dict(dataset.metadata)
    metadata["domains"] = int(unique_ips * domains_ratio)
    metadata["aaaa_answers"] = int(unique_ips * aaaa_ratio)
    return SeedDataset(
        name=dataset.name,
        kind=dataset.kind,
        addresses=dataset.addresses,
        collected=dataset.collected,
        metadata=metadata,
    )


def domain_volume_row(dataset: SeedDataset) -> dict[str, int]:
    """One row of the Table 8 analogue (domains, AAAAs, unique IPs)."""
    return {
        "domains": int(dataset.metadata.get("domains", 0)),
        "aaaa_answers": int(dataset.metadata.get("aaaa_answers", 0)),
        "unique_ips": len(dataset),
    }
