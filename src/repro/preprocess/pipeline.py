"""Seed preprocessing steps.

Each step takes a :class:`SeedDataset` and derives a new one — the
operations RQ1 and RQ2 compare: offline/online/joint dealiasing,
restriction to responsive ("active") addresses, and restriction to
addresses responsive on a specific port.
"""

from __future__ import annotations

from ..datasets import SeedDataset
from ..dealias import DealiasMode, make_dealiaser
from ..internet import ALL_PORTS, Port, SimulatedInternet
from ..scanner import Scanner

__all__ = ["SeedPreprocessor"]


class SeedPreprocessor:
    """Stateful preprocessing helper bound to one world and scan epoch."""

    def __init__(self, internet: SimulatedInternet, scanner: Scanner | None = None) -> None:
        self.internet = internet
        self.scanner = scanner or Scanner(internet)

    # -- dealiasing ------------------------------------------------------

    def dealias(self, dataset: SeedDataset, mode: DealiasMode) -> SeedDataset:
        """Remove aliased seeds under the given treatment.

        Online verification probes use ICMP (the most responsive target),
        matching how seed datasets are dealiased once up front rather
        than per scan port.
        """
        if mode is DealiasMode.NONE:
            return dataset
        dealiaser = make_dealiaser(mode, self.internet, self.scanner)
        clean, _aliased = dealiaser.partition(dataset.addresses, Port.ICMP)
        return SeedDataset(
            name=f"{dataset.name}:dealias-{mode.value}",
            kind=dataset.kind,
            addresses=frozenset(clean),
            collected=dataset.collected,
            metadata=dict(dataset.metadata),
        )

    # -- activity ------------------------------------------------------------

    def scan_activity(self, dataset: SeedDataset) -> dict[Port, set[int]]:
        """Pre-scan the dataset: per-port responsive subsets at scan time.

        Every port scans the dataset's ascending seeds from one packing
        (``dataset.sorted_seeds.packed``).
        """
        targets = dataset.sorted_seeds.packed
        return {port: self.scanner.scan(targets, port).hits for port in ALL_PORTS}

    def restrict_active(
        self, dataset: SeedDataset, activity: dict[Port, set[int]] | None = None
    ) -> SeedDataset:
        """Keep only seeds responsive on at least one of the four targets."""
        if activity is None:
            activity = self.scan_activity(dataset)
        responsive: set[int] = set()
        for hits in activity.values():
            responsive |= hits
        return dataset.restricted_to(responsive, "active")

    def restrict_port(
        self,
        dataset: SeedDataset,
        port: Port,
        activity: dict[Port, set[int]] | None = None,
    ) -> SeedDataset:
        """Keep only seeds responsive on the given target."""
        if activity is None:
            activity = self.scan_activity(dataset)
        return dataset.restricted_to(activity[port], f"active-{port.value}")
