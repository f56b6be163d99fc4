"""Joint (offline + online) dealiasing — the paper's recommended approach.

The published list is consulted first (free: no packets), then anything
it does not cover is verified online.  The paper notes the ordering also
matters operationally: offline filtering spared ~747M verification
packets in their study.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from ..internet import Port, SimulatedInternet
from ..scanner import Scanner
from .offline import OfflineDealiaser
from .online import OnlineDealiaser
from .prefixset import AliasPrefixSet

__all__ = ["DealiasMode", "JointDealiaser", "make_dealiaser"]


class DealiasMode(str, Enum):
    """The four dealiasing treatments compared in RQ1.a (Table 4)."""

    NONE = "none"
    OFFLINE = "offline"
    ONLINE = "online"
    JOINT = "joint"


class JointDealiaser:
    """Composable dealiaser supporting all four treatments."""

    def __init__(
        self,
        offline: OfflineDealiaser | None = None,
        online: OnlineDealiaser | None = None,
    ) -> None:
        self.offline = offline
        self.online = online

    @property
    def mode(self) -> DealiasMode:
        """Which treatment this instance implements."""
        if self.offline is not None and self.online is not None:
            return DealiasMode.JOINT
        if self.offline is not None:
            return DealiasMode.OFFLINE
        if self.online is not None:
            return DealiasMode.ONLINE
        return DealiasMode.NONE

    def partition(self, addresses: Iterable[int], port: Port) -> tuple[set[int], set[int]]:
        """Split active addresses into (clean, aliased).

        Offline filtering runs first so the online verifier only spends
        packets on prefixes the published list missed.
        """
        pending = set(addresses)
        aliased: set[int] = set()
        if self.offline is not None:
            pending, offline_aliased = self.offline.partition(pending)
            aliased |= offline_aliased
        if self.online is not None:
            pending, online_aliased = self.online.partition(pending, port)
            aliased |= online_aliased
        return pending, aliased

    def is_aliased(self, address: int, port: Port) -> bool:
        """Point query under this treatment."""
        if self.offline is not None and self.offline.is_aliased(address):
            return True
        if self.online is not None and self.online.is_aliased(address, port):
            return True
        return False

    def known_alias_prefixes(self) -> AliasPrefixSet:
        """Union of published and online-detected alias prefixes."""
        result = AliasPrefixSet()
        if self.offline is not None:
            for prefix in self.offline.prefix_set.prefixes():
                result.add(prefix)
        if self.online is not None:
            for prefix in self.online.detected.prefixes():
                result.add(prefix)
        return result


def make_dealiaser(
    mode: DealiasMode,
    internet: SimulatedInternet,
    scanner: Scanner | None = None,
) -> JointDealiaser:
    """Build a dealiaser for the requested treatment.

    ``scanner`` is required for the ONLINE and JOINT modes (verification
    probes have to go somewhere).
    """
    offline = None
    online = None
    if mode in (DealiasMode.OFFLINE, DealiasMode.JOINT):
        offline = OfflineDealiaser.from_internet(internet)
    if mode in (DealiasMode.ONLINE, DealiasMode.JOINT):
        if scanner is None:
            raise ValueError(f"{mode.value} dealiasing requires a scanner")
        online = OnlineDealiaser(scanner)
    return JointDealiaser(offline=offline, online=online)
