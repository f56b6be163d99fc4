"""Ground-truth regions: allocated /64 networks with assignment rules.

A :class:`Region` is the unit of ground truth: one allocated /64 with an
owner AS, a role (router, web server, ...), an IID assignment pattern, a
per-port service profile, churn behaviour, and optionally an alias flag
(the whole /64 answers for every address).

Responsiveness queries are O(1): each region lazily materialises, per
(port, epoch), the exact set of responsive IIDs.  Aliased regions never
materialise anything — membership is the whole prefix.  Which IIDs
respond is one columnar rule, :func:`responsive_mask`: a region applies
it to its own IIDs, and a probe table to every IID of its regions at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..addr import Prefix
from ..addr.rand import DeterministicStream, coin, coin_batch, hash64
from ..addr.vector import np
from .patterns import PatternKind, generate_iids
from .ports import Port, PortProfile

__all__ = ["RegionRole", "Region", "COLLECTION_EPOCH", "SCAN_EPOCH"]

#: Epoch at which seed datasets were collected.
COLLECTION_EPOCH = 0
#: Epoch at which experiment scans run (after churn).
SCAN_EPOCH = 1

_SALT_PORT = 0x20
_SALT_CHURN = 0x21
_SALT_ALIAS_RATE = 0x22


def responsive_mask(iids, salt, churn_rate, probability, port: Port, epoch: int):
    """Which of the active ``iids`` answer on ``port`` at ``epoch``.

    ``iids`` is a uint64 array.  ``salt`` (the region's), ``churn_rate``
    and ``probability`` (the region's service probability on ``port``)
    are one value for every row, or aligned per-row lanes (uint64 salts,
    float64 rates) when the rows come from many regions.  An IID
    answers when its port-service coin passes and it has not churned
    away by ``epoch``.  Churn compounds: each epoch after collection is
    an independent survival draw, so longitudinal studies over epochs
    0, 1, 2, … see realistic monotone decay, and epoch 1 keeps its
    historical draw (no extra epoch component).
    """
    alive = coin_batch(probability, salt, _SALT_PORT, port.index, iids)
    if epoch >= SCAN_EPOCH:
        alive &= ~coin_batch(churn_rate, salt, _SALT_CHURN, iids)
        for later in range(SCAN_EPOCH + 1, epoch + 1):
            alive &= ~coin_batch(churn_rate, salt, _SALT_CHURN, later, iids)
    return alive


class RegionRole(str, Enum):
    """Functional role of a region, used by dataset collectors."""

    ROUTER = "router"
    GATEWAY = "gateway"
    SERVER = "server"
    DNS = "dns"
    SUBSCRIBER = "subscriber"
    ENTERPRISE = "enterprise"


@dataclass(slots=True)
class Region:
    """One allocated /64 of the simulated Internet."""

    net64: int  # high 64 bits of the /64
    asn: int
    role: RegionRole
    pattern: PatternKind
    density: int
    profile: PortProfile
    churn_rate: float = 0.0
    retired: bool = False
    firewalled: bool = False
    aliased: bool = False
    alias_response_prob: float = 1.0
    salt: int = 0

    _iids: frozenset[int] | None = field(default=None, repr=False)
    _responsive: dict = field(default_factory=dict, repr=False)

    # -- identity ---------------------------------------------------------

    @property
    def prefix(self) -> Prefix:
        """This region's /64 prefix."""
        return Prefix(self.net64 << 64, 64)

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this /64."""
        return (address >> 64) == self.net64

    def address_of(self, iid: int) -> int:
        """Full 128-bit address for an IID within this region."""
        return (self.net64 << 64) | (iid & 0xFFFF_FFFF_FFFF_FFFF)

    # -- pattern membership ----------------------------------------------

    def active_iids(self) -> frozenset[int]:
        """The pattern-active IID set at the collection epoch.

        Empty for aliased regions (their membership is the whole /64).
        """
        if self.aliased:
            return frozenset()
        if self._iids is None:
            self._iids = generate_iids(self.pattern, self.density, self.salt)
        return self._iids

    def responsive_iids(self, port: Port, epoch: int) -> frozenset[int]:
        """IIDs that answer probes on ``port`` at ``epoch`` (cached).

        Accounts for the per-port service profile, region retirement and
        per-address churn (compounding across epochs): the region's
        active IIDs through :func:`responsive_mask`.  Aliased regions
        are handled separately by :meth:`responds`.
        """
        if self.aliased:
            return frozenset()
        if self.firewalled:
            return frozenset()
        if self.retired and epoch >= SCAN_EPOCH:
            return frozenset()
        key = (port, max(epoch, 0))
        cached = self._responsive.get(key)
        if cached is not None:
            return cached
        active = self.active_iids()
        iids = np.fromiter(active, dtype=np.uint64, count=len(active))
        alive = responsive_mask(
            iids,
            self.salt,
            self.churn_rate,
            self.profile.probability(port),
            port,
            epoch,
        )
        result = frozenset(iids[alive].tolist())
        self._responsive[key] = result
        return result

    # -- probing ----------------------------------------------------------

    def responds(self, address: int, port: Port, epoch: int, attempt: int = 0) -> bool:
        """Whether a probe to ``address`` on ``port`` gets an affirmative reply.

        For aliased regions the reply is drawn per *attempt*, modelling
        rate limiting; for ordinary regions the answer is a fixed property
        of the address (retries never help).
        """
        if self.firewalled:
            return False
        if self.retired and epoch >= SCAN_EPOCH:
            return False
        if self.aliased:
            if self.profile.probability(port) <= 0.0:
                return False
            if self.alias_response_prob >= 1.0:
                return True
            return coin(
                self.alias_response_prob,
                self.salt,
                _SALT_ALIAS_RATE,
                port.index,
                address & 0xFFFF_FFFF_FFFF_FFFF,
                attempt,
            )
        return (address & 0xFFFF_FFFF_FFFF_FFFF) in self.responsive_iids(port, epoch)

    # -- observation (seed collection) -------------------------------------

    def observable_addresses(self) -> list[int]:
        """Addresses of this region visible to collectors at epoch 0.

        For ordinary regions this is the full pattern-active set (even
        firewalled routers appear in traceroutes).  For aliased regions,
        collectors observe a deterministic sample of the alias, the way
        hitlists accumulate aliased entries.
        """
        if self.aliased:
            # What collectors *record* inside an aliased prefix is the
            # structured probes that happened to hit it (hitlists are full
            # of low-IID entries under aliases) plus some arbitrary ones.
            # The structured half is what makes aliased regions look like
            # dense, attractive patterns to TGAs — the paper's core
            # RQ1.a hazard.
            stream = DeterministicStream(self.salt, 0xA11A5)
            sample_size = max(16, 2 * self.density)
            observed = [self.address_of(i + 1) for i in range(sample_size // 2)]
            observed.extend(
                self.address_of(stream.next_address_bits(64))
                for _ in range(sample_size - len(observed))
            )
            return observed
        return [self.address_of(iid) for iid in sorted(self.active_iids())]

    def sample_observable(self, count: int, salt: int) -> list[int]:
        """A deterministic sample (without replacement) of observable addresses."""
        pool = self.observable_addresses()
        if count >= len(pool):
            return pool
        stream = DeterministicStream(self.salt, salt, count)
        return stream.sample(pool, count)

    def ever_responsive_addresses(self, port: Port) -> list[int]:
        """Addresses responsive on ``port`` at the collection epoch."""
        if self.aliased:
            if self.profile.probability(port) <= 0.0:
                return []
            return self.observable_addresses()
        return [self.address_of(iid) for iid in sorted(self.responsive_iids(port, COLLECTION_EPOCH))]

    def region_salt_for(self, *parts: int) -> int:
        """Derived salt for auxiliary per-region deterministic draws."""
        return hash64(self.salt, *parts)
