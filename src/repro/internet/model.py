"""The simulated Internet facade.

:class:`SimulatedInternet` bundles the generated topology with fast query
paths used by the scanner, the dataset collectors and the experiment
harness:

* O(1) probing (`region dict` keyed on the /64 network, then an IID set
  membership test);
* ground-truth alias knowledge and the *published* (incomplete) alias
  list that stands in for the IPv6 Hitlist's;
* AS attribution for responsive addresses.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain

from ..addr import Prefix
from ..addr.rand import coin, coin_batch, hash64, hash64_batch
from ..addr.vector import np
from ..asdb import OrgType
from .config import InternetConfig
from .ports import ALL_PORTS, Port
from .regions import (
    _SALT_ALIAS_RATE,
    COLLECTION_EPOCH,
    SCAN_EPOCH,
    Region,
    RegionRole,
    responsive_mask,
)
from .topology import LazyASRegistry, LazyTopology

__all__ = ["SimulatedInternet"]

_SALT_PUBLISHED = 0x55


class _ProbeTables:
    """Columnar views of a set of regions: the batch probe kernel.

    Region attributes become arrays aligned to the sorted ``net64``
    order, so the per-address region lookup is one ``searchsorted``
    instead of a dict probe, and the region-level gates (firewall,
    retirement, alias profile) become mask operations.  The regions are
    the whole world's or just one batch's (see
    :meth:`SimulatedInternet.probe_tables`).

    Non-aliased membership uses a per-``(port, epoch)`` sorted array of
    64-bit keys ``hash64(net64, iid)`` over every responsive IID of the
    table's regions.  A probe is a candidate hit when its key is
    present; candidates (≈ the true hit count) are then verified
    exactly against the table's aligned ``(net64, iid)`` columns, or
    against the owning region's IID set when the key is shared, so
    64-bit key collisions can never flip an answer — results are
    bit-identical to :meth:`Region.responds` per address.
    """

    __slots__ = (
        "regions",
        "net64",
        "firewalled",
        "aliased",
        "retired",
        "churn_rate",
        "alias_prob",
        "salt",
        "_port_prob",
        "_member_keys",
    )

    def __init__(self, regions: list[Region]) -> None:
        self.regions = sorted(regions, key=lambda region: region.net64)
        n = len(self.regions)
        self.net64 = np.fromiter(
            (region.net64 for region in self.regions), dtype=np.uint64, count=n
        )
        self.firewalled = np.fromiter(
            (region.firewalled for region in self.regions), dtype=bool, count=n
        )
        self.aliased = np.fromiter(
            (region.aliased for region in self.regions), dtype=bool, count=n
        )
        self.retired = np.fromiter(
            (region.retired for region in self.regions), dtype=bool, count=n
        )
        self.churn_rate = np.fromiter(
            (region.churn_rate for region in self.regions), dtype=np.float64, count=n
        )
        self.alias_prob = np.fromiter(
            (region.alias_response_prob for region in self.regions),
            dtype=np.float64,
            count=n,
        )
        self.salt = np.fromiter(
            (region.salt for region in self.regions), dtype=np.uint64, count=n
        )
        self._port_prob: dict[int, object] = {}
        self._member_keys: dict[tuple, object] = {}

    def port_prob(self, port: Port):
        """Per-region service probability on ``port`` (cached column)."""
        arr = self._port_prob.get(port.index)
        if arr is None:
            arr = np.fromiter(
                (region.profile.probability(port) for region in self.regions),
                dtype=np.float64,
                count=len(self.regions),
            )
            self._port_prob[port.index] = arr
        return arr

    def lookup(self, prefix64):
        """Map prefix columns to region slots: ``(slots, exists)``."""
        if self.net64.shape[0] == 0:
            slots = np.zeros(prefix64.shape[0], dtype=np.intp)
            return slots, np.zeros(prefix64.shape[0], dtype=bool)
        slots = np.searchsorted(self.net64, prefix64)
        np.minimum(slots, self.net64.shape[0] - 1, out=slots)
        return slots, self.net64[slots] == prefix64

    def member_table(self, port: Port, epoch: int):
        """Responsive-membership table for ``(port, epoch)``.

        Returns ``(keys, net64, iid64, tied)``: every responsive
        ``(region, IID)`` pair of the table's regions as three aligned
        columns sorted by the 64-bit key ``hash64(net64, iid)``, plus
        the set of keys shared by more than one pair (collisions —
        essentially never non-empty, but handled exactly when they
        are).  Aliased, firewalled and retired regions contribute no
        pair.  The other regions' active IIDs run through
        :func:`~repro.internet.regions.responsive_mask` in one call,
        each row against its region's salt, churn rate and service
        probability, so no region's own responsive set is built.
        """
        cache_key = (port, max(epoch, 0))
        cached = self._member_keys.get(cache_key)
        if cached is None:
            eligible = ~(self.aliased | self.firewalled)
            if epoch >= SCAN_EPOCH:
                eligible &= ~self.retired
            rows = np.flatnonzero(eligible)
            sets = [self.regions[row].active_iids() for row in rows.tolist()]
            counts = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
            iids = np.fromiter(
                chain.from_iterable(sets), dtype=np.uint64, count=int(counts.sum())
            )

            def lane(column):
                return np.repeat(column[rows], counts)

            alive = responsive_mask(
                iids,
                lane(self.salt),
                lane(self.churn_rate),
                lane(self.port_prob(port)),
                port,
                epoch,
            )
            nets = lane(self.net64)[alive]
            iids = iids[alive]
            keys = hash64_batch(nets, iids)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            dup = keys[1:] == keys[:-1]
            tied = frozenset(keys[1:][dup].tolist()) if dup.any() else frozenset()
            cached = (keys, nets[order], iids[order], tied)
            self._member_keys[cache_key] = cached
        return cached

    def hit_mask(self, prefix64, iid64, port: Port, epoch: int, attempt: int = 0):
        """Response mask over packed columns: ``(hits, slots, exists)``.

        ``hits[k]`` equals ``probe((prefix64[k] << 64) | iid64[k], ...)``
        bit for bit; ``slots``/``exists`` are returned so callers (the
        scanner's negative-response classifier) can reuse the lookup.
        """
        slots, exists = self.lookup(prefix64)
        hits = np.zeros(prefix64.shape[0], dtype=bool)
        if not exists.any():
            return hits, slots, exists
        aliased_at = self.aliased[slots]
        aliased_rows = exists & aliased_at
        if aliased_rows.any():
            rows = np.nonzero(aliased_rows)[0]
            ridx = slots[rows]
            open_rows = rows[self.port_prob(port)[ridx] > 0.0]
            if open_rows.shape[0]:
                oidx = slots[open_rows]
                # `uniform < p` is exact for p <= 0 and p >= 1 too (draws
                # lie in [0, 1)), so one coin covers every alias rate.
                hits[open_rows] = coin_batch(
                    self.alias_prob[oidx],
                    self.salt[oidx],
                    _SALT_ALIAS_RATE,
                    port.index,
                    iid64[open_rows],
                    attempt,
                )
        keys, member_net, member_iid, tied = self.member_table(port, epoch)
        if keys.shape[0]:
            member_rows = np.nonzero(exists & ~aliased_at)[0]
            if member_rows.shape[0]:
                qnet = prefix64[member_rows]
                qiid = iid64[member_rows]
                query = hash64_batch(qnet, qiid)
                pos = np.searchsorted(keys, query)
                np.minimum(pos, keys.shape[0] - 1, out=pos)
                found = keys[pos] == query
                # The aligned columns verify candidates exactly without
                # leaving numpy: a key match is a hit iff the (net64,
                # iid) pair at that table position is the probed pair.
                exact = found & (member_net[pos] == qnet) & (member_iid[pos] == qiid)
                hits[member_rows[exact]] = True
                if tied:
                    # A colliding key hides pairs behind the first table
                    # entry; re-check those few rows against the owning
                    # region's IID set.
                    unsure = np.nonzero(found & ~exact)[0]
                    if unsure.shape[0]:
                        rows = member_rows[unsure]
                        for row, key, iid in zip(
                            rows.tolist(),
                            query[unsure].tolist(),
                            qiid[unsure].tolist(),
                        ):
                            if key not in tied:
                                continue
                            region = self.regions[int(slots[row])]
                            if iid in region.responsive_iids(port, epoch):
                                hits[row] = True
        return hits, slots, exists


class SimulatedInternet:
    """Deterministic ground-truth model of an IPv6 Internet."""

    def __init__(self, config: InternetConfig | None = None) -> None:
        self.config = config or InternetConfig()
        self.topology = LazyTopology(self.config)
        self._probe_tables: _ProbeTables | None = None

    # -- probe tables -------------------------------------------------------

    def probe_tables(self, prefix64) -> _ProbeTables:
        """The probe tables that answer a batch over the /64 column
        ``prefix64``.

        A world without a resident-AS cap builds one world-wide table on
        first use and keeps it.  A capped world cannot pin every region,
        so each call builds a table over just the regions of the
        batch's distinct /64s, resolved in first-seen order by one
        :meth:`~LazyTopology.regions_for_net64s` call (each owning AS
        derived at most once, in the order the batch names them), and
        never keeps it.
        """
        if self.config.max_resident_ases is None:
            if self._probe_tables is None:
                self._probe_tables = _ProbeTables(self.topology.regions)
            return self._probe_tables
        _, first = np.unique(prefix64, return_index=True)
        first.sort()
        regions = self.topology.regions_for_net64s(prefix64[first].tolist())
        return _ProbeTables(
            [region for region in regions.values() if region is not None]
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def registry(self) -> LazyASRegistry:
        """The AS registry (prefix → ASN, AS metadata)."""
        return self.topology.registry

    @property
    def regions(self) -> list[Region]:
        """All ground-truth regions (pins the whole world resident)."""
        return self.topology.regions

    def iter_regions(self) -> Iterator[Region]:
        """Stream every region in canonical order without pinning."""
        return self.topology.iter_regions()

    def lazy_stats(self) -> dict[str, int]:
        """Materialisation counters of the underlying lazy topology."""
        return self.topology.lazy_stats()

    def region_of(self, address: int) -> Region | None:
        """The region containing ``address``, or None for unallocated space."""
        return self.topology.region_for_net64(address >> 64)

    def asn_of(self, address: int) -> int | None:
        """Originating ASN for ``address`` (allocation math; derives no AS)."""
        return self.registry.asn_of(address)

    def regions_with_role(self, role: RegionRole) -> list[Region]:
        """All regions of the given functional role."""
        return [region for region in self.iter_regions() if region.role is role]

    def regions_of_org(self, *org_types: OrgType) -> list[Region]:
        """All regions owned by ASes of the given organisation types."""
        wanted = set(org_types)
        matching_asns: dict[int, bool] = {}
        result = []
        for region in self.iter_regions():
            match = matching_asns.get(region.asn)
            if match is None:
                match = self.registry.info(region.asn).org_type in wanted
                matching_asns[region.asn] = match
            if match:
                result.append(region)
        return result

    # -- probing -------------------------------------------------------------

    def probe(self, address: int, port: Port, epoch: int = SCAN_EPOCH, attempt: int = 0) -> bool:
        """Ground-truth: does ``address`` answer affirmatively on ``port``?"""
        region = self.topology.region_for_net64(address >> 64)
        if region is None:
            return False
        return region.responds(address, port, epoch, attempt)

    def target_exists(self, address: int) -> bool:
        """Whether ``address`` falls in allocated (region-backed) space."""
        return self.topology.region_for_net64(address >> 64) is not None

    # -- aliases --------------------------------------------------------------

    @cached_property
    def true_alias_prefixes(self) -> tuple[Prefix, ...]:
        """Every genuinely aliased /64 (complete ground truth)."""
        return tuple(
            region.prefix for region in self.iter_regions() if region.aliased
        )

    @cached_property
    def published_alias_prefixes(self) -> tuple[Prefix, ...]:
        """The *published* alias list: an intentionally incomplete subset.

        Mirrors the IPv6 Hitlist alias list, which misses aliases the
        community has not yet stumbled on.  Coverage is controlled by
        ``config.published_alias_coverage``.
        """
        coverage = self.config.published_alias_coverage
        seed = hash64(self.config.master_seed, _SALT_PUBLISHED)
        return tuple(
            prefix
            for prefix in self.true_alias_prefixes
            if coin(coverage, seed, prefix.value >> 64)
        )

    def is_aliased_truth(self, address: int) -> bool:
        """Ground truth: is ``address`` inside an aliased region?"""
        region = self.topology.region_for_net64(address >> 64)
        return region is not None and region.aliased

    # -- ground-truth enumeration (calibration, tests, collectors) -----------

    def iter_responsive(
        self, port: Port, epoch: int = SCAN_EPOCH, include_aliased: bool = False
    ) -> Iterator[int]:
        """All non-aliased responsive addresses on ``port`` at ``epoch``.

        With ``include_aliased`` True, aliased regions contribute their
        observable sample rather than their (infinite) membership.
        """
        for region in self.iter_regions():
            if region.aliased:
                if include_aliased and region.profile.probability(port) > 0:
                    yield from region.observable_addresses()
                continue
            for iid in region.responsive_iids(port, epoch):
                yield region.address_of(iid)

    def count_responsive(self, port: Port, epoch: int = SCAN_EPOCH) -> int:
        """Count of non-aliased responsive addresses on ``port`` at ``epoch``."""
        return sum(
            len(region.responsive_iids(port, epoch))
            for region in self.iter_regions()
            if not region.aliased
        )

    def responsive_ases(self, port: Port, epoch: int = SCAN_EPOCH) -> set[int]:
        """ASNs with at least one responsive address on ``port`` at ``epoch``."""
        result: set[int] = set()
        for region in self.iter_regions():
            if region.asn in result:
                continue
            if region.aliased:
                if region.profile.probability(port) > 0:
                    result.add(region.asn)
                continue
            if region.responsive_iids(port, epoch):
                result.add(region.asn)
        return result

    def iter_ever_responsive(self, epoch: int = COLLECTION_EPOCH) -> Iterator[int]:
        """Addresses responsive on at least one target at ``epoch``."""
        for region in self.iter_regions():
            if region.aliased:
                continue
            seen: set[int] = set()
            for port in ALL_PORTS:
                seen.update(region.responsive_iids(port, epoch))
            for iid in seen:
                yield region.address_of(iid)

    # -- metadata -----------------------------------------------------------

    @property
    def mega_isp_asn(self) -> int:
        """ASN of the AS12322 analogue (filtered from ICMP metrics)."""
        return self.config.mega_isp_asn

    def summary(self) -> dict[str, int]:
        """Summary statistics of the world, in one streaming pass.

        Never pins the world: regions stream through the lazy topology
        once and every counter accumulates in the same pass, so this is
        safe (if slow) even at ``scale="internet"``.
        """
        regions = 0
        aliased = 0
        firewalled = 0
        retired = 0
        active = 0
        for region in self.iter_regions():
            regions += 1
            if region.aliased:
                aliased += 1
            else:
                active += region.density
            if region.firewalled:
                firewalled += 1
            if region.retired:
                retired += 1
        return {
            "ases": len(self.registry),
            "regions": regions,
            "aliased_regions": aliased,
            "firewalled_regions": firewalled,
            "retired_regions": retired,
            "pattern_active_addresses": active,
        }

    def describe(self) -> dict[str, int]:
        """Summary statistics of the world (for docs and sanity checks)."""
        return self.summary()
