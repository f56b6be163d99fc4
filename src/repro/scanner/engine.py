"""The probe engine: a Scanv6 analogue over the simulated Internet.

Differences from naive scanners that the paper calls out, reproduced here:

* **Response verification** — hits are only affirmative replies
  (Echo Reply / SYN-ACK / DNS answer); RSTs and unreachables are counted
  but never treated as hits.
* **Blocklisting** — blocked targets are never probed.
* **Rate limiting** — a virtual token bucket reports the duration a real
  scan would have taken at the configured packet rate.
* **Retries** — alias-verification probes may be retried; ordinary host
  responsiveness is a property of the address, so retries only matter for
  rate-limited (aliased) targets, exactly the situation the paper's
  online dealiaser retries for.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..addr.vector import PackedAddresses, np, vector_enabled
from ..internet import SCAN_EPOCH, Port, SimulatedInternet
from ..internet.model import VECTOR_MIN_BATCH
from ..telemetry import get_telemetry
from .blocklist import Blocklist
from .ratelimit import RateLimiter
from .responses import ResponseType, affirmative_response, negative_response
from .stats import ScanStats

__all__ = ["Scanner", "ScanResult"]

# Cheap deterministic "noise" draw for alive-but-closed responses.  These
# responses feed only the response-type statistics (never the hit or AS
# metrics), so a fast multiplicative hash is sufficient.
_NOISE_MULT = 0x9E3779B97F4A7C15


def _negative_noise(address: int, port_index: int) -> bool:
    value = ((address ^ port_index) * _NOISE_MULT) & 0xFFFFFFFFFFFFFFFF
    return value < 0x4000000000000000  # ~25% of misses in allocated space


@dataclass(slots=True)
class ScanResult:
    """Outcome of one batch scan on a single target port."""

    port: Port
    hits: set[int] = field(default_factory=set)
    stats: ScanStats = field(default_factory=ScanStats)

    @property
    def num_hits(self) -> int:
        return len(self.hits)


class Scanner:
    """Probes the simulated Internet and classifies responses."""

    def __init__(
        self,
        internet: SimulatedInternet,
        epoch: int = SCAN_EPOCH,
        blocklist: Blocklist | None = None,
        packets_per_second: float = 10_000.0,
        classify_negative: bool = True,
    ) -> None:
        self.internet = internet
        self.epoch = epoch
        self.blocklist = blocklist or Blocklist()
        self.rate_limiter = RateLimiter(packets_per_second)
        self.classify_negative = classify_negative
        self.lifetime_stats = ScanStats()

    # -- single probes ------------------------------------------------------

    def probe(self, address: int, port: Port, attempt: int = 0) -> ResponseType:
        """Send one probe and classify the reply."""
        tel = get_telemetry()
        if self.blocklist.is_blocked(address):
            self.lifetime_stats.record(ResponseType.BLOCKED)
            if tel.enabled:
                tel.count("scan.blocked")
            return ResponseType.BLOCKED
        self.rate_limiter.account()
        response = self._classify(address, port, attempt)
        self.lifetime_stats.record(response)
        if tel.enabled:
            tel.count("scan.single_probes")
            if response.is_hit:
                tel.count(f"scan.hits.{port.value}")
        return response

    def probe_with_retries(self, address: int, port: Port, retries: int = 3) -> bool:
        """Probe up to ``retries`` times; True if any attempt is affirmative.

        Used by the online dealiaser (the paper uses 3 packet retries for
        its /96 verification probes).
        """
        for attempt in range(max(1, retries)):
            response = self.probe(address, port, attempt=attempt)
            if response is ResponseType.BLOCKED:
                return False
            if response.is_hit:
                return True
        return False

    def is_responsive(self, address: int, port: Port) -> bool:
        """Single-probe responsiveness check."""
        return self.probe(address, port).is_hit

    # -- batch scans ----------------------------------------------------------

    def scan(self, addresses: Iterable[int], port: Port) -> ScanResult:
        """Probe every address once on ``port``; collect hits and stats.

        Input order does not affect results (responses are deterministic
        per address), matching the paper's randomised scan order.

        Targets are grouped by /64 so the firewall and retirement checks
        and the port-profile dispatch happen once per group rather than
        once per address, and every group's region is resolved in one
        batch that derives each owning AS at most once per scan;
        outcomes are identical to probing each address individually.

        On a world without a resident-AS cap, large batches (and any
        :class:`~repro.addr.vector.PackedAddresses` input) run the
        columnar probe path instead — hits, stats and telemetry are
        bit-identical to the scalar formulation.
        """
        if vector_enabled() and self.internet.vector_tables_allowed:
            packed = addresses if isinstance(addresses, PackedAddresses) else None
            if packed is None:
                if not isinstance(addresses, (list, tuple)):
                    addresses = list(addresses)
                if len(addresses) >= VECTOR_MIN_BATCH:
                    packed = PackedAddresses.from_addresses(addresses)
            if packed is not None:
                return self._scan_packed(packed, port)
        result = ScanResult(port=port)
        stats = result.stats
        start_time = self.rate_limiter.virtual_time
        epoch = self.epoch
        classify_negative = self.classify_negative
        port_index = port.index
        # Hoisted blocklist check: empty blocklists cost nothing per target.
        is_blocked = self.blocklist.is_blocked if self.blocklist else None
        blocked_count = 0
        groups: dict[int, list[int]] = {}
        for address in addresses:
            if is_blocked is not None and is_blocked(address):
                blocked_count += 1
                continue
            net64 = address >> 64
            group = groups.get(net64)
            if group is None:
                groups[net64] = [address]
            else:
                group.append(address)
        if blocked_count:
            stats.targets_blocked += blocked_count
        sent = 0
        neg = 0
        timeouts = 0
        hits = result.hits
        regions = self.internet.topology.regions_for_net64s(groups)
        for net64, group in groups.items():
            sent += len(group)
            region = regions[net64]
            if region is None:
                timeouts += len(group)
                continue
            responders = region.respond_batch(group, port, epoch)
            if responders:
                hits |= responders
                misses = [a for a in group if a not in responders]
            else:
                misses = group
            if not misses:
                continue
            if classify_negative and not region.firewalled:
                for address in misses:
                    if _negative_noise(address, port_index):
                        neg += 1
                    else:
                        timeouts += 1
            else:
                timeouts += len(misses)
        self.rate_limiter.account(sent)
        stats.probes_sent += sent
        if result.hits:
            hit_type = affirmative_response(port)
            stats.responses[hit_type] = stats.responses.get(hit_type, 0) + len(result.hits)
        if neg:
            neg_type = negative_response(port)
            stats.responses[neg_type] = stats.responses.get(neg_type, 0) + neg
        if timeouts:
            stats.responses[ResponseType.TIMEOUT] = (
                stats.responses.get(ResponseType.TIMEOUT, 0) + timeouts
            )
        stats.virtual_duration = self.rate_limiter.virtual_time - start_time
        self.lifetime_stats.merge(stats)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("scan.calls")
            tel.count("scan.probes", sent)
            tel.count("scan.batches", len(groups))
            if blocked_count:
                tel.count("scan.blocked", blocked_count)
            if result.hits:
                tel.count(f"scan.hits.{port.value}", len(result.hits))
            for group in groups.values():
                tel.observe("scan.batch_addresses", len(group))
        return result

    def _scan_packed(self, packed: PackedAddresses, port: Port) -> ScanResult:
        """Columnar :meth:`scan`: array kernels end to end.

        Reproduces the scalar path's hits, stats and telemetry exactly:
        the blocklist becomes a broadcast mask, the region lookup one
        ``searchsorted`` against the probe tables, negative-response
        noise a vectorized multiply-compare on the IID column, and the
        per-/64 telemetry observes are rebuilt in first-seen group
        order so golden traces stay byte-identical.
        """
        result = ScanResult(port=port)
        stats = result.stats
        start_time = self.rate_limiter.virtual_time
        prefix64 = packed.prefix64
        iid64 = packed.iid64
        blocked_count = 0
        if self.blocklist and len(self.blocklist):
            blocked = self.blocklist.blocked_mask(prefix64, iid64)
            blocked_count = int(blocked.sum())
            if blocked_count:
                keep = ~blocked
                prefix64 = prefix64[keep]
                iid64 = iid64[keep]
                stats.targets_blocked += blocked_count
        sent = int(prefix64.shape[0])
        tables = self.internet.probe_tables()
        hit_mask, slots, exists = tables.hit_mask(prefix64, iid64, port, self.epoch)
        hit_rows = np.nonzero(hit_mask)[0]
        hits = result.hits
        if hit_rows.shape[0]:
            hit_prefix = prefix64[hit_rows]
            hit_iid = iid64[hit_rows]
            if hit_rows.shape[0] > 65536:
                # Hit-heavy batches (dense duplicates) dedupe far faster
                # inside numpy than through 10^5+ Python set inserts.
                order = np.lexsort((hit_iid, hit_prefix))
                hit_prefix = hit_prefix[order]
                hit_iid = hit_iid[order]
                keep = np.empty(hit_prefix.shape[0], dtype=bool)
                keep[0] = True
                np.not_equal(hit_prefix[1:], hit_prefix[:-1], out=keep[1:])
                keep[1:] |= hit_iid[1:] != hit_iid[:-1]
                hit_prefix = hit_prefix[keep]
                hit_iid = hit_iid[keep]
            hits.update(
                (prefix << 64) | iid
                for prefix, iid in zip(hit_prefix.tolist(), hit_iid.tolist())
            )
        neg = 0
        if self.classify_negative:
            eligible = exists & ~hit_mask
            eligible &= ~tables.firewalled[slots]
            if eligible.any():
                noise = (
                    (iid64 ^ np.uint64(port.index)) * np.uint64(_NOISE_MULT)
                ) < np.uint64(0x4000000000000000)
                neg = int((eligible & noise).sum())
        timeouts = sent - int(hit_rows.shape[0]) - neg
        self.rate_limiter.account(sent)
        stats.probes_sent += sent
        if hits:
            hit_type = affirmative_response(port)
            stats.responses[hit_type] = stats.responses.get(hit_type, 0) + len(hits)
        if neg:
            neg_type = negative_response(port)
            stats.responses[neg_type] = stats.responses.get(neg_type, 0) + neg
        if timeouts:
            stats.responses[ResponseType.TIMEOUT] = (
                stats.responses.get(ResponseType.TIMEOUT, 0) + timeouts
            )
        stats.virtual_duration = self.rate_limiter.virtual_time - start_time
        self.lifetime_stats.merge(stats)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("scan.calls")
            tel.count("scan.probes", sent)
            # Rebuild the scalar path's per-/64 groups in first-seen
            # order; only paid when telemetry is recording.
            _, first_index, counts = np.unique(
                prefix64, return_index=True, return_counts=True
            )
            order = np.argsort(first_index, kind="stable")
            tel.count("scan.batches", int(first_index.shape[0]))
            if blocked_count:
                tel.count("scan.blocked", blocked_count)
            if hits:
                tel.count(f"scan.hits.{port.value}", len(hits))
            for size in counts[order].tolist():
                tel.observe("scan.batch_addresses", size)
        return result

    def scan_all_ports(self, addresses: Iterable[int], ports: Iterable[Port]) -> dict[Port, ScanResult]:
        """Scan the same target list on several ports."""
        if isinstance(addresses, (list, tuple)):
            targets: Iterable[int] = addresses
        else:
            targets = list(addresses)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("scan.multiport_calls")
        return {port: self.scan(targets, port) for port in ports}

    # -- internals ---------------------------------------------------------------

    def _classify(self, address: int, port: Port, attempt: int) -> ResponseType:
        region = self.internet.region_of(address)
        if region is None:
            return ResponseType.TIMEOUT
        if region.responds(address, port, self.epoch, attempt):
            return affirmative_response(port)
        if self.classify_negative and not region.firewalled and _negative_noise(address, port.index):
            return negative_response(port)
        return ResponseType.TIMEOUT
