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

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from ..addr.vector import PackedAddresses, np
from ..internet import SCAN_EPOCH, Port, SimulatedInternet
from ..telemetry import get_telemetry
from .blocklist import Blocklist
from .ratelimit import RateLimiter
from .responses import ResponseType, affirmative_response, negative_response
from .stats import ScanStats

__all__ = ["Scanner", "ScanResult"]

#: Batches smaller than this take the /64-grouped path even on a world
#: with packed probe tables: packing columns and running the array
#: kernels has a fixed cost that only pays for itself once a batch holds
#: a few cache lines of addresses.
VECTOR_MIN_BATCH = 64

# Cheap deterministic "noise" draw for alive-but-closed responses.  These
# responses feed only the response-type statistics (never the hit or AS
# metrics), so a fast multiplicative hash is sufficient.
_NOISE_MULT = 0x9E3779B97F4A7C15


def _negative_noise(address: int, port_index: int) -> bool:
    value = ((address ^ port_index) * _NOISE_MULT) & 0xFFFFFFFFFFFFFFFF
    return value < 0x4000000000000000  # ~25% of misses in allocated space


def _negative_noise_mask(iid64, port_index: int):
    """Vectorized :func:`_negative_noise` over an IID column (the low
    64 bits of the product depend only on the address's low word)."""
    return ((iid64 ^ np.uint64(port_index)) * np.uint64(_NOISE_MULT)) < np.uint64(
        0x4000000000000000
    )


def _first_seen_group_sizes(prefix64) -> list[int]:
    """Sizes of the /64 groups of a prefix column, in first-seen order."""
    _, first_index, counts = np.unique(prefix64, return_index=True, return_counts=True)
    return counts[np.argsort(first_index, kind="stable")].tolist()


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
        response = self.classify([address], port, attempt)[0]
        self.charge({response: 1}, port)
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

    def classify(
        self, addresses: Iterable[int], port: Port, attempt: int = 0
    ) -> list[ResponseType]:
        """What :meth:`probe` would return for each address, uncharged.

        One reply per address, in input order, ``BLOCKED`` included;
        nothing is counted or timed.  Pair it with :meth:`charge` to
        account the probes a caller decides were sent.  It runs on the
        same two formulations as :meth:`scan`: the packed probe tables
        for batches of at least :data:`VECTOR_MIN_BATCH` addresses on a
        world without a resident-AS cap, and ``respond_batch`` per /64
        group otherwise.  ``attempt`` salts the replies of rate-limited
        aliased regions, the only ones that depend on it.
        """
        packed, addresses = self._batch(addresses)
        if packed is not None:
            return self._classify_packed(packed, port, attempt)
        if not isinstance(addresses, (list, tuple)):
            addresses = list(addresses)
        return self._classify_grouped(addresses, port, attempt)

    def _classify_grouped(
        self, addresses: list[int] | tuple[int, ...], port: Port, attempt: int
    ) -> list[ResponseType]:
        """:meth:`classify` over /64 groups, one ``respond_batch`` per region."""
        is_blocked = self.blocklist.is_blocked if self.blocklist else None
        groups: dict[int, list[int]] = {}
        for address in addresses:
            if is_blocked is None or not is_blocked(address):
                groups.setdefault(address >> 64, []).append(address)
        hit = affirmative_response(port)
        negative = negative_response(port)
        port_index = port.index
        replies: dict[int, ResponseType] = {}
        regions = self.internet.topology.regions_for_net64s(groups)
        for net64, group in groups.items():
            region = regions[net64]
            if region is None:
                continue
            responders = region.respond_batch(group, port, self.epoch, attempt)
            noisy = self.classify_negative and not region.firewalled
            for address in group:
                if address in responders:
                    replies[address] = hit
                elif noisy and _negative_noise(address, port_index):
                    replies[address] = negative
        timeout = ResponseType.TIMEOUT
        if is_blocked is None:
            return [replies.get(address, timeout) for address in addresses]
        return [
            ResponseType.BLOCKED if is_blocked(address) else replies.get(address, timeout)
            for address in addresses
        ]

    def _classify_packed(
        self, packed: PackedAddresses, port: Port, attempt: int
    ) -> list[ResponseType]:
        """:meth:`classify` on the packed probe tables."""
        prefix64 = packed.prefix64
        iid64 = packed.iid64
        tables = self.internet.probe_tables()
        hits, slots, exists = tables.hit_mask(prefix64, iid64, port, self.epoch, attempt)
        codes = np.full(prefix64.shape[0], 2, dtype=np.int8)
        if self.classify_negative:
            negative = exists & ~hits & ~tables.firewalled[slots]
            negative &= _negative_noise_mask(iid64, port.index)
            codes[negative] = 1
        codes[hits] = 0
        if self.blocklist and len(self.blocklist):
            codes[self.blocklist.blocked_mask(prefix64, iid64)] = 3
        replies = (
            affirmative_response(port),
            negative_response(port),
            ResponseType.TIMEOUT,
            ResponseType.BLOCKED,
        )
        return [replies[code] for code in codes.tolist()]

    def charge(self, tally: Mapping[ResponseType, int], port: Port) -> None:
        """Account ``tally`` (reply → count) exactly as that many
        :meth:`probe` calls on ``port`` would.

        Sent replies go to the rate limiter, the lifetime
        :class:`ScanStats` and the ``scan.single_probes`` and
        ``scan.hits.<port>`` counters; ``BLOCKED`` ones were never sent
        and count only as blocked targets (``scan.blocked``).  A counter
        is touched only when its count is non-zero, as per-probe calls
        would leave it.
        """
        stats = self.lifetime_stats
        blocked = 0
        sent = 0
        hits = 0
        for response, count in tally.items():
            if not count:
                continue
            if response is ResponseType.BLOCKED:
                blocked += count
                continue
            stats.responses[response] = stats.responses.get(response, 0) + count
            sent += count
            if response.is_hit:
                hits += count
        stats.targets_blocked += blocked
        stats.probes_sent += sent
        self.rate_limiter.account(sent)
        tel = get_telemetry()
        if tel.enabled:
            if blocked:
                tel.count("scan.blocked", blocked)
            if sent:
                tel.count("scan.single_probes", sent)
            if hits:
                tel.count(f"scan.hits.{port.value}", hits)

    # -- batch scans ----------------------------------------------------------

    def scan(self, addresses: Iterable[int], port: Port) -> ScanResult:
        """Probe every address once on ``port``; collect hits and stats.

        Input order does not affect results (responses are deterministic
        per address), matching the paper's randomised scan order.

        The formulation follows from what the scanner can observe.  On a
        world without a resident-AS cap, batches of at least
        :data:`VECTOR_MIN_BATCH` addresses (and any
        :class:`~repro.addr.vector.PackedAddresses` input) run through the
        world's packed probe tables.  Everything else is grouped by /64,
        so the region checks run once per group and every group's region
        is resolved in one batch that derives each owning AS at most
        once.  Hits, stats and telemetry are identical either way, and
        identical to probing each address individually.
        """
        packed, addresses = self._batch(addresses)
        if packed is not None:
            return self._scan_packed(packed, port)
        return self._scan_grouped(addresses, port)

    def _batch(
        self, addresses: Iterable[int]
    ) -> tuple[PackedAddresses | None, Iterable[int]]:
        """``(packed, addresses)``: the batch packed when the world's
        packed probe tables take it, else ``None`` (the /64-grouped
        path), and the addresses (a one-shot iterable turned into a list
        when its length had to be read).

        The tables take any :class:`PackedAddresses` and any batch of at
        least :data:`VECTOR_MIN_BATCH` addresses, on a world without a
        resident-AS cap.
        """
        if self.internet.vector_tables_allowed:
            if isinstance(addresses, PackedAddresses):
                return addresses, addresses
            if not isinstance(addresses, (list, tuple)):
                addresses = list(addresses)
            if len(addresses) >= VECTOR_MIN_BATCH:
                return PackedAddresses.from_addresses(addresses), addresses
        return None, addresses

    def _scan_grouped(self, addresses: Iterable[int], port: Port) -> ScanResult:
        """:meth:`scan` over /64 groups, one ``respond_batch`` per region."""
        result = ScanResult(port=port)
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
        sent = 0
        affirmative = 0
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
                affirmative += len(group) - len(misses)
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
        return self._account(
            result,
            sent,
            affirmative,
            neg,
            timeouts,
            blocked_count,
            lambda: [len(group) for group in groups.values()],
        )

    def _scan_packed(self, packed: PackedAddresses, port: Port) -> ScanResult:
        """:meth:`scan` on the packed probe tables: array kernels end to end.

        Reproduces the grouped path's hits, stats and telemetry exactly:
        the blocklist becomes a broadcast mask, the region lookup one
        ``searchsorted`` against the probe tables, negative-response
        noise a vectorized multiply-compare on the IID column, and the
        per-/64 telemetry observes are rebuilt in first-seen group
        order so golden traces stay byte-identical.
        """
        result = ScanResult(port=port)
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
        sent = int(prefix64.shape[0])
        tables = self.internet.probe_tables()
        hit_mask, slots, exists = tables.hit_mask(prefix64, iid64, port, self.epoch)
        hit_rows = np.nonzero(hit_mask)[0]
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
            result.hits.update(
                (prefix << 64) | iid
                for prefix, iid in zip(hit_prefix.tolist(), hit_iid.tolist())
            )
        neg = 0
        if self.classify_negative:
            eligible = exists & ~hit_mask
            eligible &= ~tables.firewalled[slots]
            if eligible.any():
                neg = int((eligible & _negative_noise_mask(iid64, port.index)).sum())
        affirmative = int(hit_rows.shape[0])
        timeouts = sent - affirmative - neg
        return self._account(
            result,
            sent,
            affirmative,
            neg,
            timeouts,
            blocked_count,
            lambda: _first_seen_group_sizes(prefix64),
        )

    def _account(
        self,
        result: ScanResult,
        sent: int,
        affirmative: int,
        neg: int,
        timeouts: int,
        blocked_count: int,
        batch_sizes: Callable[[], list[int]],
    ) -> ScanResult:
        """Charge one finished batch scan to the rate limiter, its
        :class:`ScanStats`, the lifetime stats and ``scan.*`` telemetry.

        ``affirmative`` counts the probes answered affirmatively, so a
        responsive address listed twice is charged twice, as two
        :meth:`probe` calls would be.  ``batch_sizes`` yields the per-/64
        group sizes in first-seen order; it runs only while telemetry is
        recording.
        """
        port = result.port
        stats = result.stats
        stats.targets_blocked += blocked_count
        start_time = self.rate_limiter.virtual_time
        self.rate_limiter.account(sent)
        stats.probes_sent += sent
        for response, count in (
            (affirmative_response(port), affirmative),
            (negative_response(port), neg),
            (ResponseType.TIMEOUT, timeouts),
        ):
            if count:
                stats.responses[response] = stats.responses.get(response, 0) + count
        stats.virtual_duration = self.rate_limiter.virtual_time - start_time
        self.lifetime_stats.merge(stats)
        tel = get_telemetry()
        if tel.enabled:
            sizes = batch_sizes()
            tel.count("scan.calls")
            tel.count("scan.probes", sent)
            tel.count("scan.batches", len(sizes))
            if blocked_count:
                tel.count("scan.blocked", blocked_count)
            if affirmative:
                tel.count(f"scan.hits.{port.value}", affirmative)
            for size in sizes:
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
