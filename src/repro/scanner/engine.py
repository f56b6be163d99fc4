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

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from ..addr.vector import PackedAddresses, np
from ..internet import SCAN_EPOCH, Port, SimulatedInternet
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

#: The reply codes of :meth:`Scanner._replies`, indexes into
#: :func:`_reply_types`.
_HIT, _NEGATIVE, _TIMEOUT, _BLOCKED = range(4)


def _negative_noise_mask(iid64, port_index: int):
    """Which misses get the alive-but-closed reply (~25% of IIDs): one
    multiply-compare over the IID column, the low 64 bits of the product
    ``(address ^ port_index) * _NOISE_MULT``."""
    return ((iid64 ^ np.uint64(port_index)) * np.uint64(_NOISE_MULT)) < np.uint64(
        0x4000000000000000
    )


def _reply_types(port: Port) -> tuple[ResponseType, ...]:
    """The :class:`ResponseType` of each reply code on ``port``."""
    return (
        affirmative_response(port),
        negative_response(port),
        ResponseType.TIMEOUT,
        ResponseType.BLOCKED,
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
    ) -> None:
        self.internet = internet
        self.epoch = epoch
        self.blocklist = blocklist or Blocklist()
        self.rate_limiter = RateLimiter(packets_per_second)
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

    def classify(
        self, addresses: Iterable[int], port: Port, attempt: int = 0
    ) -> list[ResponseType]:
        """What :meth:`probe` would return for each address, uncharged.

        One reply per address, in input order, ``BLOCKED`` included;
        nothing is counted or timed.  Pair it with :meth:`charge` to
        account the probes a caller decides were sent.  ``attempt``
        salts the replies of rate-limited aliased regions, the only ones
        that depend on it.
        """
        replies = _reply_types(port)
        _, codes = self._replies(addresses, port, attempt)
        return [replies[code] for code in codes.tolist()]

    def _replies(self, addresses: Iterable[int], port: Port, attempt: int = 0):
        """``(packed, codes)``: the batch as :class:`PackedAddresses`
        (passed through when it already is one) and one int8 reply code
        per address, in input order.

        Blocked rows are masked first, so only the rest reach the
        world's probe tables (a blocked /64's AS is never derived).
        ``hit_mask`` decides the hits; a miss in allocated space outside
        a firewall gets the alive-but-closed reply where the negative
        noise draws it, and every other miss times out.
        """
        if not isinstance(addresses, PackedAddresses):
            addresses = PackedAddresses.from_addresses(addresses)
        prefix64 = addresses.prefix64
        iid64 = addresses.iid64
        codes = np.full(prefix64.shape[0], _BLOCKED, dtype=np.int8)
        sent = slice(None)
        if self.blocklist:
            sent = np.flatnonzero(~self.blocklist.blocked_mask(prefix64, iid64))
            prefix64 = prefix64[sent]
            iid64 = iid64[sent]
        tables = self.internet.probe_tables(prefix64)
        hits, slots, exists = tables.hit_mask(
            prefix64, iid64, port, self.epoch, attempt
        )
        replies = np.full(prefix64.shape[0], _TIMEOUT, dtype=np.int8)
        # An empty table (a batch in unallocated space) has no column to
        # index, and no row of it exists.
        if exists.any():
            negative = exists & ~hits & ~tables.firewalled[slots]
            negative &= _negative_noise_mask(iid64, port.index)
            replies[negative] = _NEGATIVE
        replies[hits] = _HIT
        codes[sent] = replies
        return addresses, codes

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
        per address), matching the paper's randomised scan order.  Hits,
        stats and telemetry are identical to probing each address
        individually: a responsive address listed twice is charged
        twice, as two :meth:`probe` calls would be.  The batch is
        charged to the rate limiter, its :class:`ScanStats`, the
        lifetime stats and the ``scan.*`` counters, with one
        ``scan.batch_addresses`` observation per probed /64 in
        first-seen order.
        """
        packed, codes = self._replies(addresses, port)
        result = ScanResult(port=port)
        counts = np.bincount(codes, minlength=4).tolist()
        affirmative, blocked = counts[_HIT], counts[_BLOCKED]
        hit_rows = np.flatnonzero(codes == _HIT)
        if hit_rows.shape[0]:
            hit_prefix = packed.prefix64[hit_rows]
            hit_iid = packed.iid64[hit_rows]
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
        sent = len(codes) - blocked
        stats = result.stats
        stats.targets_blocked += blocked
        start_time = self.rate_limiter.virtual_time
        self.rate_limiter.account(sent)
        stats.probes_sent += sent
        for response, count in zip(_reply_types(port), counts[:_BLOCKED]):
            if count:
                stats.responses[response] = count
        stats.virtual_duration = self.rate_limiter.virtual_time - start_time
        self.lifetime_stats.merge(stats)
        tel = get_telemetry()
        if tel.enabled:
            prefix64 = packed.prefix64
            if blocked:
                prefix64 = prefix64[codes != _BLOCKED]
            sizes = _first_seen_group_sizes(prefix64)
            tel.count("scan.calls")
            tel.count("scan.probes", sent)
            tel.count("scan.batches", len(sizes))
            if blocked:
                tel.count("scan.blocked", blocked)
            if affirmative:
                tel.count(f"scan.hits.{port.value}", affirmative)
            for size in sizes:
                tel.observe("scan.batch_addresses", size)
        return result
