"""Tests for repro.scanner.engine."""

import itertools
from dataclasses import replace

from repro.internet import COLLECTION_EPOCH, SCAN_EPOCH, Port, SimulatedInternet
from repro.scanner import Blocklist, ResponseType, Scanner
from repro.scanner.engine import _NOISE_MULT


def responsive_address(internet, port=Port.ICMP, epoch=SCAN_EPOCH):
    return next(iter(internet.iter_responsive(port, epoch)))


def capped_twin(internet):
    """A fresh copy of ``internet``'s world with a resident-AS cap that
    holds every AS: nothing is evicted, but each batch is answered from
    a table over just its own regions."""
    config = internet.config
    return SimulatedInternet(replace(config, max_resident_ases=config.num_ases + 1))


class TestProbe:
    def test_hit_classified_affirmative(self, internet, scanner):
        address = responsive_address(internet)
        assert scanner.probe(address, Port.ICMP) is ResponseType.ECHO_REPLY

    def test_unallocated_times_out(self, scanner):
        assert scanner.probe(0x3FFF << 112, Port.ICMP) is ResponseType.TIMEOUT

    def test_blocked_never_sent(self, internet):
        address = responsive_address(internet)
        blocklist = Blocklist()
        from repro.addr import Prefix

        blocklist.add(Prefix.of(address, 64))
        scanner = Scanner(internet, blocklist=blocklist)
        assert scanner.probe(address, Port.ICMP) is ResponseType.BLOCKED
        assert scanner.rate_limiter.packets_sent == 0

    def test_probe_with_retries_on_rate_limited_alias(self, internet):
        aliased = next(
            r
            for r in internet.regions
            if r.aliased and r.alias_response_prob < 1.0
        )
        scanner = Scanner(internet)
        # With enough retries the rate-limited alias eventually answers
        # for at least one of several addresses.
        answered = sum(
            scanner.probe_with_retries(aliased.address_of(i), Port.ICMP, retries=6)
            for i in range(10)
        )
        assert answered > 0


class TestBatchScan:
    def test_scan_finds_all_responsive(self, internet, scanner):
        targets = list(itertools.islice(internet.iter_responsive(Port.ICMP), 500))
        result = scanner.scan(targets, Port.ICMP)
        assert result.hits == set(targets)
        assert result.num_hits == 500

    def test_scan_mixed_targets(self, internet, scanner):
        live = list(itertools.islice(internet.iter_responsive(Port.ICMP), 100))
        dead = [(0x3FFF << 112) + i for i in range(100)]
        result = scanner.scan(live + dead, Port.ICMP)
        assert result.hits == set(live)
        assert result.stats.probes_sent == 200

    def test_scan_agrees_with_probe(self, internet, scanner):
        region = internet.regions[0]
        targets = [region.address_of(i) for i in range(50)]
        result = scanner.scan(targets, Port.TCP80)
        for address in targets:
            expected = internet.probe(address, Port.TCP80)
            assert (address in result.hits) == expected

    def test_scan_respects_blocklist(self, internet):
        from repro.addr import Prefix

        live = list(itertools.islice(internet.iter_responsive(Port.ICMP), 20))
        blocklist = Blocklist([Prefix.of(live[0], 128)])
        scanner = Scanner(internet, blocklist=blocklist)
        result = scanner.scan(live, Port.ICMP)
        assert live[0] not in result.hits
        assert result.stats.targets_blocked == 1

    def test_scan_epoch_zero_sees_churned(self, internet):
        collection_scanner = Scanner(internet, epoch=COLLECTION_EPOCH)
        scan_scanner = Scanner(internet, epoch=SCAN_EPOCH)
        targets = list(
            itertools.islice(
                internet.iter_responsive(Port.ICMP, COLLECTION_EPOCH), 2000
            )
        )
        then = collection_scanner.scan(targets, Port.ICMP)
        now = scan_scanner.scan(targets, Port.ICMP)
        assert then.num_hits == len(targets)
        assert now.num_hits < then.num_hits  # churn happened

    def test_negative_responses_recorded_not_hits(self, internet, scanner):
        region = next(
            r for r in internet.regions if not r.aliased and not r.firewalled
        )
        # Probe clearly inactive IIDs within an allocated region.
        targets = [region.address_of(0xFFFF_0000 + i) for i in range(300)]
        result = scanner.scan(targets, Port.TCP80)
        assert result.num_hits == 0
        assert result.stats.count(ResponseType.RST) > 0
        assert result.stats.hits == 0

    def test_lifetime_stats_accumulate(self, internet):
        scanner = Scanner(internet)
        targets = list(itertools.islice(internet.iter_responsive(Port.ICMP), 50))
        scanner.scan(targets, Port.ICMP)
        scanner.scan(targets, Port.ICMP)
        assert scanner.lifetime_stats.probes_sent == 100

    def test_virtual_duration_positive(self, internet):
        scanner = Scanner(internet, packets_per_second=100)
        targets = list(itertools.islice(internet.iter_responsive(Port.ICMP), 50))
        result = scanner.scan(targets, Port.ICMP)
        assert result.stats.virtual_duration == 0.5


def _negative_noise(address, port_index):
    """Scalar oracle of the scanner's negative-response noise: whether a
    miss in allocated, unfirewalled space gets the alive-but-closed
    reply (~25% of addresses)."""
    value = ((address ^ port_index) * _NOISE_MULT) & 0xFFFF_FFFF_FFFF_FFFF
    return value < 0x4000000000000000


def expected_reply(scanner, address, port, attempt):
    """What one probe returns, from the ground-truth region definition."""
    from repro.scanner.responses import affirmative_response, negative_response

    if scanner.blocklist.is_blocked(address):
        return ResponseType.BLOCKED
    region = scanner.internet.region_of(address)
    if region is None:
        return ResponseType.TIMEOUT
    if region.responds(address, port, scanner.epoch, attempt):
        return affirmative_response(port)
    if not region.firewalled and _negative_noise(address, port.index):
        return negative_response(port)
    return ResponseType.TIMEOUT


def mixed_targets(internet):
    """Live, rate-limited alias, firewalled, retired, unrouted and repeated."""
    targets = list(itertools.islice(internet.iter_responsive(Port.ICMP), 40))
    for predicate in (
        lambda r: r.aliased and r.alias_response_prob < 1.0,
        lambda r: r.aliased and r.alias_response_prob >= 1.0,
        lambda r: r.firewalled,
        lambda r: r.retired,
        lambda r: not r.aliased,
    ):
        for region in [r for r in internet.regions if predicate(r)][:6]:
            targets.extend(region.address_of(iid) for iid in (1, 2, 0xFFFF_0000_1234))
    targets.extend((0x3FFF << 112) + i for i in range(10))
    return targets + targets[:7]


class TestClassifyAndCharge:
    def scanner(self, internet):
        from repro.addr import Prefix

        targets = mixed_targets(internet)
        blocklist = Blocklist([Prefix.of(targets[3], 128), Prefix.of(targets[-20], 64)])
        return targets, Scanner(internet, blocklist=blocklist)

    def test_classify_matches_probe_definition(self, internet):
        from repro.addr import PackedAddresses

        for world in (internet, capped_twin(internet)):
            targets, scanner = self.scanner(world)
            for port in (Port.ICMP, Port.TCP443):
                for attempt in range(4):
                    want = [expected_reply(scanner, a, port, attempt) for a in targets]
                    assert scanner.classify(targets, port, attempt) == want
                    assert scanner.classify(
                        PackedAddresses.from_addresses(targets), port, attempt
                    ) == want
                    assert scanner.classify(targets[:9], port, attempt) == want[:9]
            assert scanner.rate_limiter.packets_sent == 0
            assert scanner.lifetime_stats.probes_sent == 0

    def test_charge_equals_probe_calls(self, internet):
        from collections import Counter

        from repro.telemetry import Telemetry, use_telemetry

        targets, scanner = self.scanner(internet)
        outcomes = []
        for batched in (False, True):
            twin = Scanner(internet, blocklist=scanner.blocklist)
            telemetry = Telemetry()
            with use_telemetry(telemetry):
                for port in (Port.ICMP, Port.TCP80):
                    if batched:
                        twin.charge(Counter(twin.classify(targets, port, 1)), port)
                    else:
                        for address in targets:
                            twin.probe(address, port, attempt=1)
            outcomes.append(
                (
                    twin.rate_limiter.packets_sent,
                    twin.lifetime_stats,
                    telemetry.snapshot()["counters"],
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].targets_blocked > 0

    def test_charge_touches_only_nonzero_counters(self, internet):
        from repro.telemetry import Telemetry, use_telemetry

        scanner = Scanner(internet)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            scanner.charge({ResponseType.BLOCKED: 3}, Port.ICMP)
            assert telemetry.snapshot()["counters"] == {"scan.blocked": 3}
            scanner.charge({ResponseType.TIMEOUT: 2, ResponseType.ECHO_REPLY: 0}, Port.ICMP)
            scanner.charge({}, Port.ICMP)
        assert telemetry.snapshot()["counters"] == {
            "scan.blocked": 3,
            "scan.single_probes": 2,
        }
        assert scanner.lifetime_stats.responses == {ResponseType.TIMEOUT: 2}
        assert scanner.lifetime_stats.targets_blocked == 3
        assert scanner.rate_limiter.packets_sent == 2


class TestCappedWorld:
    """A capped world answers each batch from a table over its regions."""

    def test_blocked_slash32s_are_never_derived(self, internet):
        from repro.addr import Prefix

        by_slash32 = {}
        for region in internet.regions:
            if region.asn != internet.mega_isp_asn:
                by_slash32.setdefault(region.net64 >> 32, []).append(region)
        groups = list(by_slash32.values())[:6]
        targets = [
            region.address_of(iid)
            for regions in groups
            for region in regions[:3]
            for iid in (1, 2, 0xFFFF_0000_1234)
        ]
        blocklist = Blocklist(
            Prefix.of(regions[0].address_of(0), 32) for regions in groups[:3]
        )
        world = capped_twin(internet)
        scanner = Scanner(world, blocklist=blocklist)
        result = scanner.scan(targets, Port.ICMP)
        blocked = [address for address in targets if blocklist.is_blocked(address)]
        assert result.stats.targets_blocked == len(blocked) > 0
        assert world.lazy_stats()["materialized_ases"] == 3
        assert result.hits == {
            address
            for address in targets
            if address not in blocked and internet.probe(address, Port.ICMP)
        }

    def test_batches_without_a_member_region(self, internet):
        regions = internet.regions
        aliased = [
            r.address_of(iid)
            for r in [r for r in regions if r.aliased][:12]
            for iid in (1, 7)
        ]
        firewalled = [
            r.address_of(iid)
            for r in [r for r in regions if r.firewalled][:12]
            for iid in sorted(r.active_iids())[:2]
        ]
        unallocated = [(0x3FFF << 112) + i for i in range(10)]
        assert aliased and firewalled
        scanner = Scanner(capped_twin(internet))
        mixed = aliased + firewalled + unallocated
        for batch in ([], aliased, firewalled, unallocated, mixed):
            for port in (Port.ICMP, Port.TCP80):
                want = [expected_reply(scanner, a, port, 0) for a in batch]
                assert scanner.classify(batch, port) == want
                result = scanner.scan(batch, port)
                assert result.hits == {a for a in batch if internet.probe(a, port)}
                assert result.stats.probes_sent == len(batch)
        assert scanner.internet._probe_tables is None
