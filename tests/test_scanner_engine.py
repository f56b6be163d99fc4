"""Tests for repro.scanner.engine."""

import itertools

from repro.internet import COLLECTION_EPOCH, SCAN_EPOCH, Port
from repro.scanner import Blocklist, ResponseType, Scanner


def responsive_address(internet, port=Port.ICMP, epoch=SCAN_EPOCH):
    return next(iter(internet.iter_responsive(port, epoch)))


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

    def test_is_responsive(self, internet, scanner):
        assert scanner.is_responsive(responsive_address(internet), Port.ICMP)

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

    def test_scan_all_ports(self, internet, scanner):
        targets = list(itertools.islice(internet.iter_responsive(Port.ICMP), 100))
        results = scanner.scan_all_ports(targets, (Port.ICMP, Port.UDP53))
        assert set(results) == {Port.ICMP, Port.UDP53}
        assert results[Port.ICMP].num_hits >= results[Port.UDP53].num_hits

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


def expected_reply(scanner, address, port, attempt):
    """What one probe returns, from the ground-truth region definition."""
    from repro.scanner.engine import _negative_noise
    from repro.scanner.responses import affirmative_response, negative_response

    if scanner.blocklist.is_blocked(address):
        return ResponseType.BLOCKED
    region = scanner.internet.region_of(address)
    if region is None:
        return ResponseType.TIMEOUT
    if region.responds(address, port, scanner.epoch, attempt):
        return affirmative_response(port)
    if scanner.classify_negative and not region.firewalled and _negative_noise(address, port.index):
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
    def scanners(self, internet):
        from repro.addr import Prefix

        targets = mixed_targets(internet)
        blocklist = Blocklist([Prefix.of(targets[3], 128), Prefix.of(targets[-20], 64)])
        return targets, [
            Scanner(internet, blocklist=blocklist),
            Scanner(internet, blocklist=blocklist, classify_negative=False),
        ]

    def test_classify_matches_probe_definition(self, internet):
        from dataclasses import replace

        from repro.addr import PackedAddresses
        from repro.internet import SimulatedInternet

        capped = SimulatedInternet(
            replace(internet.config, max_resident_ases=internet.config.num_ases + 1)
        )
        for world in (internet, capped):
            targets, scanners = self.scanners(world)
            assert len(targets) >= 64  # the packed path on the uncapped world
            for scanner in scanners:
                for port in (Port.ICMP, Port.TCP443):
                    for attempt in range(4):
                        want = [expected_reply(scanner, a, port, attempt) for a in targets]
                        assert scanner.classify(targets, port, attempt) == want
                        assert scanner.classify(
                            PackedAddresses.from_addresses(targets), port, attempt
                        ) == want
                        # Small batches take the grouped path everywhere.
                        assert scanner.classify(targets[:9], port, attempt) == want[:9]
                assert scanner.rate_limiter.packets_sent == 0
                assert scanner.lifetime_stats.probes_sent == 0

    def test_charge_equals_probe_calls(self, internet):
        from collections import Counter

        from repro.telemetry import Telemetry, use_telemetry

        targets, (scanner, _) = self.scanners(internet)
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
