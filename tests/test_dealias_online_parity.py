"""The batched online verifier against the per-prefix scalar loop.

:class:`ScalarOnlineDealiaser` is the verification loop transcribed as
one prefix and one ``probe_with_retries`` call at a time.  Each test
runs it and :class:`OnlineDealiaser` on twin scanners (same world, same
blocklist) under separate telemetry registries and requires identical
verdicts, detected prefixes, probe counts, scanner accounting and
counters, zero-valued counters included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.addr import Prefix
from repro.addr.rand import hash64
from repro.datasets import collect_all
from repro.dealias import AliasPrefixSet, OnlineDealiaser
from repro.internet import InternetConfig, Port, SimulatedInternet
from repro.scanner import Blocklist, Scanner
from repro.telemetry import Telemetry, use_telemetry

_SALT_PROBE = 0xA1


class ScalarOnlineDealiaser:
    """The scalar verifier: one prefix, one probe, one retry at a time."""

    def __init__(self, scanner, prefix_bits=96, probes_per_prefix=3, retries=3, threshold=2):
        self.scanner = scanner
        self.prefix_bits = prefix_bits
        self.probes_per_prefix = probes_per_prefix
        self.retries = retries
        self.threshold = threshold
        self.detected = AliasPrefixSet()
        self._verdicts: dict[int, bool] = {}
        self.verification_probes = 0

    def is_aliased(self, address, port):
        from repro.telemetry import get_telemetry

        shift = 128 - self.prefix_bits
        net = address >> shift
        cached = self._verdicts.get(net)
        if cached is not None:
            return cached
        probes_before = self.verification_probes
        verdict = self._verify(net, port)
        self._verdicts[net] = verdict
        if verdict:
            self.detected.add(Prefix(net << shift, self.prefix_bits))
        tel = get_telemetry()
        if tel.enabled:
            tel.count("dealias.online.prefixes_checked")
            tel.count(
                "dealias.online.verification_probes",
                self.verification_probes - probes_before,
            )
            if verdict:
                tel.count("dealias.online.aliased_prefixes")
        return verdict

    def partition(self, addresses, port):
        from repro.telemetry import get_telemetry

        clean, aliased = set(), set()
        for address in addresses:
            (aliased if self.is_aliased(address, port) else clean).add(address)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("dealias.online.aliased_addresses", len(aliased))
            tel.count("dealias.online.clean_addresses", len(clean))
        return clean, aliased

    def _verify(self, net, port):
        shift = 128 - self.prefix_bits
        base = net << shift
        low_mask = (1 << shift) - 1
        affirmative = 0
        for index in range(self.probes_per_prefix):
            target = base | (hash64(_SALT_PROBE, net, index) & low_mask)
            self.verification_probes += 1
            if self.scanner.probe_with_retries(target, port, retries=self.retries):
                affirmative += 1
                if affirmative >= self.threshold:
                    return True
            remaining = self.probes_per_prefix - index - 1
            if affirmative + remaining < self.threshold:
                return False
        return affirmative >= self.threshold


def twin_scanners(internet, blocklist_prefixes=()):
    internet.regions  # pin the world: no lazy-materialisation counters
    return tuple(
        Scanner(internet, blocklist=Blocklist(blocklist_prefixes)) for _ in range(2)
    )


def run_both(internet, steps, blocklist_prefixes=(), **params):
    """Run ``steps`` on the scalar and the batched verifier; assert parity.

    ``steps`` is a list of ``("partition", addresses, port)`` and
    ``("is_aliased", address, port)`` calls, replayed in order on both.
    Returns the batched dealiaser.
    """
    outcomes = []
    for scanner, cls in zip(
        twin_scanners(internet, blocklist_prefixes),
        (ScalarOnlineDealiaser, OnlineDealiaser),
    ):
        dealiaser = cls(scanner, **params)
        telemetry = Telemetry()
        answers = []
        with use_telemetry(telemetry):
            for kind, arg, port in steps:
                answers.append(getattr(dealiaser, kind)(arg, port))
        outcomes.append(
            {
                "answers": answers,
                "verdicts": dict(dealiaser._verdicts),
                "detected": dealiaser.detected.prefixes(),
                "verification_probes": dealiaser.verification_probes,
                "packets_sent": scanner.rate_limiter.packets_sent,
                "lifetime_stats": scanner.lifetime_stats,
                "counters": telemetry.snapshot()["counters"],
            }
        )
        last = dealiaser
    scalar, batched = outcomes
    for key in scalar:
        assert batched[key] == scalar[key], key
    return last


@pytest.fixture(scope="module")
def full_seeds(collection) -> list[int]:
    return sorted(collection.combined().addresses)


@pytest.fixture(scope="module")
def capped_world():
    config = InternetConfig.tiny(master_seed=7)
    capped = SimulatedInternet(replace(config, max_resident_ases=config.num_ases + 1))
    return capped, sorted(collect_all(capped).combined().addresses)


def region_addresses(internet, predicate, limit=12):
    regions = [region for region in internet.regions if predicate(region)][:limit]
    assert regions, "the tiny world has no region of this kind"
    return [region.address_of(iid) for region in regions for iid in (1, 0xBEEF)]


class TestFullSeedSet:
    @pytest.mark.parametrize("port", [Port.ICMP, Port.TCP443])
    def test_full_seed_set(self, internet, full_seeds, port):
        dealiaser = run_both(internet, [("partition", full_seeds, port)])
        assert dealiaser.detected and dealiaser.verification_probes

    def test_capped_world(self, capped_world):
        internet, seeds = capped_world
        run_both(internet, [("partition", seeds, Port.ICMP)])
        assert internet._probe_tables is None


class TestEdgeCases:
    def test_blocklist_ends_retries_uncharged(self, internet, full_seeds):
        # Block a few whole seed /64s and one single verification target.
        blocked = [Prefix.of(address, 64) for address in full_seeds[::997]]
        net = full_seeds[500] >> 32
        blocked.append(Prefix((net << 32) | (hash64(_SALT_PROBE, net, 0) & 0xFFFF_FFFF), 128))
        dealiaser = run_both(
            internet, [("partition", full_seeds, Port.ICMP)], blocklist_prefixes=blocked
        )
        assert dealiaser.scanner.lifetime_stats.targets_blocked > 0

    def test_region_kinds(self, internet):
        limited = region_addresses(
            internet, lambda r: r.aliased and r.alias_response_prob < 1.0
        )
        firewalled = region_addresses(internet, lambda r: r.firewalled)
        retired = region_addresses(internet, lambda r: r.retired)
        unrouted = [(0x3FFF << 112) | index for index in range(5)] + [index << 100 for index in range(1, 6)]
        targets = limited + firewalled + retired + unrouted
        for port in (Port.ICMP, Port.TCP80):
            run_both(internet, [("partition", targets, port)])

    @pytest.mark.parametrize("prefix_bits", [48, 64, 112])
    def test_prefix_lengths(self, internet, full_seeds, prefix_bits):
        run_both(
            internet,
            [("partition", full_seeds[::3], Port.ICMP)],
            prefix_bits=prefix_bits,
        )

    @pytest.mark.parametrize(
        "probes, threshold, retries", [(5, 3, 1), (3, 1, 0)]
    )
    def test_probe_shapes(self, internet, full_seeds, probes, threshold, retries):
        run_both(
            internet,
            [("partition", full_seeds[::2], Port.ICMP)],
            probes_per_prefix=probes,
            threshold=threshold,
            retries=retries,
        )

    def test_interleaved_queries(self, internet, full_seeds):
        first, second = full_seeds[: len(full_seeds) // 2], full_seeds[len(full_seeds) // 3 :]
        steps = [
            ("is_aliased", full_seeds[-1], Port.ICMP),
            ("partition", first, Port.ICMP),
            ("is_aliased", full_seeds[0], Port.ICMP),
            ("is_aliased", full_seeds[-7], Port.ICMP),
            ("partition", second, Port.ICMP),
            ("partition", second, Port.ICMP),
            ("is_aliased", full_seeds[-2], Port.ICMP),
        ]
        run_both(internet, steps)

    def test_partition_of_generator(self, internet, full_seeds):
        dealiaser = OnlineDealiaser(Scanner(internet))
        clean, aliased = dealiaser.partition(iter(full_seeds[:500]), Port.ICMP)
        assert clean | aliased == set(full_seeds[:500])
