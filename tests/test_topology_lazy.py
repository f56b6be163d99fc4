"""Lazy/eager equivalence property suite for the streaming topology.

The contract under test: :class:`LazyTopology` is a *cache*, never a
*source of truth*.  Every AS derives as a pure function of
``(master_seed, rank)``, so the lazy topology must yield bit-identical
regions, registry answers and probe results to the eager
:func:`build_topology` walk — across world scales, master seeds, probe
epochs, and (the key property) **any touch order**, including orders
that force LRU evictions and re-derivations.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.addr.rand import hash64
from repro.addr.vector import use_vectorized
from repro.internet import InternetConfig, SimulatedInternet, topology
from repro.internet.ports import ALL_PORTS, Port
from repro.internet.regions import COLLECTION_EPOCH, SCAN_EPOCH
from repro.internet.topology import (
    MAX_ASES,
    LazyTopology,
    _feistel,
    asn_for_rank,
    build_topology,
    derive_as,
    derive_as_info,
    mega_isp_info,
    rank_for_asn,
    rank_for_top32,
    slash32_for_rank,
)
from repro.scanner import Scanner

SWEEP_SEEDS = (0, 1, 7, 42, 1337)


def micro_config(seed: int = 42, **overrides) -> InternetConfig:
    """A 12-AS world: small enough to sweep seeds exhaustively."""
    params = dict(
        master_seed=seed,
        num_ases=12,
        max_sites_per_as=2,
        server_density_min=8,
        server_density_max=24,
        cdn_density_min=12,
        cdn_density_max=30,
        enterprise_density_min=4,
        enterprise_density_max=12,
        subscriber_density_min=2,
        subscriber_density_max=8,
        mega_isp_regions=20,
    )
    params.update(overrides)
    return InternetConfig(**params)


def fingerprint(region):
    """Every ground-truth field of a region (cache fields excluded)."""
    return (
        region.net64,
        region.asn,
        region.role,
        region.pattern,
        region.density,
        region.profile,
        region.churn_rate,
        region.retired,
        region.firewalled,
        region.aliased,
        region.alias_response_prob,
        region.salt,
    )


class TestRankMappings:
    """The invertible allocation maths underneath ``region_for_net64``."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_asn_round_trips(self, seed):
        config = InternetConfig.tiny(master_seed=seed)
        seen = set()
        for rank in range(config.num_ases):
            asn = asn_for_rank(config, rank)
            assert asn % 2 == 1, "generated ASNs are odd by construction"
            assert rank_for_asn(config, asn) == rank
            seen.add(asn)
        assert len(seen) == config.num_ases, "ASN assignment is a permutation"

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_slash32_round_trips(self, seed):
        config = InternetConfig.tiny(master_seed=seed)
        seen = set()
        for rank in range(config.num_ases):
            top32 = slash32_for_rank(config, rank) >> 96
            assert rank_for_top32(config, top32) == rank
            seen.add(top32)
        assert len(seen) == config.num_ases, "/32 allocation is collision-free"

    def test_mega_asn_never_collides(self):
        config = InternetConfig.tiny()
        assert config.mega_isp_asn % 2 == 0
        assert rank_for_asn(config, config.mega_isp_asn) is None

    def test_unallocated_space_maps_to_nothing(self):
        config = InternetConfig.tiny()
        allocated = {slash32_for_rank(config, r) >> 96 for r in range(config.num_ases)}
        rng = random.Random(9)
        probed = 0
        while probed < 200:
            top32 = rng.getrandbits(32)
            if top32 in allocated:
                continue
            probed += 1
            rank = rank_for_top32(config, top32)
            if rank is not None:
                # An inverse hit must recompose to this exact top32.
                assert slash32_for_rank(config, rank) >> 96 == top32

    def test_num_ases_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="allocation plan"):
            LazyTopology(InternetConfig(num_ases=MAX_ASES + 1))


def oracle_feistel(bits: int, value: int, key: int, invert: bool = False) -> int:
    """The Feistel permutation with its rounds computed by ``hash64``.

    The round tables behind :func:`_feistel` must reproduce it exactly.
    """
    half = bits // 2
    mask = (1 << half) - 1
    left, right = value >> half, value & mask
    if not invert:
        for rnd in range(4):
            left, right = right, left ^ (hash64(key, rnd, right) & mask)
    else:
        for rnd in reversed(range(4)):
            left, right = right ^ (hash64(key, rnd, left) & mask), left
    return (left << half) | right


def oracle_asn(config: InternetConfig, rank: int) -> int:
    bits = topology._asn_domain_bits(config.num_ases)
    key = hash64(config.master_seed, topology._SALT_ASN)
    return topology._ASN_BASE + 1 + 2 * oracle_feistel(bits, rank, key)


def oracle_slash32(config: InternetConfig, rank: int) -> int:
    blocks = len(topology._TOP16_BLOCKS)
    block = rank % blocks
    slot = (rank // blocks) % (1 << 16)
    plane = rank // (blocks << 16)
    key = hash64(config.master_seed, topology._SALT_MID16, block, plane)
    top16 = topology._TOP16_BLOCKS[block] + plane * topology._PLANE_STRIDE
    return (top16 << 112) | (oracle_feistel(16, slot, key) << 96)


class TestRoundTables:
    """Table-driven Feistel rounds ≡ the ``hash64`` rounds they replace."""

    def _check(self, bits: int, key: int, values) -> None:
        for value in values:
            forward = _feistel(bits, value, key)
            assert forward == oracle_feistel(bits, value, key)
            backward = _feistel(bits, value, key, invert=True)
            assert backward == oracle_feistel(bits, value, key, invert=True)
            assert _feistel(bits, forward, key, invert=True) == value

    def test_whole_16_bit_domain(self):
        key = hash64(42, topology._SALT_MID16, 5, 1)
        self._check(16, key, range(1 << 16))

    @pytest.mark.parametrize("bits", (8, 12, 20, 24))
    def test_sampled_asn_domains(self, bits):
        key = hash64(bits, topology._SALT_ASN)
        rng = random.Random(bits)
        values = [0, (1 << bits) - 1, *(rng.randrange(1 << bits) for _ in range(3000))]
        self._check(bits, key, values)

    @pytest.mark.parametrize("num_ases", (48, 120, 1_000_000, MAX_ASES))
    def test_rank_maps_round_trip_at_scale(self, num_ases):
        config = InternetConfig(master_seed=num_ases, num_ases=num_ases)
        if num_ases <= 120:
            ranks = list(range(num_ases))
        else:
            rng = random.Random(num_ases)
            ranks = [0, num_ases - 1, *rng.sample(range(num_ases), 2000)]
        for rank in ranks:
            asn = asn_for_rank(config, rank)
            assert asn == oracle_asn(config, rank)
            assert rank_for_asn(config, asn) == rank
            slash32 = slash32_for_rank(config, rank)
            assert slash32 == oracle_slash32(config, rank)
            assert rank_for_top32(config, slash32 >> 96) == rank


class TestDerivationPurity:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_derive_as_is_deterministic(self, seed):
        config = micro_config(seed)
        for rank in range(config.num_ases):
            info_a, regions_a = derive_as(config, rank)
            info_b, regions_b = derive_as(config, rank)
            assert info_a == info_b
            assert [fingerprint(r) for r in regions_a] == [
                fingerprint(r) for r in regions_b
            ]

    def test_header_derivation_matches_full(self):
        config = InternetConfig.tiny()
        for rank in range(config.num_ases):
            assert derive_as_info(config, rank) == derive_as(config, rank)[0]


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_iter_regions_matches_eager_walk(self, seed):
        config = micro_config(seed)
        eager = build_topology(config)
        lazy = LazyTopology(config)
        streamed = list(lazy.iter_regions())
        assert len(streamed) == len(eager.regions)
        for got, want in zip(streamed, eager.regions):
            assert fingerprint(got) == fingerprint(want)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_point_lookups_match_eager_dict(self, seed):
        config = micro_config(seed)
        eager = build_topology(config)
        lazy = LazyTopology(config)
        for region in eager.regions:
            got = lazy.region_for_net64(region.net64)
            assert fingerprint(got) == fingerprint(region)
        assert lazy.region_for_net64(0xDEAD_BEEF_0000_0000) is None

    def test_touch_order_independence_under_eviction(self):
        """The key property: any touch order, with an LRU small enough
        to evict and re-derive constantly, answers like the eager walk."""
        config = micro_config(7)
        eager = build_topology(config)
        expected = {region.net64: fingerprint(region) for region in eager.regions}
        net64s = list(expected)
        for order_seed in range(5):
            lazy = LazyTopology(config, max_resident_ases=2)
            shuffled = net64s[:]
            random.Random(order_seed).shuffle(shuffled)
            # Touch everything twice: the second pass hits re-derived
            # entries for anything the tiny LRU evicted.
            for net64 in shuffled + shuffled[::-1]:
                assert fingerprint(lazy.region_for_net64(net64)) == expected[net64]
            assert lazy.resident_ases <= 2
            assert lazy.evicted_ases > 0, "a 2-entry LRU must have evicted"

    def test_pin_all_preserves_identity(self):
        config = micro_config(1)
        lazy = LazyTopology(config)
        regions = lazy.regions  # pins
        assert lazy.pinned
        sample = random.Random(3).sample(regions, 20)
        for region in sample:
            assert lazy.region_for_net64(region.net64) is region

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_registry_answers_match_eager(self, seed):
        config = micro_config(seed)
        eager = build_topology(config)
        lazy = LazyTopology(config)
        assert len(lazy.registry) == len(eager.registry)
        assert lazy.registry.all_asns() == eager.registry.all_asns()
        assert lazy.registry.announced_prefixes() == eager.registry.announced_prefixes()
        for asn in eager.registry.all_asns():
            assert asn in lazy.registry
            assert lazy.registry.info(asn) == eager.registry.info(asn)
        assert 999_999_999 not in lazy.registry
        with pytest.raises(KeyError):
            lazy.registry.info(999_999_999)
        rng = random.Random(seed)
        addresses = [
            region.address_of(rng.getrandbits(16)) for region in eager.regions
        ] + [rng.getrandbits(128) for _ in range(100)]
        for address in addresses:
            assert lazy.registry.asn_of(address) == eager.registry.asn_of(address)
        assert lazy.registry.ases_of(addresses) == eager.registry.ases_of(addresses)
        assert lazy.registry.count_by_as(addresses) == eager.registry.count_by_as(
            addresses
        )
        assert lazy.registry.group_by_as(addresses) == eager.registry.group_by_as(
            addresses
        )

    def test_registry_header_queries_do_not_materialise_regions(self):
        config = InternetConfig.tiny()
        lazy = LazyTopology(config)
        for asn in lazy.registry.all_asns():
            lazy.registry.info(asn)
        assert lazy.materialized_ases == 0

    def test_registry_is_read_only(self):
        lazy = LazyTopology(micro_config())
        with pytest.raises(TypeError):
            lazy.registry.register(mega_isp_info(lazy.config))
        with pytest.raises(TypeError):
            lazy.registry.announce(None, 1)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_mega_run_matches_eager_tail(self, seed):
        config = micro_config(seed)
        eager = build_topology(config)
        lazy = LazyTopology(config)
        mega_tail = eager.regions[-config.mega_isp_regions :]
        assert all(r.asn == config.mega_isp_asn for r in mega_tail)
        for region in mega_tail:
            assert fingerprint(lazy.region_for_net64(region.net64)) == fingerprint(
                region
            )


def batch_world(seed: int = 9, **overrides):
    """A 12-AS world and batches of /64 lookups that overflow a 4-AS LRU.

    Each batch holds region /64s of more than four ASes, random /64s in
    allocated /32s, /64s in unallocated /32s and mega-ISP /64s (inside
    and outside its run), shuffled.
    """
    config = micro_config(seed, **overrides)
    eager = build_topology(config)
    rng = random.Random(seed)
    as_nets = [r.net64 for r in eager.regions if r.asn != config.mega_isp_asn]
    mega_nets = [r.net64 for r in eager.regions if r.asn == config.mega_isp_asn]
    unallocated = []
    while len(unallocated) < 6:
        net64 = rng.getrandbits(64)
        if rank_for_top32(config, net64 >> 32) is None:
            unallocated.append(net64)
    batches = []
    for _ in range(6):
        batch = rng.sample(as_nets, 24)
        batch += [
            (slash32_for_rank(config, rng.randrange(config.num_ases)) >> 64)
            | rng.getrandbits(32)
            for _ in range(8)
        ]
        batch += rng.sample(unallocated, 3)
        batch += rng.sample(mega_nets, 3) + [mega_nets[0] | 0xFF00]
        rng.shuffle(batch)
        batches.append(batch)
    return config, batches


class TestBatchResolution:
    """``regions_for_net64s`` ≡ per-/64 lookups, deriving each AS once."""

    def test_matches_point_lookups(self):
        config, batches = batch_world()
        reference = LazyTopology(config)
        lazy = LazyTopology(config, max_resident_ases=4)
        for batch in batches:
            ranks = {rank_for_top32(config, net64 >> 32) for net64 in batch} - {None}
            assert len(ranks) > 4, "the batch must overflow the 4-AS LRU"
            resident = set(lazy._as_cache)
            before = lazy.materialized_ases
            got = lazy.regions_for_net64s(batch)
            assert set(got) == set(batch)
            for net64 in batch:
                want = reference.region_for_net64(net64)
                if want is None:
                    assert got[net64] is None
                else:
                    assert fingerprint(got[net64]) == fingerprint(want)
            assert lazy.materialized_ases - before == len(ranks - resident)
            assert lazy.resident_ases <= 4

    def test_scan_derives_each_as_once_per_scan(self):
        """The grouped scan path resolves a batch in one call."""
        config, batches = batch_world(max_resident_ases=4)
        pinned = SimulatedInternet(config)
        pinned.regions
        squeezed = SimulatedInternet(config)
        rng = random.Random(4)
        for batch in batches:
            targets = [(net64 << 64) | rng.getrandbits(8) for net64 in batch]
            ranks = {rank_for_top32(config, net64 >> 32) for net64 in batch} - {None}
            resident = set(squeezed.topology._as_cache)
            before = squeezed.lazy_stats()["materialized_ases"]
            got = Scanner(squeezed).scan(targets, Port.ICMP)
            want = Scanner(pinned).scan(targets, Port.ICMP)
            assert got.hits == want.hits
            assert got.stats.responses == want.stats.responses
            materialized = squeezed.lazy_stats()["materialized_ases"] - before
            assert materialized == len(ranks - resident)
            assert squeezed.probe_batch(targets, Port.ICMP) == want.hits

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_batch_attribution_matches_per_address(self, seed, monkeypatch):
        config = micro_config(seed)
        eager = build_topology(config)
        registry = LazyTopology(config).registry
        rng = random.Random(seed)
        addresses = [region.address_of(rng.getrandbits(16)) for region in eager.regions]
        addresses += [
            slash32_for_rank(config, rng.randrange(config.num_ases)) | rng.getrandbits(96)
            for _ in range(50)
        ]
        addresses += [rng.getrandbits(128) for _ in range(50)]
        rng.shuffle(addresses)
        owners = [registry.asn_of(address) for address in addresses]
        expected_groups: dict[int, list[int]] = {}
        for address, asn in zip(addresses, owners):
            if asn is not None:
                expected_groups.setdefault(asn, []).append(address)
        expected_counts = Counter(asn for asn in owners if asn is not None)

        assert registry.ases_of(iter(addresses)) == set(expected_groups)
        counts = registry.count_by_as(iter(addresses))
        assert counts == expected_counts
        assert list(counts) == list(expected_counts), "first-seen order kept"
        groups = registry.group_by_as(iter(addresses))
        assert groups == expected_groups
        assert list(groups) == list(expected_groups), "first-seen order kept"

        # Each distinct /32 is resolved once per batch query.
        calls = Counter()
        real = topology.rank_for_top32

        def counting(config, top32):
            calls[top32] += 1
            return real(config, top32)

        monkeypatch.setattr(topology, "rank_for_top32", counting)
        for query in (registry.ases_of, registry.count_by_as, registry.group_by_as):
            calls.clear()
            query(addresses)
            assert max(calls.values()) == 1


class TestProbeEquivalence:
    """End-to-end: probing the lazy world ≡ probing the eager regions."""

    @pytest.mark.parametrize("seed", (0, 42))
    @pytest.mark.parametrize("epoch", (COLLECTION_EPOCH, SCAN_EPOCH))
    def test_probe_batch_matches_eager_regions(self, seed, epoch):
        config = micro_config(seed)
        eager = build_topology(config)
        internet = SimulatedInternet(config)
        rng = random.Random(seed)
        targets = []
        expected = set()
        for region in eager.regions:
            group = [region.address_of(rng.getrandbits(10)) for _ in range(4)]
            group.extend(region.address_of(iid) for iid in list(region.active_iids())[:4])
            targets.extend(group)
            expected |= region.respond_batch(group, Port.ICMP, epoch)
        targets.extend(rng.getrandbits(128) for _ in range(64))  # unallocated
        assert internet.probe_batch(targets, Port.ICMP, epoch) == expected

    def test_vector_and_scalar_paths_agree_on_lazy_world(self):
        config = micro_config(3)
        rng = random.Random(3)
        vec = SimulatedInternet(config)
        targets = [
            region.address_of(rng.getrandbits(12))
            for region in vec.iter_regions()
            for _ in range(3)
        ]
        with use_vectorized(False):
            scalar = SimulatedInternet(config)
            scalar_hits = {
                port: scalar.probe_batch(targets, port) for port in ALL_PORTS
            }
        for port in ALL_PORTS:
            assert vec.probe_batch(targets, port) == scalar_hits[port]

    def test_eviction_pressure_does_not_change_probes(self):
        """Grouped probing under a 2-AS LRU ≡ probing the pinned world.

        The resident-AS cap keeps the packed tables off so the probe
        path exercises region materialisation and eviction.
        """
        config = micro_config(5, max_resident_ases=2)
        pinned = SimulatedInternet(config)
        pinned.regions  # pin everything up front
        rng = random.Random(5)
        targets = [
            region.address_of(rng.getrandbits(12))
            for region in pinned.regions
            for _ in range(3)
        ]
        # Fresh world with a tiny resident budget, probed in two passes
        # and two orders: evictions and re-derivations must be invisible.
        squeezed = SimulatedInternet(config)
        shuffled = targets[:]
        rng.shuffle(shuffled)
        for port in (Port.ICMP, Port.TCP443):
            want = pinned.probe_batch(targets, port)
            assert squeezed.probe_batch(shuffled, port) == want
            assert squeezed.probe_batch(targets, port) == want
        assert squeezed.topology.evicted_ases > 0


class TestResidencyCap:
    """A resident-AS cap holds on every probe path, whatever the batch size."""

    def test_large_batches_never_pin_a_capped_world(self):
        uncapped = SimulatedInternet(InternetConfig.tiny())
        capped = SimulatedInternet(replace(InternetConfig.tiny(), max_resident_ases=4))
        rng = random.Random(13)
        regions = [
            region
            for region in build_topology(InternetConfig.tiny()).regions
            if not region.aliased
        ]
        targets = []
        for region in rng.sample(regions, 50):
            targets.extend(region.address_of(iid) for iid in sorted(region.active_iids())[:1])
            targets.append(region.address_of(rng.getrandbits(16)))
        assert len(targets) >= 64, "large enough for the packed path"
        want = Scanner(uncapped).scan(targets, Port.ICMP)
        assert want.hits

        got = Scanner(capped).scan(targets, Port.ICMP)
        assert got.hits == want.hits
        assert got.stats.responses == want.stats.responses
        assert not capped.topology.pinned
        assert capped.topology.resident_ases <= 4

        assert capped.probe_batch(targets, Port.ICMP) == want.hits
        assert not capped.topology.pinned
        assert capped.topology.resident_ases <= 4


class TestStreamingConsumers:
    def test_summary_does_not_pin(self):
        internet = SimulatedInternet(micro_config())
        summary = internet.summary()
        assert not internet.topology.pinned
        assert summary == internet.describe()
        assert summary["regions"] > 0
        assert summary["ases"] == internet.config.num_ases + 1

    def test_summary_matches_pinned_counts(self):
        internet = SimulatedInternet(micro_config(11))
        summary = internet.summary()
        regions = internet.regions  # now pin and recount eagerly
        assert summary["regions"] == len(regions)
        assert summary["aliased_regions"] == sum(1 for r in regions if r.aliased)
        assert summary["firewalled_regions"] == sum(1 for r in regions if r.firewalled)
        assert summary["retired_regions"] == sum(1 for r in regions if r.retired)
        assert summary["pattern_active_addresses"] == sum(
            r.density for r in regions if not r.aliased
        )


class TestMemoryBudget:
    """Loud regression gate against reintroducing an eager walk."""

    @pytest.mark.membudget
    def test_internet_scale_stays_within_budget(self):
        import tracemalloc

        config = InternetConfig.internet()
        assert config.num_ases == 1_000_000
        tracemalloc.start()
        try:
            topology = LazyTopology(config)
            internet = SimulatedInternet(config)
            rng = random.Random(2024)
            # Touch a sparse sample spread across the whole rank space,
            # resolving each through the public net64 index.
            for rank in rng.sample(range(config.num_ases), 2_000):
                net64 = slash32_for_rank(config, rank) >> 64
                topology.region_for_net64(net64)
                assert internet.asn_of(net64 << 64) == asn_for_rank(config, rank)
            # And a slice of the mega run.
            mega_top32 = 0x2A01_0E00
            for index in range(0, config.mega_isp_regions, 1_000):
                net64 = (mega_top32 << 32) | ((index // 0x100) << 16) | (index % 0x100)
                assert topology.region_for_net64(net64) is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = topology.lazy_stats()
        assert stats["resident_ases"] <= config.max_resident_ases
        assert stats["materialized_ases"] >= stats["resident_ases"]
        assert stats["evicted_ases"] == stats["materialized_ases"] - stats["resident_ases"]
        budget_bytes = config.memory_budget_mb * 1024 * 1024
        assert peak < budget_bytes, (
            f"peak heap {peak / 1e6:.1f}MB exceeds the "
            f"{config.memory_budget_mb}MB budget — did an eager walk sneak in?"
        )

    @pytest.mark.membudget
    def test_internet_scale_probe_path_stays_lazy(self):
        config = InternetConfig.internet()
        internet = SimulatedInternet(config)
        assert not internet.vector_tables_allowed
        with pytest.raises(RuntimeError, match="probe tables disabled"):
            internet.probe_tables()
        rng = random.Random(7)
        targets = []
        for rank in rng.sample(range(config.num_ases), 64):
            net64 = slash32_for_rank(config, rank) >> 64
            targets.extend((net64 << 64) | rng.getrandbits(16) for _ in range(4))
        hits = internet.probe_batch(targets, Port.ICMP)
        assert hits <= set(targets)
        assert not internet.topology.pinned
        assert internet.lazy_stats()["resident_ases"] <= config.max_resident_ases
