"""Bit-identity of the probe kernel and every other batch kernel.

Every batch kernel must reproduce its scalar definition element for
element — not approximately, not statistically: the same bits.  The
scanner answers every batch with one kernel, ``_ProbeTables.hit_mask``,
over tables whose scope the world chooses, so each scope is pinned here
through its input: the world-wide table of an uncapped world, the
batch-scoped tables of the same world's capped twin (a resident-AS cap
that evicts nothing), and per-address :meth:`SimulatedInternet.probe`
as the scalar reference.  The sweep covers the kernels, the region
respond chain (firewalled / retired / aliased-with-retries / churned
regions, in batches of every size), IID generation, forced key
collisions, scan stats and telemetry, and a full experiment grid.
Formulations that no longer exist in the library live here as small
scalar oracles.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.addr import (
    ADDRESS_NYBBLES,
    PackedAddresses,
    Prefix,
    coin,
    coin_batch,
    get_nybble,
    hash64,
    hash64_batch,
    mix64,
    mix64_batch,
    to_nybbles,
    uniform,
    uniform_batch,
)
from repro.addr.nybbles import nybble_matrix_from_bytes
from repro.internet import ALL_PORTS, InternetConfig, Port, SimulatedInternet
from repro.internet.model import _ProbeTables
from repro.internet.patterns import (
    _SALT_EUI,
    _SALT_LOW,
    _SALT_RANDOM,
    _SALT_WORDY,
    COMMON_OUIS,
    IID_VOCABULARY,
    PatternKind,
    generate_iids,
)
from repro.internet.ports import PortProfile
from repro.internet.regions import (
    _SALT_CHURN,
    _SALT_PORT,
    SCAN_EPOCH,
    Region,
    RegionRole,
)
from repro.scanner import Blocklist, Scanner
from repro.tga.spacetree import seed_bytes

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _rng(salt: int = 0) -> random.Random:
    return random.Random(0xC0FFEE ^ salt)


def _capped_twin(config: InternetConfig) -> InternetConfig:
    """``config`` with a resident-AS cap that holds every AS (the mega
    ISP included): nothing is evicted, but the world never builds its
    world-wide probe table, so every batch is answered from a table
    over just that batch's regions."""
    return replace(config, max_resident_ases=config.num_ases + 1)


# -- randomness kernels ------------------------------------------------------


class TestRandKernels:
    def test_mix64_batch_matches_scalar(self):
        rng = _rng(1)
        values = [rng.getrandbits(64) for _ in range(4096)]
        values += [0, 1, 2**63, _MASK64]
        batch = mix64_batch(np.array(values, dtype=np.uint64))
        assert batch.tolist() == [mix64(v) for v in values]

    def test_hash64_batch_single_lane(self):
        rng = _rng(2)
        lane = [rng.getrandbits(64) for _ in range(2048)]
        batch = hash64_batch(np.array(lane, dtype=np.uint64))
        assert batch.tolist() == [hash64(v) for v in lane]

    def test_hash64_batch_mixed_scalar_and_array_parts(self):
        rng = _rng(3)
        lane = [rng.getrandbits(64) for _ in range(512)]
        arr = np.array(lane, dtype=np.uint64)
        # Scalar parts before, between and after array lanes.
        batch = hash64_batch(7, arr, 0x22, arr, 3)
        assert batch.tolist() == [hash64(7, v, 0x22, v, 3) for v in lane]

    def test_hash64_batch_folds_wide_scalar_parts(self):
        rng = _rng(4)
        lane = [rng.getrandbits(64) for _ in range(256)]
        wide = rng.getrandbits(128)  # folded 64 bits at a time
        arr = np.array(lane, dtype=np.uint64)
        assert hash64_batch(wide, arr).tolist() == [hash64(wide, v) for v in lane]
        assert hash64_batch(arr, wide).tolist() == [hash64(v, wide) for v in lane]

    def test_hash64_batch_scalar_only_matches(self):
        assert int(hash64_batch(1, 2, 3)) == hash64(1, 2, 3)

    def test_hash64_batch_rejects_negative(self):
        with pytest.raises(ValueError):
            hash64_batch(-1, np.zeros(2, dtype=np.uint64))

    def test_uniform_batch_bitwise(self):
        rng = _rng(5)
        lane = [rng.getrandbits(64) for _ in range(2048)]
        arr = np.array(lane, dtype=np.uint64)
        # float64 equality is exact: same int -> double conversion.
        assert uniform_batch(9, arr).tolist() == [uniform(9, v) for v in lane]

    @pytest.mark.parametrize("p", [-0.5, 0.0, 1e-12, 0.35, 0.999999, 1.0, 1.5])
    def test_coin_batch_all_probability_regimes(self, p):
        rng = _rng(6)
        lane = [rng.getrandbits(64) for _ in range(1024)]
        arr = np.array(lane, dtype=np.uint64)
        assert coin_batch(p, 11, arr).tolist() == [coin(p, 11, v) for v in lane]

    def test_coin_batch_per_element_probabilities(self):
        rng = _rng(7)
        lane = [rng.getrandbits(64) for _ in range(512)]
        probs = [rng.random() for _ in range(512)]
        arr = np.array(lane, dtype=np.uint64)
        parr = np.array(probs, dtype=np.float64)
        assert coin_batch(parr, 5, arr).tolist() == [
            coin(p, 5, v) for p, v in zip(probs, lane)
        ]


# -- nybble kernels ----------------------------------------------------------


class TestNybbleKernels:
    def _addresses(self, n: int = 500) -> list[int]:
        rng = _rng(8)
        out = [rng.getrandbits(128) for _ in range(n)]
        out += [0, 1, (1 << 128) - 1, 0x20010DB8 << 96]
        return out

    def test_to_nybble_matrix_row_for_row(self):
        addresses = self._addresses()
        data = np.frombuffer(seed_bytes(addresses), dtype=np.uint8)
        matrix = nybble_matrix_from_bytes(data.reshape(-1, 16))
        assert matrix.shape == (len(addresses), ADDRESS_NYBBLES)
        for row, address in zip(matrix.tolist(), addresses):
            assert row == to_nybbles(address)


# -- packed addresses --------------------------------------------------------


class TestPackedAddresses:
    def test_round_trip_and_iteration(self):
        rng = _rng(10)
        addresses = [rng.getrandbits(128) for _ in range(100)]
        packed = PackedAddresses.from_addresses(addresses)
        assert len(packed) == 100
        assert packed.to_addresses() == addresses
        assert list(packed) == addresses

    def test_scalar_paths_accept_packed_input(self, internet, tiny_config):
        """Both table scopes take packed input."""
        targets = [region.address_of(1) for region in internet.regions[:80]]
        packed = PackedAddresses.from_addresses(targets)
        scanner = Scanner(SimulatedInternet(_capped_twin(tiny_config)))
        capped = scanner.scan(packed, Port.ICMP).hits
        assert capped == scanner.scan(list(targets), Port.ICMP).hits
        assert capped == Scanner(internet).scan(packed, Port.ICMP).hits
        assert capped == {a for a in targets if internet.probe(a, Port.ICMP)}


# -- IID generation ----------------------------------------------------------


def _scalar_iids(kind: PatternKind, count: int, salt: int) -> frozenset[int]:
    """Scalar oracle of :func:`generate_iids`: one ``hash64`` per IID."""
    if count <= 0:
        return frozenset()
    if kind is PatternKind.LOW:
        start = (1, 1, 1, 0x10, 0x100)[hash64(salt, _SALT_LOW) % 5]
        return frozenset(range(start, start + count))
    if kind is PatternKind.WORDY:
        picked: set[int] = set()
        index = 0
        while len(picked) < min(count, len(IID_VOCABULARY)):
            picked.add(
                IID_VOCABULARY[hash64(salt, _SALT_WORDY, index) % len(IID_VOCABULARY)]
            )
            index += 1
            if index > 16 * len(IID_VOCABULARY):
                break
        return frozenset(picked)
    if kind is PatternKind.EUI64:
        # OUI with the universal/local bit flipped, 0xFFFE, 24-bit NIC.
        oui = COMMON_OUIS[hash64(salt, _SALT_EUI) % len(COMMON_OUIS)]
        base = hash64(salt, _SALT_EUI, 1) & 0xFF_F000
        return frozenset(
            ((oui ^ 0x020000) << 40)
            | (0xFF_FE << 24)
            | ((base + (hash64(salt, _SALT_EUI, 2, i) & 0xFFF)) & 0xFF_FFFF)
            for i in range(count)
        )
    return frozenset(hash64(salt, _SALT_RANDOM, i) for i in range(count))


class TestGenerateIIDsParity:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_build_iids_identical_across_paths(self, kind):
        for count in (0, 1, 7, 64, 300):
            for salt in (1, 99, 0xDEADBEEF, 2**63 + 17):
                assert generate_iids.__wrapped__(kind, count, salt) == _scalar_iids(
                    kind, count, salt
                ), (kind, count, salt)

    def test_wordy_every_count_over_many_salts(self):
        """WORDY sets of 1–40 words (past the vocabulary's 32) hold the
        draw-by-draw loop's words and iterate in its order, which orders
        a region's responsive IIDs."""
        rng = _rng(19)
        salts = [rng.getrandbits(64) for _ in range(150)] + [0, 1, 2**64 - 1]
        for salt in salts:
            for count in range(1, 41):
                built = generate_iids.__wrapped__(PatternKind.WORDY, count, salt)
                oracle = _scalar_iids(PatternKind.WORDY, count, salt)
                assert list(built) == list(oracle), (count, salt)


# -- region respond chain ----------------------------------------------------


def _region_variants() -> list[Region]:
    profile = PortProfile(icmp=0.7, tcp80=0.5, udp53=0.0)
    variants = [
        dict(),
        dict(firewalled=True),
        dict(retired=True),
        dict(churn_rate=0.4),
        dict(churn_rate=0.4, density=5),
        dict(aliased=True, alias_response_prob=0.35),
        dict(aliased=True, alias_response_prob=1.0),
        dict(aliased=True, alias_response_prob=0.0),
    ]
    return [
        Region(
            net64=0x2001_0DB8_0000_0000 + index,
            asn=64500,
            role=RegionRole.SERVER,
            pattern=PatternKind.RANDOM,
            profile=profile,
            salt=9000 + index,
            **{"density": 150, **kwargs},
        )
        for index, kwargs in enumerate(variants)
    ]


def _fresh(region: Region) -> Region:
    fields = (
        "net64",
        "asn",
        "role",
        "pattern",
        "density",
        "profile",
        "churn_rate",
        "retired",
        "firewalled",
        "aliased",
        "alias_response_prob",
        "salt",
    )
    return Region(**{name: getattr(region, name) for name in fields})


def _scalar_responsive(region: Region, port: Port, epoch: int) -> frozenset[int]:
    """Scalar oracle of :meth:`Region.responsive_iids`: per-IID churn
    coins (compounding across epochs) and port-service coins."""
    if region.firewalled or (region.retired and epoch >= SCAN_EPOCH):
        return frozenset()
    probability = region.profile.probability(port)
    survivors = set()
    for iid in region.active_iids():
        if epoch >= SCAN_EPOCH and (
            coin(region.churn_rate, region.salt, _SALT_CHURN, iid)
            or any(
                coin(region.churn_rate, region.salt, _SALT_CHURN, later, iid)
                for later in range(SCAN_EPOCH + 1, epoch + 1)
            )
        ):
            continue
        if coin(probability, region.salt, _SALT_PORT, port.index, iid):
            survivors.add(iid)
    return frozenset(survivors)


class TestRegionRespondParity:
    @pytest.mark.parametrize("epoch", [0, 1, 3])
    @pytest.mark.parametrize("attempt", [0, 2])
    def test_respond_batch_sweep(self, epoch, attempt):
        """The probe kernel over a one-region table, on the whole pool
        and on chunks of 1, 7, 8 and 40 addresses, equals per-address
        :meth:`Region.responds`."""
        rng = _rng(11)
        for region in _region_variants():
            pool = [region.address_of(iid) for iid in sorted(region.active_iids())]
            pool += [region.address_of(rng.getrandbits(64)) for _ in range(150)]
            rng.shuffle(pool)
            for port in (Port.ICMP, Port.TCP80, Port.UDP53):
                single_region = _fresh(region)
                singles = {
                    address
                    for address in pool
                    if single_region.responds(address, port, epoch, attempt)
                }
                for size in (1, 7, 8, 40, len(pool)):
                    tables = _ProbeTables([_fresh(region)])
                    chunked = set()
                    for start in range(0, len(pool), size):
                        chunk = PackedAddresses.from_addresses(
                            pool[start : start + size]
                        )
                        hits, _, _ = tables.hit_mask(
                            chunk.prefix64, chunk.iid64, port, epoch, attempt
                        )
                        chunked.update(
                            address for address, hit in zip(chunk, hits.tolist()) if hit
                        )
                    assert chunked == singles, (
                        region.net64, port, epoch, attempt, size
                    )

    def test_responsive_iids_vector_build_matches(self):
        for region in _region_variants():
            if region.aliased:
                continue
            for epoch in (0, 1, 2):
                for port in (Port.ICMP, Port.TCP80, Port.UDP53):
                    assert _fresh(region).responsive_iids(
                        port, epoch
                    ) == _scalar_responsive(region, port, epoch), (region, epoch)


def _assert_members_match_scalar(tables: _ProbeTables) -> None:
    """Every member table of ``tables`` at epochs 0–3 on all four ports
    holds exactly the ``(net64, iid)`` pairs of the scalar responsive
    sets of its regions, and building them fills no region's own
    responsive-set cache."""
    assert not any(region._responsive for region in tables.regions)
    for epoch in range(4):
        for port in ALL_PORTS:
            _, nets, iids, _ = tables.member_table(port, epoch)
            pairs = list(zip(nets.tolist(), iids.tolist()))
            expected = {
                (region.net64, iid)
                for region in tables.regions
                for iid in _scalar_responsive(region, port, epoch)
            }
            assert len(pairs) == len(set(pairs)) == len(expected), (port, epoch)
            assert set(pairs) == expected, (port, epoch)
    assert not any(region._responsive for region in tables.regions)


class TestMemberTableParity:
    """A member table is built from its regions' columns in one kernel
    call; its pairs must be the union of the per-region scalar sets."""

    def test_region_variants_in_one_table(self):
        _assert_members_match_scalar(
            _ProbeTables([_fresh(region) for region in _region_variants()])
        )

    @pytest.mark.parametrize("seed", [42, 7, 2024])
    def test_world_table(self, seed):
        internet = SimulatedInternet(InternetConfig.tiny(master_seed=seed))
        # An uncapped world answers every batch from its world-wide table.
        _assert_members_match_scalar(
            internet.probe_tables(np.zeros(0, dtype=np.uint64))
        )

    def test_capped_batch_tables(self, tiny_config):
        """Batch tables of the capped twin over shuffled chunks of the
        world's /64s, with unrouted /64s mixed in."""
        rng = _rng(20)
        nets = [region.net64 for region in SimulatedInternet(tiny_config).regions]
        nets += [rng.getrandbits(64) for _ in range(200)]
        rng.shuffle(nets)
        capped = SimulatedInternet(_capped_twin(tiny_config))
        for start in range(0, len(nets), 400):
            tables = capped.probe_tables(
                np.array(nets[start : start + 400], dtype=np.uint64)
            )
            assert tables.regions
            _assert_members_match_scalar(tables)
        assert capped._probe_tables is None


# -- blocklist ---------------------------------------------------------------


class TestBlocklistMask:
    def test_blocked_mask_matches_is_blocked(self):
        rng = _rng(12)
        blocklist = Blocklist()
        blocklist.add(Prefix.parse("2001:db8::/32"))
        blocklist.add(Prefix(0x3FFF << 112, 64))
        blocklist.add(Prefix(0x2001_0DB8_0000_1234 << 64, 96))
        blocklist.add(Prefix((0x2001_0DB8_0000_5678 << 64) | (0xABCD << 48), 128))
        pool = [rng.getrandbits(128) for _ in range(500)]
        for prefix in blocklist.prefixes():
            base = prefix.value
            pool.append(base)
            pool.append(base | ((1 << (128 - prefix.length)) - 1))
            if prefix.length:
                pool.append(base ^ (1 << (128 - prefix.length)))  # just outside
        packed = PackedAddresses.from_addresses(pool)
        mask = blocklist.blocked_mask(packed.prefix64, packed.iid64)
        assert mask.tolist() == [blocklist.is_blocked(address) for address in pool]


# -- probe chain end to end --------------------------------------------------


def _scan_figures(snapshot: dict) -> dict:
    """The ``scan.*`` counters and histograms of a telemetry snapshot."""
    return {
        kind: {
            name: value
            for name, value in snapshot[kind].items()
            if name.startswith("scan.")
        }
        for kind in ("counters", "histograms")
    }


class TestProbeChainParity:
    def _pool(self, internet, rng, size=4000):
        pool = []
        regions = internet.regions
        for _ in range(size // 2):
            region = regions[rng.randrange(len(regions))]
            pool.append((region.net64 << 64) | rng.getrandbits(64))
        responsive = list(internet.iter_responsive(Port.ICMP))
        for _ in range(size // 4):
            pool.append(responsive[rng.randrange(len(responsive))])
        for _ in range(size // 4):
            pool.append(rng.getrandbits(128))
        pool += pool[: size // 8]  # duplicates must not change anything
        rng.shuffle(pool)
        return pool

    def test_probe_batch_matches_scalar_and_probe(self, tiny_config):
        rng = _rng(13)
        reference = SimulatedInternet(tiny_config)
        pool = self._pool(reference, rng)
        singles = {a for a in pool if reference.probe(a, Port.ICMP)}
        capped = SimulatedInternet(_capped_twin(tiny_config))
        batch_scoped = Scanner(capped).scan(pool, Port.ICMP).hits
        scanner = Scanner(SimulatedInternet(tiny_config))
        world_wide = scanner.scan(pool, Port.ICMP).hits
        packed_input = scanner.scan(
            PackedAddresses.from_addresses(pool), Port.ICMP
        ).hits
        assert capped._probe_tables is None
        assert scanner.internet._probe_tables is not None
        assert batch_scoped == singles
        assert world_wide == packed_input == singles

    def test_forced_key_collisions_stay_exact(self, tiny_config, monkeypatch):
        """Membership keys cut to their low 8 bits make almost every key
        shared, so hits rest on the exact re-check of tied keys against
        the owning region's IID set, in both table scopes."""
        import repro.internet.model as model

        rng = _rng(18)
        reference = SimulatedInternet(tiny_config)
        pool = self._pool(reference, rng)
        singles = {a for a in pool if reference.probe(a, Port.ICMP)}
        real = model.hash64_batch
        monkeypatch.setattr(
            model, "hash64_batch", lambda *parts: real(*parts) & np.uint64(0xFF)
        )
        uncapped = SimulatedInternet(tiny_config)
        capped = SimulatedInternet(_capped_twin(tiny_config))
        assert Scanner(uncapped).scan(pool, Port.ICMP).hits == singles
        assert Scanner(capped).scan(pool, Port.ICMP).hits == singles
        tied = uncapped._probe_tables.member_table(Port.ICMP, SCAN_EPOCH)[3]
        assert len(tied) == 256
        assert len(singles) > 500

    @pytest.mark.parametrize("blocked", [True, False])
    def test_scan_results_and_stats_identical(self, tiny_config, blocked):
        """Both table scopes give the same hits and stats, with and
        without a blocklist (an empty one masks nothing)."""
        rng = _rng(14)
        reference = SimulatedInternet(tiny_config)
        blocklist = Blocklist()
        if blocked:
            blocklist.add(reference.regions[3].prefix)
            blocklist.add(Prefix(reference.regions[11].net64 << 64, 80))
        pool = self._pool(reference, rng)

        def scan(config, targets):
            scanner = Scanner(SimulatedInternet(config), blocklist=blocklist)
            return scanner.scan(targets, Port.ICMP)

        capped = scan(_capped_twin(tiny_config), list(pool))
        uncapped = scan(tiny_config, list(pool))
        packed_input = scan(tiny_config, PackedAddresses.from_addresses(pool))
        assert (capped.stats.targets_blocked > 0) is blocked
        for other in (uncapped, packed_input):
            assert capped.hits == other.hits
            assert capped.stats.responses == other.stats.responses
            assert capped.stats.probes_sent == other.stats.probes_sent
            assert capped.stats.targets_blocked == other.stats.targets_blocked
            assert capped.stats.virtual_duration == other.stats.virtual_duration

    @staticmethod
    def _traced_scans(config, pool, ports):
        from repro.telemetry import MemorySink, Telemetry, use_telemetry

        telemetry = Telemetry([MemorySink()])
        with use_telemetry(telemetry):
            scanner = Scanner(SimulatedInternet(config))
            results = [scanner.scan(list(pool), port) for port in ports]
        return results, _scan_figures(telemetry.snapshot())

    def test_scan_telemetry_snapshot_identical(self, tiny_config):
        pool = self._pool(SimulatedInternet(tiny_config), _rng(15))
        _, batch_scoped = self._traced_scans(_capped_twin(tiny_config), pool, ALL_PORTS)
        _, world_wide = self._traced_scans(tiny_config, pool, ALL_PORTS)
        assert batch_scoped["counters"]["scan.calls"] == len(ALL_PORTS)
        assert batch_scoped == world_wide

    def test_hit_heavy_batch_matches_grouped(self, tiny_config):
        """Over 65,536 hit rows: the scan dedupes hits in numpy."""
        rng = _rng(17)
        responsive = list(SimulatedInternet(tiny_config).iter_responsive(Port.ICMP))
        pool = [responsive[rng.randrange(len(responsive))] for _ in range(70_000)]
        pool += [rng.getrandbits(128) for _ in range(2_000)]
        rng.shuffle(pool)
        (batch_scoped,), batch_scoped_tel = self._traced_scans(
            _capped_twin(tiny_config), pool, [Port.ICMP]
        )
        (world_wide,), world_wide_tel = self._traced_scans(
            tiny_config, pool, [Port.ICMP]
        )
        assert sum(1 for address in pool if address in world_wide.hits) > 65_536
        assert world_wide.hits == batch_scoped.hits
        assert world_wide.stats.responses == batch_scoped.stats.responses
        assert world_wide.stats.probes_sent == batch_scoped.stats.probes_sent
        assert world_wide.stats.probes_sent == sum(world_wide.stats.responses.values())
        assert world_wide_tel == batch_scoped_tel

    def test_repeated_hit_counts_every_probe(self, tiny_config):
        """A batch listing one responsive address 80 times gets 80 echo
        replies in both table scopes, as 80 single probes do."""
        from repro.scanner import ResponseType

        hit = next(SimulatedInternet(tiny_config).iter_responsive(Port.ICMP))
        single = Scanner(SimulatedInternet(tiny_config))
        for _ in range(80):
            single.probe(hit, Port.ICMP)
        expected = single.lifetime_stats
        assert expected.count(ResponseType.ECHO_REPLY) == 80
        for config in (tiny_config, _capped_twin(tiny_config)):
            scanner = Scanner(SimulatedInternet(config))
            result = scanner.scan([hit, hit] * 40, Port.ICMP)
            assert result.hits == {hit}
            assert result.stats.probes_sent == expected.probes_sent == 80
            assert result.stats.responses == expected.responses
            assert scanner.lifetime_stats.responses == expected.responses


# -- full grid ---------------------------------------------------------------


class TestGridParity:
    def test_small_grid_identical_vector_on_off(self, tiny_config):
        """The grid on the capped twin (batch-scoped tables) equals the
        grid on the uncapped world (one world-wide table)."""
        from repro.experiments import GridSpec, Study, run_grid

        def run(config):
            study = Study(
                internet=SimulatedInternet(config),
                budget=600,
                round_size=200,
            )
            spec = GridSpec(
                datasets=(study.constructions.all_active,),
                tga_names=("det", "eip"),
                ports=(Port.ICMP,),
            )
            return run_grid(study, spec)

        batch_scoped = run(_capped_twin(tiny_config))
        world_wide = run(tiny_config)
        assert batch_scoped.runs.keys() == world_wide.runs.keys()
        for key in batch_scoped.runs:
            a, b = batch_scoped.runs[key], world_wide.runs[key]
            assert a.clean_hits == b.clean_hits, key
            assert a.aliased_hits == b.aliased_hits, key
            assert a.generated == b.generated, key
            assert a.probes_sent == b.probes_sent, key
            assert a.metrics == b.metrics, key
            assert a.round_history == b.round_history, key


# -- TGA histogram routing ---------------------------------------------------


def _nybble_entropy(seeds: list[int], dim: int) -> float:
    """Scalar oracle: one nybble column counted in a ``Counter``, terms
    summed in its insertion (first-seen) order."""
    counts = Counter(get_nybble(seed, dim) for seed in seeds)
    total = len(seeds)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


class TestTgaParity:
    def _seeds(self) -> list[int]:
        rng = _rng(16)
        seeds = []
        for _ in range(30):
            net = (0x20010DB8 << 96) | (rng.getrandbits(8) << 64)
            for index in range(rng.randrange(4, 90)):
                style = rng.random()
                if style < 0.4:
                    seeds.append(net | (index + 1))
                elif style < 0.7:
                    seeds.append(net | (0xCAFE0000 + rng.getrandbits(8)))
                else:
                    seeds.append(net | rng.getrandbits(64))
        seeds = list(dict.fromkeys(seeds))
        rng.shuffle(seeds)
        return seeds

    def test_entropy_profile_bitwise(self):
        from repro.tga.entropy_ip import _entropy_profile

        seeds = self._seeds()
        expected = [_nybble_entropy(seeds, dim) for dim in range(ADDRESS_NYBBLES)]
        assert _entropy_profile(seeds) == expected
