"""Scalar ≡ vectorized bit-identity contract.

Every batch kernel in the vectorized core must reproduce its scalar
reference element for element — not approximately, not statistically:
the same bits.  These tests sweep the kernels, the probe chain (across
firewalled / retired / aliased-with-retries / churned regions), the
IID generators, the TGA histogram paths and a full experiment grid
with the core forced on and off.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.addr import (
    ADDRESS_NYBBLES,
    PackedAddresses,
    Prefix,
    coin,
    coin_batch,
    common_prefix_len,
    common_prefix_len_matrix,
    first_seen_values,
    get_nybble,
    hash64,
    hash64_batch,
    mix64,
    mix64_batch,
    nybble_counts,
    nybble_counts_matrix,
    to_nybble_matrix,
    to_nybbles,
    uniform,
    uniform_batch,
    use_vectorized,
    vector_enabled,
)
from repro.internet import ALL_PORTS, InternetConfig, Port, SimulatedInternet
from repro.internet.patterns import PatternKind, _build_iids
from repro.internet.ports import PortProfile
from repro.internet.regions import Region, RegionRole
from repro.scanner import Blocklist, Scanner

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _rng(salt: int = 0) -> random.Random:
    return random.Random(0xC0FFEE ^ salt)


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
        packed = PackedAddresses.from_addresses(addresses)
        matrix = to_nybble_matrix(packed.prefix64, packed.iid64)
        assert matrix.shape == (len(addresses), ADDRESS_NYBBLES)
        for row, address in zip(matrix.tolist(), addresses):
            assert row == to_nybbles(address)

    def test_nybble_counts_matrix_matches_scalar(self):
        addresses = self._addresses()
        packed = PackedAddresses.from_addresses(addresses)
        counts = nybble_counts_matrix(to_nybble_matrix(packed.prefix64, packed.iid64))
        for index in range(ADDRESS_NYBBLES):
            assert counts[index].tolist() == nybble_counts(addresses, index)

    def test_common_prefix_len_matrix(self):
        a = 0x20010DB8_00000000_00000000_00000001
        b = 0x20010DB8_00000000_00000000_0000FFFF
        packed = PackedAddresses.from_addresses([a, b])
        matrix = to_nybble_matrix(packed.prefix64, packed.iid64)
        assert common_prefix_len_matrix(matrix) == common_prefix_len(a, b)
        same = PackedAddresses.from_addresses([a, a, a])
        assert (
            common_prefix_len_matrix(to_nybble_matrix(same.prefix64, same.iid64))
            == ADDRESS_NYBBLES
        )
        single = PackedAddresses.from_addresses([a])
        assert (
            common_prefix_len_matrix(to_nybble_matrix(single.prefix64, single.iid64))
            == ADDRESS_NYBBLES
        )

    def test_first_seen_values_matches_counter_order(self):
        from collections import Counter

        rng = _rng(9)
        column = np.array([rng.randrange(16) for _ in range(300)], dtype=np.uint8)
        expected = list(Counter(column.tolist()).keys())
        assert first_seen_values(column).tolist() == expected


# -- packed addresses --------------------------------------------------------


class TestPackedAddresses:
    def test_round_trip_and_iteration(self):
        rng = _rng(10)
        addresses = [rng.getrandbits(128) for _ in range(100)]
        packed = PackedAddresses.from_addresses(addresses)
        assert len(packed) == 100
        assert packed.to_addresses() == addresses
        assert list(packed) == addresses

    def test_scalar_paths_accept_packed_input(self, internet):
        # Iteration yields plain ints, so the scalar scan path works.
        targets = [region.address_of(1) for region in internet.regions[:80]]
        packed = PackedAddresses.from_addresses(targets)
        with use_vectorized(False):
            scanner = Scanner(internet)
            assert scanner.scan(packed, Port.ICMP).hits == scanner.scan(
                list(targets), Port.ICMP
            ).hits


# -- IID generation ----------------------------------------------------------


class TestGenerateIIDsParity:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_build_iids_identical_across_paths(self, kind):
        for count in (0, 1, 7, 64, 300):
            for salt in (1, 99, 0xDEADBEEF, 2**63 + 17):
                assert _build_iids(kind, count, salt, False) == _build_iids(
                    kind, count, salt, True
                ), (kind, count, salt)


# -- region respond chain ----------------------------------------------------


def _region_variants() -> list[Region]:
    profile = PortProfile(icmp=0.7, tcp80=0.5, udp53=0.0)
    variants = [
        dict(),
        dict(firewalled=True),
        dict(retired=True),
        dict(churn_rate=0.4),
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
            density=150,
            profile=profile,
            salt=9000 + index,
            **kwargs,
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


class TestRegionRespondParity:
    @pytest.mark.parametrize("epoch", [0, 1, 3])
    @pytest.mark.parametrize("attempt", [0, 2])
    def test_respond_batch_sweep(self, epoch, attempt):
        rng = _rng(11)
        for region in _region_variants():
            pool = [region.address_of(iid) for iid in sorted(region.active_iids())]
            pool += [region.address_of(rng.getrandbits(64)) for _ in range(150)]
            rng.shuffle(pool)
            for port in (Port.ICMP, Port.TCP80, Port.UDP53):
                scalar_region = _fresh(region)
                vector_region = _fresh(region)
                with use_vectorized(False):
                    scalar = scalar_region.respond_batch(pool, port, epoch, attempt)
                    singles = {
                        address
                        for address in pool
                        if scalar_region.responds(address, port, epoch, attempt)
                    }
                with use_vectorized(True):
                    vector = vector_region.respond_batch(pool, port, epoch, attempt)
                assert scalar == singles
                assert scalar == vector, (region.net64, port, epoch, attempt)

    def test_responsive_iids_vector_build_matches(self):
        for region in _region_variants():
            if region.aliased:
                continue
            for epoch in (0, 1, 2):
                with use_vectorized(False):
                    scalar = _fresh(region).responsive_iids(Port.ICMP, epoch)
                with use_vectorized(True):
                    vector = _fresh(region).responsive_iids(Port.ICMP, epoch)
                assert scalar == vector


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
        with use_vectorized(False):
            scalar_net = SimulatedInternet(tiny_config)
            pool = self._pool(scalar_net, rng)
            scalar = scalar_net.probe_batch(pool, Port.ICMP)
            singles = {a for a in pool if scalar_net.probe(a, Port.ICMP)}
        with use_vectorized(True):
            vector_net = SimulatedInternet(tiny_config)
            vector = vector_net.probe_batch(pool, Port.ICMP)
            packed = vector_net.probe_batch(
                PackedAddresses.from_addresses(pool), Port.ICMP
            )
        assert scalar == singles
        assert scalar == vector == packed

    @pytest.mark.parametrize("classify_negative", [True, False])
    def test_scan_results_and_stats_identical(self, tiny_config, classify_negative):
        rng = _rng(14)
        blocklist = Blocklist()
        with use_vectorized(False):
            scalar_net = SimulatedInternet(tiny_config)
            blocklist.add(scalar_net.regions[3].prefix)
            blocklist.add(Prefix(scalar_net.regions[11].net64 << 64, 80))
            pool = self._pool(scalar_net, rng)
            scalar_scanner = Scanner(
                scalar_net, blocklist=blocklist, classify_negative=classify_negative
            )
            scalar = scalar_scanner.scan(list(pool), Port.ICMP)
        with use_vectorized(True):
            vector_net = SimulatedInternet(tiny_config)
            vector_scanner = Scanner(
                vector_net, blocklist=blocklist, classify_negative=classify_negative
            )
            vector = vector_scanner.scan(list(pool), Port.ICMP)
            packed = Scanner(
                vector_net, blocklist=blocklist, classify_negative=classify_negative
            ).scan(PackedAddresses.from_addresses(pool), Port.ICMP)
        for other in (vector, packed):
            assert scalar.hits == other.hits
            assert scalar.stats.responses == other.stats.responses
            assert scalar.stats.probes_sent == other.stats.probes_sent
            assert scalar.stats.targets_blocked == other.stats.targets_blocked
            assert scalar.stats.virtual_duration == other.stats.virtual_duration

    def test_scan_telemetry_snapshot_identical(self, tiny_config):
        from repro.telemetry import MemorySink, Telemetry, use_telemetry

        rng = _rng(15)

        def run(vectorized: bool):
            telemetry = Telemetry([MemorySink()])
            with use_vectorized(vectorized), use_telemetry(telemetry):
                net = SimulatedInternet(tiny_config)
                scanner = Scanner(net)
                pool = self._pool(net, rng=_rng(15))
                for port in ALL_PORTS:
                    scanner.scan(list(pool), port)
                return telemetry.snapshot()

        assert run(False) == run(True)


# -- full grid ---------------------------------------------------------------


class TestGridParity:
    def test_small_grid_identical_vector_on_off(self, tiny_config):
        from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid

        def run(vectorized: bool):
            with use_vectorized(vectorized):
                study = Study(
                    internet=SimulatedInternet(tiny_config),
                    budget=600,
                    round_size=200,
                )
                spec = GridSpec(
                    datasets=(study.constructions.all_active,),
                    tga_names=("det", "eip"),
                    ports=(Port.ICMP,),
                )
                return run_grid(study, spec)

        scalar = run(False)
        vector = run(True)
        assert scalar.runs.keys() == vector.runs.keys()
        for key in scalar.runs:
            a, b = scalar.runs[key], vector.runs[key]
            assert a.clean_hits == b.clean_hits, key
            assert a.aliased_hits == b.aliased_hits, key
            assert a.generated == b.generated, key
            assert a.probes_sent == b.probes_sent, key
            assert a.metrics == b.metrics, key
            assert a.round_history == b.round_history, key

    def test_vector_enabled_reflects_policy_scope(self):
        baseline = vector_enabled()
        with use_vectorized(False):
            assert not vector_enabled()
            with use_vectorized(True):
                assert vector_enabled()
            assert not vector_enabled()
        assert vector_enabled() == baseline


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

    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_space_tree_structurally_identical(self, strategy):
        from repro.tga.spacetree import SpaceTree

        seeds = self._seeds()
        with use_vectorized(False):
            scalar_tree = SpaceTree(list(seeds), strategy=strategy)
        with use_vectorized(True):
            vector_tree = SpaceTree(list(seeds), strategy=strategy)
        assert len(scalar_tree.leaves) == len(vector_tree.leaves)
        for a, b in zip(scalar_tree.leaves, vector_tree.leaves):
            assert a.__dict__ == b.__dict__
