"""Tests for repro.internet.model (the SimulatedInternet facade)."""

import functools
import inspect
import itertools
import random
import typing

import pytest

from repro.internet import (
    COLLECTION_EPOCH,
    SCAN_EPOCH,
    InternetConfig,
    LazyASRegistry,
    LazyTopology,
    Port,
    RegionRole,
    SimulatedInternet,
)
from repro.internet.topology import derive_as, mega_region, rank_for_top32, slash32_for_rank
from repro.scanner import Scanner


class TestLookups:
    def test_region_of_member(self, internet):
        region = internet.regions[0]
        assert internet.region_of(region.address_of(1)) is region

    def test_region_of_unallocated(self, internet):
        assert internet.region_of(0x3FFF << 112) is None

    def test_asn_of_region_member(self, internet):
        region = internet.regions[0]
        assert internet.asn_of(region.address_of(1)) == region.asn

    def test_asn_of_in_as_but_unallocated_subnet(self, internet):
        """Addresses inside an announced /32 but outside any region still
        attribute to the AS via the registry fallback."""
        region = internet.regions[0]
        info = internet.registry.info(region.asn)
        probe = info.prefixes[0].value | 0xFFFF_FFFF_FFFF_F000
        assert internet.asn_of(probe) == region.asn

    def test_target_exists(self, internet):
        region = internet.regions[0]
        assert internet.target_exists(region.address_of(99))
        assert not internet.target_exists(0x3FFF << 112)

    def test_regions_with_role(self, internet):
        routers = internet.regions_with_role(RegionRole.ROUTER)
        assert routers
        assert all(r.role is RegionRole.ROUTER for r in routers)


class TestAsnOfFromRegistry:
    """``asn_of`` answers from allocation math and derives no AS."""

    @pytest.mark.parametrize("preset", ("tiny", "internet"))
    def test_matches_ground_truth_without_materialising(self, preset):
        config = getattr(InternetConfig, preset)(master_seed=3)
        internet = SimulatedInternet(config)
        rng = random.Random(3)
        expected = {}
        for rank in rng.sample(range(config.num_ases), min(40, config.num_ases)):
            info, regions = derive_as(config, rank)
            for region in regions[:3]:
                expected[region.address_of(rng.getrandbits(16))] = region.asn
            slash32 = slash32_for_rank(config, rank)
            for _ in range(3):  # inside the /32 but (almost surely) no region
                expected[slash32 | rng.getrandbits(96)] = info.asn
        while len(expected) < 200:  # unallocated /32s
            address = rng.getrandbits(128)
            if (address >> 96) != 0x2A01_0E00 and rank_for_top32(config, address >> 96) is None:
                expected[address] = None
        for index in (0, 7, config.mega_isp_regions - 1):
            expected[mega_region(config, index).address_of(1)] = config.mega_isp_asn
        expected[(0x2A01_0E00 << 96) | (0xFFFF << 80)] = config.mega_isp_asn
        before = internet.lazy_stats()["materialized_ases"]
        for address, asn in expected.items():
            assert internet.asn_of(address) == asn
        assert internet.lazy_stats()["materialized_ases"] == before


class TestTypeHints:
    @pytest.mark.parametrize(
        "cls", (SimulatedInternet, LazyTopology, LazyASRegistry, Scanner)
    )
    def test_public_annotations_resolve(self, cls):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            if inspect.isfunction(member):
                typing.get_type_hints(member)


class TestProbing:
    def test_responsive_member_answers(self, internet):
        for region in internet.regions:
            iids = region.responsive_iids(Port.ICMP, SCAN_EPOCH)
            if iids:
                iid = next(iter(iids))
                assert internet.probe(region.address_of(iid), Port.ICMP)
                break
        else:
            raise AssertionError("no responsive region found")

    def test_unallocated_never_answers(self, internet):
        assert not internet.probe(0x3FFF << 112, Port.ICMP)

    def test_epoch_matters(self, internet):
        retired = next(r for r in internet.regions if r.retired and not r.aliased)
        if not retired.active_iids():
            return
        iid = next(iter(retired.active_iids()))
        address = retired.address_of(iid)
        collection = internet.probe(
            address, Port.ICMP, epoch=COLLECTION_EPOCH
        )
        scan = internet.probe(address, Port.ICMP, epoch=SCAN_EPOCH)
        assert not scan
        # At collection time the address answers iff its profile draw said so.
        assert collection == (
            iid in retired.responsive_iids(Port.ICMP, COLLECTION_EPOCH)
        )


class TestAliases:
    def test_true_alias_prefixes_are_aliased_regions(self, internet):
        truth = set(internet.true_alias_prefixes)
        from_regions = {r.prefix for r in internet.regions if r.aliased}
        assert truth == from_regions

    def test_published_subset_of_truth(self, internet):
        published = set(internet.published_alias_prefixes)
        assert published < set(internet.true_alias_prefixes)
        assert published  # coverage is substantial, not empty

    def test_is_aliased_truth(self, internet):
        aliased_region = next(r for r in internet.regions if r.aliased)
        assert internet.is_aliased_truth(aliased_region.address_of(12345))
        normal_region = next(r for r in internet.regions if not r.aliased)
        assert not internet.is_aliased_truth(normal_region.address_of(1))


class TestEnumeration:
    def test_iter_responsive_matches_count(self, internet):
        listed = list(internet.iter_responsive(Port.UDP53))
        assert len(listed) == internet.count_responsive(Port.UDP53)

    def test_iter_responsive_all_respond(self, internet):
        sample = list(itertools.islice(internet.iter_responsive(Port.ICMP), 200))
        assert all(internet.probe(address, Port.ICMP) for address in sample)

    def test_responsive_ases_subset_of_registry(self, internet):
        ases = internet.responsive_ases(Port.ICMP)
        assert ases <= set(internet.registry.all_asns())
        assert len(ases) > 10

    def test_udp_fewer_than_icmp(self, internet):
        assert internet.count_responsive(Port.UDP53) < internet.count_responsive(
            Port.ICMP
        )

    def test_iter_ever_responsive_nonempty(self, internet):
        sample = list(itertools.islice(internet.iter_ever_responsive(), 50))
        assert len(sample) == 50


class TestDescribe:
    def test_describe_keys(self, internet):
        info = internet.describe()
        assert info["ases"] == internet.config.num_ases + 1
        assert info["regions"] == len(internet.regions)
        assert info["aliased_regions"] > 0
        assert info["pattern_active_addresses"] > 0

    def test_mega_isp_asn_property(self, internet):
        assert internet.mega_isp_asn == internet.config.mega_isp_asn


class TestDeterminism:
    def test_same_config_same_world(self):
        config = InternetConfig.tiny(master_seed=5)
        a = SimulatedInternet(config)
        b = SimulatedInternet(config)
        assert a.describe() == b.describe()
        assert [r.net64 for r in a.regions] == [r.net64 for r in b.regions]
        assert a.count_responsive(Port.ICMP) == b.count_responsive(Port.ICMP)
