"""Tests for repro.internet.topology."""

from collections import Counter

from repro.asdb import OrgType
from repro.internet import InternetConfig, RegionRole, build_topology


class TestBuildTopology:
    def test_as_count(self, internet):
        # num_ases plus the mega ISP.
        assert len(internet.registry) == internet.config.num_ases + 1

    def test_deterministic(self, tiny_config):
        a = build_topology(tiny_config)
        b = build_topology(tiny_config)
        assert [r.net64 for r in a.regions] == [r.net64 for r in b.regions]
        assert a.registry.all_asns() == b.registry.all_asns()

    def test_different_seed_differs(self, tiny_config):
        a = build_topology(tiny_config)
        b = build_topology(tiny_config.with_seed(777))
        assert {r.net64 for r in a.regions} != {r.net64 for r in b.regions}

    def test_regions_have_unique_net64(self, internet):
        net64s = [region.net64 for region in internet.regions]
        assert len(net64s) == len(set(net64s))

    def test_every_region_within_as_prefix(self, internet):
        for region in internet.regions[:300]:
            info = internet.registry.info(region.asn)
            address = region.address_of(0)
            assert any(prefix.contains(address) for prefix in info.prefixes)

    def test_regions_by_net64_cache(self, internet):
        sample = internet.regions[0]
        assert internet.topology.region_for_net64(sample.net64) is sample


class TestOrgMix:
    def test_multiple_org_types_present(self, internet):
        orgs = {
            internet.registry.info(asn).org_type
            for asn in internet.registry.all_asns()
        }
        assert len(orgs) >= 5

    def test_role_mix_tracks_org_type(self, internet):
        roles_by_org: dict[OrgType, Counter] = {}
        for region in internet.regions:
            org = internet.registry.info(region.asn).org_type
            roles_by_org.setdefault(org, Counter())[region.role] += 1
        # ISPs have subscribers; CDNs have servers; everyone has routers.
        if OrgType.ISP in roles_by_org:
            assert roles_by_org[OrgType.ISP][RegionRole.SUBSCRIBER] > 0
            assert roles_by_org[OrgType.ISP][RegionRole.ROUTER] > 0
        if OrgType.CDN in roles_by_org:
            assert roles_by_org[OrgType.CDN][RegionRole.SERVER] > 0

    def test_some_routers_firewalled(self, internet):
        routers = [r for r in internet.regions if r.role is RegionRole.ROUTER]
        firewalled = [r for r in routers if r.firewalled]
        assert 0 < len(firewalled) < len(routers)

    def test_only_routers_firewalled(self, internet):
        for region in internet.regions:
            if region.firewalled:
                assert region.role is RegionRole.ROUTER


class TestAliases:
    def test_alias_regions_exist(self, internet):
        assert any(region.aliased for region in internet.regions)

    def test_aliases_in_datacenter_ases(self, internet):
        for region in internet.regions:
            if region.aliased:
                org = internet.registry.info(region.asn).org_type
                assert org.is_datacenter

    def test_some_aliases_rate_limited(self, internet):
        probs = {r.alias_response_prob for r in internet.regions if r.aliased}
        assert 1.0 in probs
        assert any(p < 1.0 for p in probs)


class TestMegaISP:
    def test_registered(self, internet):
        info = internet.registry.info(internet.config.mega_isp_asn)
        assert "12322" in info.name

    def test_region_count(self, internet):
        mega = [
            r for r in internet.regions if r.asn == internet.config.mega_isp_asn
        ]
        assert len(mega) == internet.config.mega_isp_regions

    def test_low_density_icmp_heavy(self, internet):
        mega = [
            r for r in internet.regions if r.asn == internet.config.mega_isp_asn
        ]
        for region in mega[:20]:
            assert region.density == 1
            assert region.profile.icmp > region.profile.tcp443

    def test_sequential_subnets(self, internet):
        mega = sorted(
            r.net64
            for r in internet.regions
            if r.asn == internet.config.mega_isp_asn
        )
        low_parts = [net64 & 0xFFFF for net64 in mega[:0x100]]
        assert low_parts == sorted(low_parts)
