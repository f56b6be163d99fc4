"""Tests for repro.internet.regions."""

from repro.internet import (
    COLLECTION_EPOCH,
    SCAN_EPOCH,
    PatternKind,
    Port,
    PortProfile,
    Region,
    RegionRole,
)

NET64 = 0x2001_0DB8_0001_0001


def make_region(**overrides) -> Region:
    defaults = dict(
        net64=NET64,
        asn=64500,
        role=RegionRole.SERVER,
        pattern=PatternKind.LOW,
        density=30,
        profile=PortProfile(icmp=1.0, tcp80=0.5, tcp443=0.5, udp53=0.0),
        churn_rate=0.0,
        salt=777,
    )
    defaults.update(overrides)
    return Region(**defaults)


class TestIdentity:
    def test_prefix(self):
        region = make_region()
        assert region.prefix.length == 64
        assert region.prefix.value == NET64 << 64

    def test_contains(self):
        region = make_region()
        assert region.contains(region.address_of(5))
        assert not region.contains((NET64 + 1) << 64)

    def test_address_of_masks_iid(self):
        region = make_region()
        assert region.address_of(2**64 + 7) == region.address_of(7)


class TestActiveIIDs:
    def test_density_respected(self):
        assert len(make_region().active_iids()) == 30

    def test_cached(self):
        region = make_region()
        assert region.active_iids() is region.active_iids()

    def test_aliased_has_no_iids(self):
        assert make_region(aliased=True).active_iids() == frozenset()


class TestResponsiveIIDs:
    def test_full_icmp_probability(self):
        region = make_region()
        assert region.responsive_iids(Port.ICMP, COLLECTION_EPOCH) == region.active_iids()

    def test_zero_probability_port(self):
        region = make_region()
        assert region.responsive_iids(Port.UDP53, COLLECTION_EPOCH) == frozenset()

    def test_partial_port_subset(self):
        region = make_region()
        tcp = region.responsive_iids(Port.TCP80, COLLECTION_EPOCH)
        assert tcp < region.active_iids()
        assert len(tcp) > 0

    def test_churn_shrinks_at_scan_epoch(self):
        region = make_region(churn_rate=0.5, density=100)
        before = region.responsive_iids(Port.ICMP, COLLECTION_EPOCH)
        after = region.responsive_iids(Port.ICMP, SCAN_EPOCH)
        assert after < before
        assert 20 < len(after) < 80  # ~50% churn

    def test_retired_region_dead_at_scan(self):
        region = make_region(retired=True)
        assert region.responsive_iids(Port.ICMP, COLLECTION_EPOCH)
        assert region.responsive_iids(Port.ICMP, SCAN_EPOCH) == frozenset()

    def test_firewalled_never_responds(self):
        region = make_region(firewalled=True)
        assert region.responsive_iids(Port.ICMP, COLLECTION_EPOCH) == frozenset()


class TestResponds:
    def test_member_responds(self):
        region = make_region()
        iid = next(iter(region.active_iids()))
        assert region.responds(region.address_of(iid), Port.ICMP, COLLECTION_EPOCH)

    def test_nonmember_does_not(self):
        region = make_region()
        assert not region.responds(region.address_of(2**40), Port.ICMP, COLLECTION_EPOCH)

    def test_aliased_responds_everywhere(self):
        region = make_region(aliased=True)
        for iid in (0, 1, 123456, 2**63):
            assert region.responds(region.address_of(iid), Port.ICMP, SCAN_EPOCH)

    def test_aliased_zero_probability_port(self):
        region = make_region(aliased=True, profile=PortProfile(icmp=1.0, udp53=0.0))
        assert not region.responds(region.address_of(1), Port.UDP53, SCAN_EPOCH)

    def test_rate_limited_alias_attempt_dependent(self):
        region = make_region(aliased=True, alias_response_prob=0.5)
        address = region.address_of(42)
        outcomes = {
            region.responds(address, Port.ICMP, SCAN_EPOCH, attempt=i)
            for i in range(20)
        }
        assert outcomes == {True, False}  # retries can change the answer

    def test_normal_region_attempt_independent(self):
        region = make_region()
        iid = next(iter(region.active_iids()))
        address = region.address_of(iid)
        assert all(
            region.responds(address, Port.ICMP, SCAN_EPOCH, attempt=i)
            for i in range(5)
        )


class TestObservables:
    def test_observables_are_members(self):
        region = make_region()
        for address in region.observable_addresses():
            assert region.contains(address)

    def test_aliased_observables_sampled(self):
        region = make_region(aliased=True, density=40)
        observed = region.observable_addresses()
        assert len(observed) >= 8
        assert all(region.contains(address) for address in observed)

    def test_sample_observable_bounds(self):
        region = make_region(density=50)
        sample = region.sample_observable(10, salt=1)
        assert len(sample) == 10
        assert set(sample) <= set(region.observable_addresses())

    def test_sample_observable_all(self):
        region = make_region(density=5)
        assert len(region.sample_observable(100, salt=1)) == 5

    def test_ever_responsive_addresses(self):
        region = make_region()
        icmp = region.ever_responsive_addresses(Port.ICMP)
        assert len(icmp) == region.density
        assert region.ever_responsive_addresses(Port.UDP53) == []
