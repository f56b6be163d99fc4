"""``derive_as``'s cursor walk and region table against the stream oracle.

The oracle below is the one-draw-at-a-time walk over an AS's
:class:`DeterministicStream`: header, site count, role plan, site
subnets, then per region its subnet tries and its field draws, building
every :class:`Region` as it goes.  ``build_topology`` and the lazy/eager
suite both go through ``derive_as``, so only this comparison catches a
change to the derivation itself.  The oracle also records where each
region's draws sit in the stream, which pins the table's layout, and
the laziness tests count ``Region`` constructions.
"""

import random

import pytest

from repro.addr import Prefix
from repro.addr.rand import DeterministicStream, hash64
from repro.asdb import ASInfo, OrgType
from repro.internet import InternetConfig, LazyTopology
from repro.internet import topology
from repro.internet.patterns import PatternKind
from repro.internet.ports import (
    CDN_EDGE,
    DNS_SERVER,
    ENTERPRISE_HOST,
    ENTERPRISE_INTERNAL,
    GATEWAY,
    INFRA_SERVER,
    ROUTER,
    SUBSCRIBER,
    WEB_SERVER,
)
from repro.internet.regions import Region, RegionRole
from repro.internet.topology import RegionTable, derive_as, derive_as_info

from .test_topology_lazy import SWEEP_SEEDS, fingerprint, micro_config

# -- the oracle: one draw at a time from the AS's stream ---------------------


class CountingStream(DeterministicStream):
    """A :class:`DeterministicStream` that counts its draws."""

    __slots__ = ("drawn",)

    def __init__(self, *seed_parts: int) -> None:
        super().__init__(*seed_parts)
        self.drawn = 0

    def next64(self) -> int:
        self.drawn += 1
        return super().next64()


def _pick_org_type(stream, weights):
    draw = stream.next_uniform()
    cumulative = 0.0
    for key, weight in weights.items():
        cumulative += weight
        if draw < cumulative:
            return OrgType(key)
    return OrgType.ENTERPRISE


def _site_subnet16(stream, site_index):
    style = stream.next_below(10)
    if style < 6:
        return site_index
    if style < 9:
        return site_index * 0x10
    return stream.next_below(0x1000)


def _region_subnet16(stream, region_index):
    style = stream.next_below(10)
    if style < 6:
        return region_index + 1
    if style < 9:
        return (region_index + 1) * 0x100
    return stream.next_below(0x10000)


def _role_plan(org, stream):
    def between(lo, hi):
        return lo + stream.next_below(hi - lo + 1)

    if org in (OrgType.ISP, OrgType.MOBILE):
        plan = [
            (RegionRole.ROUTER, between(2, 4)),
            (RegionRole.SUBSCRIBER, between(4, 14) if org is OrgType.ISP else between(8, 18)),
            (RegionRole.GATEWAY, between(10, 26)),
        ]
        if stream.next_uniform() < 0.5:
            plan.append((RegionRole.SERVER, between(1, 2)))
        return plan
    if org is OrgType.CLOUD:
        return [
            (RegionRole.ROUTER, between(1, 2)),
            (RegionRole.SERVER, between(8, 24)),
            (RegionRole.DNS, between(1, 2)),
        ]
    if org is OrgType.HOSTING:
        return [
            (RegionRole.ROUTER, between(1, 2)),
            (RegionRole.SERVER, between(6, 18)),
            (RegionRole.DNS, between(0, 1)),
        ]
    if org is OrgType.CDN:
        return [
            (RegionRole.ROUTER, between(1, 2)),
            (RegionRole.SERVER, between(14, 34)),
        ]
    if org is OrgType.SECURITY:
        return [
            (RegionRole.ROUTER, between(1, 2)),
            (RegionRole.DNS, between(4, 10)),
            (RegionRole.SERVER, between(2, 6)),
        ]
    return [
        (RegionRole.ROUTER, between(1, 3)),
        (RegionRole.ENTERPRISE, between(3, 10)),
    ]


def _pattern_for(role, org, stream):
    draw = stream.next_uniform()
    if role in (RegionRole.ROUTER, RegionRole.GATEWAY):
        return PatternKind.LOW
    if role is RegionRole.SUBSCRIBER:
        return PatternKind.RANDOM
    if role is RegionRole.DNS:
        return PatternKind.LOW if draw < 0.7 else PatternKind.WORDY
    if role is RegionRole.ENTERPRISE:
        if draw < 0.55:
            return PatternKind.EUI64
        return PatternKind.LOW if draw < 0.8 else PatternKind.WORDY
    if org is OrgType.CDN:
        return PatternKind.LOW if draw < 0.85 else PatternKind.WORDY
    if draw < 0.5:
        return PatternKind.LOW
    if draw < 0.75:
        return PatternKind.WORDY
    return PatternKind.EUI64


def _profile_for(role, org, stream):
    if role is RegionRole.ROUTER:
        return ROUTER
    if role is RegionRole.GATEWAY:
        return GATEWAY
    if role is RegionRole.SUBSCRIBER:
        return SUBSCRIBER
    if role is RegionRole.DNS:
        return DNS_SERVER
    if role is RegionRole.ENTERPRISE:
        return ENTERPRISE_HOST if stream.next_uniform() < 0.22 else ENTERPRISE_INTERNAL
    if org is OrgType.CDN:
        return CDN_EDGE
    return WEB_SERVER if stream.next_uniform() < 0.38 else INFRA_SERVER


def _density_for(role, org, config, stream):
    def between(lo, hi):
        return lo + stream.next_below(max(1, hi - lo + 1))

    if role is RegionRole.ROUTER:
        return between(config.router_density_min, config.router_density_max)
    if role is RegionRole.GATEWAY:
        return between(1, 3)
    if role is RegionRole.SUBSCRIBER:
        return between(config.subscriber_density_min, config.subscriber_density_max)
    if role is RegionRole.ENTERPRISE:
        return between(config.enterprise_density_min, config.enterprise_density_max)
    if org is OrgType.CDN:
        return between(config.cdn_density_min, config.cdn_density_max)
    return between(config.server_density_min, config.server_density_max)


def _header_from_stream(config, rank, stream):
    org = _pick_org_type(stream, config.org_weights)
    stem = topology._NAME_STEMS[stream.next_below(len(topology._NAME_STEMS))]
    country = topology._COUNTRIES[stream.next_below(len(topology._COUNTRIES))]
    slash32 = topology.slash32_for_rank(config, rank)
    info = ASInfo(
        asn=topology.asn_for_rank(config, rank),
        name=f"{stem} {topology._TYPE_SUFFIX[org]} {rank}",
        org_type=org,
        country=country,
        prefixes=(Prefix(slash32, 32),),
    )
    return info, org, slash32


def _make_regions(config, stream, asn, org, slash32, walk):
    """The region walk; ``walk`` records where the draws sit."""
    regions = []
    num_sites = config.min_sites_per_as + stream.next_below(
        config.max_sites_per_as - config.min_sites_per_as + 1
    )
    plan = _role_plan(org, stream)
    flat_roles = [role for role, count in plan for _ in range(count)]
    used_net64 = set()
    site_nets = []
    for site_index in range(num_sites):
        site16 = _site_subnet16(stream, site_index)
        site_nets.append((slash32 >> 64) | (site16 << 16))
    for region_index, role in enumerate(flat_roles):
        walk["starts"].append(stream.drawn)
        site_net48 = site_nets[region_index % num_sites]
        for attempt in range(8):  # retry on subnet collisions
            subnet16 = _region_subnet16(stream, region_index)
            net64 = site_net48 | subnet16
            if net64 not in used_net64:
                break
        else:
            walk["dropped"] += 1
            continue
        walk["retries"] += attempt
        used_net64.add(net64)
        start = stream.drawn
        churn = config.churn_rate_min + stream.next_uniform() * (
            config.churn_rate_max - config.churn_rate_min
        )
        if role is RegionRole.SUBSCRIBER:
            churn = min(0.9, churn * config.subscriber_churn_boost)
        if (
            role in (RegionRole.SERVER, RegionRole.DNS, RegionRole.ENTERPRISE)
            and stream.next_uniform() < config.renumbered_region_fraction
        ):
            churn = config.renumbered_churn
        firewalled = (
            role is RegionRole.ROUTER
            and stream.next_uniform() < config.firewalled_router_fraction
        )
        retired = stream.next_uniform() < config.retired_region_fraction
        aliased = (
            org.is_datacenter
            and role in (RegionRole.SERVER, RegionRole.DNS)
            and stream.next_uniform() < config.alias_region_fraction * 6
        )
        if aliased:
            retired = False
        alias_response = 1.0
        if aliased and stream.next_uniform() < config.rate_limited_alias_fraction:
            alias_response = config.rate_limited_alias_response
        regions.append(
            Region(
                net64=net64,
                asn=asn,
                role=role,
                pattern=_pattern_for(role, org, stream),
                density=_density_for(role, org, config, stream),
                profile=_profile_for(role, org, stream),
                churn_rate=churn,
                retired=retired,
                firewalled=firewalled,
                aliased=aliased,
                alias_response_prob=alias_response,
                salt=hash64(config.master_seed, net64),
            )
        )
        walk["fields"].append((start, stream.drawn, len(walk["starts"]) - 1))
    walk["end"] = stream.drawn
    return regions


def oracle_derive(config, rank):
    """``(info, regions, walk)`` from the stream, one draw at a time.

    ``walk`` holds each role slot's first draw (``starts``), each kept
    region's field draws as ``(start, end, slot)`` (``fields``), the
    draws consumed (``end``), and the dropped regions and subnet
    retries it saw.
    """
    stream = CountingStream(config.master_seed, topology._SALT_TOPOLOGY, rank)
    info, org, slash32 = _header_from_stream(config, rank, stream)
    walk = {"starts": [], "fields": [], "end": 0, "dropped": 0, "retries": 0}
    regions = _make_regions(config, stream, info.asn, org, slash32, walk)
    return info, regions, walk


# -- derive_as ≡ the oracle ---------------------------------------------------

#: Ranks whose walks take a rare branch: eight subnet collisions drop a
#: region (``dropped``), or a kept region retries its subnet (``retries``).
EDGE_RANKS = (
    (42, 218425, "dropped"),
    (42, 391289, "retries"),
    (42, 113656, "retries"),
    (42, 803212, "retries"),
    (7, 204201, "retries"),
    (7, 648114, "retries"),
    (7, 233961, "retries"),
)


def sampled_ranks(config: InternetConfig, count: int = 2000) -> list[int]:
    return random.Random(config.master_seed).sample(range(config.num_ases), count)


def check_against_oracle(config: InternetConfig, rank: int) -> dict:
    """Assert ``derive_as`` ≡ the oracle for one AS; return the walk."""
    want_info, want_regions, walk = oracle_derive(config, rank)
    info, table = derive_as(config, rank)
    assert info == want_info
    assert derive_as_info(config, rank) == want_info
    assert isinstance(table, RegionTable)
    assert [fingerprint(r) for r in table] == [fingerprint(r) for r in want_regions]
    return walk


class TestOracle:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_every_rank_of_micro_worlds(self, seed):
        config = micro_config(seed)
        for rank in range(config.num_ases):
            check_against_oracle(config, rank)

    @pytest.mark.parametrize("preset", ("tiny", "bench"))
    def test_every_rank_of_presets(self, preset):
        config = getattr(InternetConfig, preset)(master_seed=42)
        for rank in range(config.num_ases):
            check_against_oracle(config, rank)

    @pytest.mark.parametrize("seed", (42, 7))
    def test_sampled_internet_ranks(self, seed):
        config = InternetConfig.internet(master_seed=seed)
        ends = [check_against_oracle(config, rank)["end"] for rank in sampled_ranks(config)]
        assert max(ends) > topology._TAKE, "some walk must cross the first take"

    @pytest.mark.parametrize("seed,rank,branch", EDGE_RANKS)
    def test_edge_ranks(self, seed, rank, branch):
        walk = check_against_oracle(InternetConfig.internet(master_seed=seed), rank)
        assert walk[branch] > 0


# -- the table's layout -------------------------------------------------------


class TestLayout:
    """Offsets and skip counts sit exactly where the oracle drew."""

    def check(self, config: InternetConfig, rank: int) -> None:
        _, _, walk = oracle_derive(config, rank)
        _, table = derive_as(config, rank)
        assert len(table._draws) == walk["end"], "the table keeps the draws consumed"
        assert len(table) == len(walk["fields"])
        for k, (start, end, slot) in enumerate(walk["fields"]):
            assert table._offsets[k] == start
            decoded_end = table._decode(k)[1]
            assert decoded_end == end
            # Decoding a region ends where the walk went on: at the next
            # role slot's subnet draws, or where the walk ends.
            following = walk["starts"][slot + 1 :]
            assert decoded_end == (following[0] if following else walk["end"])

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_micro_worlds(self, seed):
        config = micro_config(seed)
        for rank in range(config.num_ases):
            self.check(config, rank)

    @pytest.mark.parametrize("seed", (42, 7))
    def test_sampled_internet_ranks(self, seed):
        config = InternetConfig.internet(master_seed=seed)
        for rank in sampled_ranks(config, 300):
            self.check(config, rank)

    @pytest.mark.parametrize("seed,rank,branch", EDGE_RANKS)
    def test_edge_ranks(self, seed, rank, branch):
        self.check(InternetConfig.internet(master_seed=seed), rank)


# -- laziness -----------------------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Every ``Region`` constructed while the test runs."""
    regions = []
    init = Region.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        regions.append(self)

    monkeypatch.setattr(Region, "__init__", counting_init)
    return regions


def region_world():
    """The internet preset and one AS rank with several regions."""
    config = InternetConfig.internet(master_seed=42)
    for rank in sampled_ranks(config, 50):
        table = derive_as(config, rank)[1]
        if len(table) >= 4:
            return config, rank, [table[k].net64 for k in range(len(table))]
    raise AssertionError("no sampled AS has four regions")


class TestLaziness:
    def test_derive_as_builds_no_region(self, built):
        config = InternetConfig.internet(master_seed=42)
        for rank in sampled_ranks(config, 50):
            derive_as(config, rank)
        assert built == []

    def test_point_lookup_builds_one_region(self, built):
        config, rank, net64s = region_world()
        del built[:]
        lazy = LazyTopology(config)
        region = lazy.region_for_net64(net64s[2])
        assert len(built) == 1 and built[0] is region
        slash32 = topology.slash32_for_rank(config, rank) >> 64
        assert lazy.region_for_net64(slash32 | 0xFFFF_0000) is None
        assert len(built) == 1, "a /64 without a region builds nothing"

    def test_batch_lookup_builds_only_what_it_names(self, built):
        config, rank, net64s = region_world()
        del built[:]
        lazy = LazyTopology(config, max_resident_ases=1)
        other = topology.slash32_for_rank(config, rank + 1) >> 64
        asked = [net64s[0], net64s[-1], other | 0x1234, net64s[0]]
        got = lazy.regions_for_net64s(asked)
        assert got[other | 0x1234] is None
        assert sorted(r.net64 for r in built) == sorted((net64s[0], net64s[-1]))
        assert {id(got[net64s[0]]), id(got[net64s[-1]])} == {id(r) for r in built}

    def test_repeated_reads_return_one_object(self, built):
        config, rank, net64s = region_world()
        del built[:]
        lazy = LazyTopology(config)
        first = lazy.region_for_net64(net64s[1])
        assert lazy.region_for_net64(net64s[1]) is first
        assert lazy.regions_for_net64s([net64s[1]])[net64s[1]] is first
        assert len(built) == 1 and built[0] is first
        assert lazy.regions_for_rank(rank)[1] is first
        assert len(built) == len(net64s), "listing the AS builds each region once"


class TestSequence:
    def test_sequence_semantics(self, built):
        config, rank, net64s = region_world()
        del built[:]
        table = derive_as(config, rank)[1]
        n = len(table)
        assert n == len(net64s)
        last = table[-1]
        assert last is table[n - 1] and last.net64 == net64s[-1]
        assert len(built) == 1 and built[0] is last
        head = table[:2]
        assert isinstance(head, list) and [r.net64 for r in head] == net64s[:2]
        assert table[::-1][0] is last
        with pytest.raises(IndexError):
            table[n]
        assert table.get(net64s[0]) is table[0]
        assert table.get(net64s[0] ^ 0xFFFF_0000) is None
        assert [r.net64 for r in table] == net64s
        assert all(a is b for a, b in zip(table, list(table))), "reads keep regions"
        assert len(built) == n
