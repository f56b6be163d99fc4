"""Topology generator: ASes, prefix allocations and ground-truth regions.

The simulated Internet is **deterministic-on-demand**: every AS — its
organisation type, country, name, /32, site layout, region roles, IID
patterns and densities — is a pure function of ``(master_seed, rank)``,
where ``rank`` is the AS's index in ``[0, num_ases)``.  Nothing about
AS *k* depends on any other AS, so a world can be materialised eagerly
(:func:`build_topology`, the reference walk used by tests), lazily one
AS at a time (:class:`LazyTopology`, the production path), or in any
touch order whatsoever — the regions that come out are bit-identical.

Structure of the derivation:

* each AS gets an organisation type, country, name and one /32;
* /32s are allocated **rank-ordered**: rank → (block, plane, slot) is
  pure arithmetic and slot → mid-16 bits is a seeded Feistel
  permutation, so ``net64 → owning rank`` inverts in O(1) without
  instantiating anyone;
* ASNs come from a second Feistel permutation (generated ASNs are odd,
  so the even mega-ISP ASN can never collide);
* sites are /48s at structured subnet indices inside the /32; regions
  are /64s at structured indices inside their site, with roles, IID
  patterns and service profiles drawn per organisation type from the
  AS's private deterministic stream;
* a configurable share of datacenter regions are fully aliased (some of
  them rate limited);
* one mega-ISP (the AS12322 analogue) contributes a large, trivially
  discoverable ``::1``-per-/64 ICMP pattern, itself derived on demand
  from the region index.

The structured subnet numbering is deliberate: it is the regularity that
real allocation policies exhibit and that TGAs exploit.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

from ..addr import Prefix
from ..addr.rand import DeterministicStream, hash64, hash64_batch
from ..addr.vector import np
from ..asdb import ASInfo, ASRegistry, OrgType
from .config import InternetConfig
from .patterns import PatternKind
from .ports import (
    CDN_EDGE,
    DNS_SERVER,
    ENTERPRISE_HOST,
    ENTERPRISE_INTERNAL,
    GATEWAY,
    INFRA_SERVER,
    ROUTER,
    SUBSCRIBER,
    WEB_SERVER,
    PortProfile,
)
from .regions import Region, RegionRole

__all__ = [
    "Topology",
    "LazyTopology",
    "LazyASRegistry",
    "build_topology",
    "derive_as",
    "derive_as_info",
    "asn_for_rank",
    "rank_for_asn",
    "slash32_for_rank",
    "rank_for_top32",
]

# RIR-style /16 blocks from which /32s are carved.  Past the first
# ``8 * 2**16`` ASes, allocation moves to the next *plane*: the same
# blocks shifted by ``plane * 0x20``.  The stride keeps planes disjoint
# for up to 16 planes (the closest base pair differs by 0x10, the next
# by 0x200 = 16 strides) — far beyond the supported AS count.
_TOP16_BLOCKS = (0x2001, 0x2400, 0x2600, 0x2610, 0x2800, 0x2A00, 0x2A02, 0x2C00)
_BLOCK_INDEX = {base: index for index, base in enumerate(_TOP16_BLOCKS)}
_PLANE_STRIDE = 0x20
_BLOCK_CAPACITY = 1 << 16  # /32s per top-16 block (the mid-16 bits)
_MAX_PLANES = 16
#: Hard ceiling on num_ases: 8 blocks x 16 planes x 65536 slots.
MAX_ASES = len(_TOP16_BLOCKS) * _MAX_PLANES * _BLOCK_CAPACITY

_NAME_STEMS = (
    "Nimbus", "Vertex", "Borealis", "Quanta", "Helios", "Zephyr", "Atlas",
    "Meridian", "Cobalt", "Lumen", "Aurora", "Solstice", "Pinnacle", "Delta",
    "Horizon", "Catalyst", "Apex", "Summit", "Polaris", "Equinox", "Vector",
    "Onyx", "Crystal", "Falcon", "Condor", "Sierra", "Tundra", "Savanna",
)

_TYPE_SUFFIX = {
    OrgType.ISP: "Telecom",
    OrgType.MOBILE: "Mobile",
    OrgType.CLOUD: "Cloud",
    OrgType.HOSTING: "Hosting",
    OrgType.CDN: "CDN",
    OrgType.EDUCATION: "University",
    OrgType.GOVERNMENT: "Gov",
    OrgType.ENTERPRISE: "Systems",
    OrgType.SECURITY: "Shield",
}

_COUNTRIES = (
    "US", "DE", "FR", "NL", "GB", "BR", "MX", "JP", "CN", "IN", "NP", "ID",
    "AU", "ZA", "SE", "PL", "ES", "IT", "CA", "KR", "AR", "CL", "EG", "TR",
)

_SALT_TOPOLOGY = 0x70
_SALT_MID16 = 0x72
_SALT_ASN = 0x73

_ASN_BASE = 1000

#: The mega-ISP's fixed /32 (an AS12322 analogue outside every plane).
_MEGA_SLASH32 = (0x2A01 << 112) | (0x0E00 << 96)
_MEGA_TOP32 = _MEGA_SLASH32 >> 96


# -- invertible rank mappings ------------------------------------------------


@lru_cache(maxsize=512)
def _domain_key(*parts: int) -> int:
    """``hash64(*parts)``, memoised: a Feistel key is hashed once per config."""
    return hash64(*parts)


@lru_cache(maxsize=512)
def _round_tables(key: int, half: int) -> tuple[tuple[int, ...], ...]:
    """The four round functions ``hash64(key, rnd, x) & mask`` as tables.

    One entry per ``x`` in ``[0, 2**half)``: at most 4 x 4,096 entries
    (the 24-bit ASN domain of ``MAX_ASES``), filled by one batch hash.
    """
    domain = np.arange(1 << half, dtype=np.uint64)
    mask = np.uint64((1 << half) - 1)
    return tuple(
        tuple((hash64_batch(key, rnd, domain) & mask).tolist()) for rnd in range(4)
    )


def _feistel(bits: int, value: int, key: int, invert: bool = False) -> int:
    """A 4-round Feistel permutation over ``[0, 2**bits)`` (bits even).

    Round functions are :func:`hash64` draws keyed on ``key``, so each
    (seed, salt) domain gets its own scatter; they are read from
    :func:`_round_tables`.  Inverting runs the rounds backwards; both
    directions are O(1).
    """
    half = bits // 2
    f0, f1, f2, f3 = _round_tables(key, half)
    left, right = value >> half, value & ((1 << half) - 1)
    if not invert:
        left, right = right, left ^ f0[right]
        left, right = right, left ^ f1[right]
        left, right = right, left ^ f2[right]
        left, right = right, left ^ f3[right]
    else:
        left, right = right ^ f3[left], left
        left, right = right ^ f2[left], left
        left, right = right ^ f1[left], left
        left, right = right ^ f0[left], left
    return (left << half) | right


def _asn_domain_bits(num_ases: int) -> int:
    """Even bit width of the ASN permutation domain (>= num_ases)."""
    bits = max(8, (max(num_ases, 2) - 1).bit_length())
    return bits + (bits & 1)


def asn_for_rank(config: InternetConfig, rank: int) -> int:
    """The (odd) ASN assigned to AS ``rank`` — pure, invertible."""
    bits = _asn_domain_bits(config.num_ases)
    scattered = _feistel(bits, rank, _domain_key(config.master_seed, _SALT_ASN))
    return _ASN_BASE + 1 + 2 * scattered


def rank_for_asn(config: InternetConfig, asn: int) -> int | None:
    """Inverse of :func:`asn_for_rank` (None for non-generated ASNs)."""
    offset = asn - _ASN_BASE - 1
    if offset < 0 or offset % 2:
        return None
    bits = _asn_domain_bits(config.num_ases)
    scattered = offset // 2
    if scattered >= (1 << bits):
        return None
    rank = _feistel(
        bits, scattered, _domain_key(config.master_seed, _SALT_ASN), invert=True
    )
    return rank if rank < config.num_ases else None


def slash32_for_rank(config: InternetConfig, rank: int) -> int:
    """The /32 allocated to AS ``rank`` (128-bit prefix value).

    Rank-ordered: ranks interleave across the top-16 blocks and fill
    planes in order, while the mid-16 bits are scattered by a per-
    (block, plane) Feistel permutation so allocations stay sparse the
    way registry policies leave real address space.
    """
    blocks = len(_TOP16_BLOCKS)
    block = rank % blocks
    slot = (rank // blocks) % _BLOCK_CAPACITY
    plane = rank // (blocks * _BLOCK_CAPACITY)
    mid16 = _feistel(16, slot, _domain_key(config.master_seed, _SALT_MID16, block, plane))
    top16 = _TOP16_BLOCKS[block] + plane * _PLANE_STRIDE
    return (top16 << 112) | (mid16 << 96)


def rank_for_top32(config: InternetConfig, top32: int) -> int | None:
    """Owning AS rank for the top 32 address bits (None if unallocated).

    The O(planes) inverse of :func:`slash32_for_rank`: recover (block,
    plane) from the top 16 bits, invert the mid-16 Feistel to the slot,
    and recompose the rank.
    """
    top16 = top32 >> 16
    mid16 = top32 & 0xFFFF
    blocks = len(_TOP16_BLOCKS)
    max_plane = (config.num_ases - 1) // (blocks * _BLOCK_CAPACITY)
    for plane in range(max_plane + 1):
        base = top16 - plane * _PLANE_STRIDE
        block = _BLOCK_INDEX.get(base)
        if block is None:
            continue
        slot = _feistel(
            16, mid16, _domain_key(config.master_seed, _SALT_MID16, block, plane),
            invert=True,
        )
        rank = (plane * _BLOCK_CAPACITY + slot) * blocks + block
        if rank < config.num_ases:
            return rank
    return None


# -- per-AS derivation -------------------------------------------------------


def _pick_org_type(stream: DeterministicStream, weights: dict[str, float]) -> OrgType:
    draw = stream.next_uniform()
    cumulative = 0.0
    for key, weight in weights.items():
        cumulative += weight
        if draw < cumulative:
            return OrgType(key)
    return OrgType.ENTERPRISE


def _site_subnet16(stream: DeterministicStream, site_index: int) -> int:
    """Structured /48 index within the /32 for a site."""
    style = stream.next_below(10)
    if style < 6:
        return site_index  # sequential: 0, 1, 2, ...
    if style < 9:
        return site_index * 0x10  # strided: 0, 0x10, 0x20, ...
    return stream.next_below(0x1000)  # occasional scattered allocation


def _region_subnet16(stream: DeterministicStream, region_index: int) -> int:
    """Structured /64 index within the /48 for a region."""
    style = stream.next_below(10)
    if style < 6:
        return region_index + 1  # ::1:, ::2:, ...
    if style < 9:
        return (region_index + 1) * 0x100
    return stream.next_below(0x10000)


def _role_plan(org: OrgType, stream: DeterministicStream) -> list[tuple[RegionRole, int]]:
    """(role, count) plan for one AS of the given organisation type."""

    def between(lo: int, hi: int) -> int:
        return lo + stream.next_below(hi - lo + 1)

    if org in (OrgType.ISP, OrgType.MOBILE):
        plan = [
            (RegionRole.ROUTER, between(2, 4)),
            (RegionRole.SUBSCRIBER, between(4, 14) if org is OrgType.ISP else between(8, 18)),
            # CPE gateways: dense sequential ::1-per-/64 runs that answer
            # ping but nothing else — the ICMP-only population that makes
            # port-specific seed datasets worthwhile (paper RQ2).
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
    # Education / government / enterprise.
    return [
        (RegionRole.ROUTER, between(1, 3)),
        (RegionRole.ENTERPRISE, between(3, 10)),
    ]


def _pattern_for(role: RegionRole, org: OrgType, stream: DeterministicStream) -> PatternKind:
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
    # Servers.
    if org is OrgType.CDN:
        return PatternKind.LOW if draw < 0.85 else PatternKind.WORDY
    if draw < 0.5:
        return PatternKind.LOW
    if draw < 0.75:
        return PatternKind.WORDY
    return PatternKind.EUI64


def _profile_for(
    role: RegionRole, org: OrgType, stream: DeterministicStream
) -> PortProfile:
    """Service profile for a region.

    Port activity is *region-correlated*: a /64 is either provisioned as
    a web rack, a DNS farm, internal infrastructure, etc.  This is what
    makes port-specific seed datasets informative (paper RQ2): knowing an
    address answers TCP/443 says a lot about its whole region.
    """
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


def _density_for(
    role: RegionRole, org: OrgType, config: InternetConfig, stream: DeterministicStream
) -> int:
    def between(lo: int, hi: int) -> int:
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


def _as_stream(config: InternetConfig, rank: int) -> DeterministicStream:
    """The AS's private draw stream — the whole AS derives from it."""
    return DeterministicStream(config.master_seed, _SALT_TOPOLOGY, rank)


def _header_from_stream(
    config: InternetConfig, rank: int, stream: DeterministicStream
) -> tuple[ASInfo, OrgType, int]:
    """Consume the header draws; return ``(info, org, slash32)``."""
    org = _pick_org_type(stream, config.org_weights)
    stem = _NAME_STEMS[stream.next_below(len(_NAME_STEMS))]
    country = _COUNTRIES[stream.next_below(len(_COUNTRIES))]
    slash32 = slash32_for_rank(config, rank)
    info = ASInfo(
        asn=asn_for_rank(config, rank),
        name=f"{stem} {_TYPE_SUFFIX[org]} {rank}",
        org_type=org,
        country=country,
        prefixes=(Prefix(slash32, 32),),
    )
    return info, org, slash32


def derive_as_info(config: InternetConfig, rank: int) -> ASInfo:
    """AS metadata only — the cheap prefix of :func:`derive_as`."""
    info, _, _ = _header_from_stream(config, rank, _as_stream(config, rank))
    return info


def derive_as(config: InternetConfig, rank: int) -> tuple[ASInfo, list[Region]]:
    """Fully derive one AS: metadata plus all its ground-truth regions.

    Pure function of ``(config, rank)`` — both the eager and the lazy
    topology call exactly this, which is what makes them bit-identical
    regardless of materialisation order.
    """
    stream = _as_stream(config, rank)
    info, org, slash32 = _header_from_stream(config, rank, stream)
    regions = _make_regions(config, stream, info.asn, org, slash32)
    return info, regions


def _make_regions(
    config: InternetConfig,
    stream: DeterministicStream,
    asn: int,
    org: OrgType,
    slash32: int,
) -> list[Region]:
    regions: list[Region] = []
    num_sites = config.min_sites_per_as + stream.next_below(
        config.max_sites_per_as - config.min_sites_per_as + 1
    )
    plan = _role_plan(org, stream)
    flat_roles = [role for role, count in plan for _ in range(count)]
    used_net64: set[int] = set()
    site_nets = []
    for site_index in range(num_sites):
        site16 = _site_subnet16(stream, site_index)
        site_nets.append((slash32 >> 64) | (site16 << 16))
    for region_index, role in enumerate(flat_roles):
        site_net48 = site_nets[region_index % num_sites]
        for _ in range(8):  # retry on subnet collisions
            subnet16 = _region_subnet16(stream, region_index)
            net64 = site_net48 | subnet16
            if net64 not in used_net64:
                break
        else:
            continue
        used_net64.add(net64)
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
            # Aliased infrastructure persists; retirement churn applies
            # to genuinely assigned regions only.
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
    return regions


# -- the mega ISP ------------------------------------------------------------


def mega_isp_info(config: InternetConfig) -> ASInfo:
    """Metadata of the AS12322 analogue."""
    return ASInfo(
        asn=config.mega_isp_asn,
        name="Libre Telecom (AS12322 analogue)",
        org_type=OrgType.ISP,
        country="FR",
        prefixes=(Prefix(_MEGA_SLASH32, 32),),
    )


def _mega_profile(config: InternetConfig) -> PortProfile:
    return PortProfile(
        icmp=config.mega_isp_icmp_response, tcp80=0.004, tcp443=0.004, udp53=0.001
    )


def mega_region(config: InternetConfig, index: int) -> Region:
    """The mega-ISP region at ``index`` — a huge, saturated ``::1`` run.

    Sequential sites, sequential subnets: variation confined to a narrow
    nybble band, exactly like the pattern Steger et al. found.  Every
    /64 answers ICMP on its ``::1`` with the configured probability; the
    pattern is so regular that any TGA finds it, which is why (like the
    paper) ICMP metrics filter this ASN out.
    """
    site16 = index // 0x100
    subnet16 = index % 0x100
    net64 = (_MEGA_SLASH32 >> 64) | (site16 << 16) | subnet16
    return Region(
        net64=net64,
        asn=config.mega_isp_asn,
        role=RegionRole.SUBSCRIBER,
        pattern=PatternKind.LOW,
        density=1,
        profile=_mega_profile(config),
        churn_rate=0.02,
        salt=hash64(config.master_seed, net64),
    )


def mega_index_for_net64(config: InternetConfig, net64: int) -> int | None:
    """Region index of a mega-ISP /64, or None when outside the run."""
    if net64 >> 32 != _MEGA_TOP32:
        return None
    subnet16 = net64 & 0xFFFF
    if subnet16 >= 0x100:
        return None
    index = ((net64 >> 16) & 0xFFFF) * 0x100 + subnet16
    return index if index < config.mega_isp_regions else None


def _check_config(config: InternetConfig) -> None:
    if config.num_ases > MAX_ASES:
        raise ValueError(
            f"num_ases={config.num_ases} exceeds the allocation plan "
            f"capacity ({MAX_ASES})"
        )
    if rank_for_asn(config, config.mega_isp_asn) is not None:
        raise ValueError(
            "mega_isp_asn collides with a generated ASN; pick an even ASN"
        )


# -- eager topology (the reference walk) -------------------------------------


@dataclass(frozen=True)
class Topology:
    """The generated world: AS registry plus all ground-truth regions."""

    registry: ASRegistry
    regions: list[Region]
    config: InternetConfig

    @property
    def regions_by_net64(self) -> dict[int, Region]:
        """O(1) region lookup keyed by the high 64 bits (built lazily)."""
        cache = getattr(self, "_net64_cache", None)
        if cache is None:
            cache = {region.net64: region for region in self.regions}
            object.__setattr__(self, "_net64_cache", cache)
        return cache


def build_topology(config: InternetConfig) -> Topology:
    """Materialise the full world eagerly (the reference walk).

    Rank order, then the mega ISP — exactly the order
    :meth:`LazyTopology.iter_regions` streams in.  Kept for tests and
    small worlds; production paths go through :class:`LazyTopology`.
    """
    _check_config(config)
    registry = ASRegistry()
    regions: list[Region] = []
    for rank in range(config.num_ases):
        info, as_regions = derive_as(config, rank)
        registry.register(info)
        regions.extend(as_regions)
    registry.register(mega_isp_info(config))
    regions.extend(
        mega_region(config, index) for index in range(config.mega_isp_regions)
    )
    return Topology(registry=registry, regions=regions, config=config)


# -- lazy topology (deterministic-on-demand) ---------------------------------


class _LazyRegionIndex:
    """Read-only mapping facade over :meth:`LazyTopology.region_for_net64`.

    Drop-in for the eager ``{net64: Region}`` dict on the lookup
    operations the scanner and model hot paths use (``get`` /
    ``__getitem__`` / ``in``).
    """

    __slots__ = ("_topology",)

    def __init__(self, topology: "LazyTopology") -> None:
        self._topology = topology

    def get(self, net64: int, default: Region | None = None) -> Region | None:
        region = self._topology.region_for_net64(net64)
        return default if region is None else region

    def __getitem__(self, net64: int) -> Region:
        region = self._topology.region_for_net64(net64)
        if region is None:
            raise KeyError(net64)
        return region

    def __contains__(self, net64: int) -> bool:
        return self._topology.region_for_net64(net64) is not None


class LazyASRegistry:
    """AS registry answers derived on demand — no eager registration.

    Interface-compatible with :class:`~repro.asdb.ASRegistry` for every
    read operation the experiment layer uses; prefix→ASN attribution is
    the O(1) inverse allocation math instead of a trie walk, and the
    batch queries resolve each distinct /32 once.
    """

    def __init__(self, topology: "LazyTopology") -> None:
        self._topology = topology
        self._all_asns: list[int] | None = None

    # -- population (unsupported: the world is derived, not declared) ---

    def register(self, info: ASInfo) -> None:
        raise TypeError("LazyASRegistry is derived from the seed; register() is not supported")

    def announce(self, prefix: Prefix, asn: int) -> None:
        raise TypeError("LazyASRegistry is derived from the seed; announce() is not supported")

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return self._topology.config.num_ases + 1  # + the mega ISP

    def __contains__(self, asn: int) -> bool:
        config = self._topology.config
        return asn == config.mega_isp_asn or rank_for_asn(config, asn) is not None

    def asn_of(self, address: int) -> int | None:
        """ASN originating ``address``, or None if unrouted."""
        return self._asn_of_top32((address >> 96) & 0xFFFF_FFFF)

    def _asn_of_top32(self, top32: int) -> int | None:
        config = self._topology.config
        if top32 == _MEGA_TOP32:
            return config.mega_isp_asn
        rank = rank_for_top32(config, top32)
        return None if rank is None else asn_for_rank(config, rank)

    def info(self, asn: int) -> ASInfo:
        """Metadata for an ASN.  Raises KeyError for unknown ASNs."""
        config = self._topology.config
        if asn == config.mega_isp_asn:
            return self._topology.mega_info
        rank = rank_for_asn(config, asn)
        if rank is None:
            raise KeyError(asn)
        return self._topology.info_for_rank(rank)

    def all_asns(self) -> list[int]:
        """All registered ASNs, sorted (derived once, then cached)."""
        if self._all_asns is None:
            config = self._topology.config
            asns = [asn_for_rank(config, rank) for rank in range(config.num_ases)]
            asns.append(config.mega_isp_asn)
            asns.sort()
            self._all_asns = asns
        return self._all_asns

    def ases_of(self, addresses: Iterable[int]) -> set[int]:
        """Distinct ASNs originating any of the given addresses."""
        top32s = {(address >> 96) & 0xFFFF_FFFF for address in addresses}
        result = {self._asn_of_top32(top32) for top32 in top32s}
        result.discard(None)
        return result

    def count_by_as(self, addresses: Iterable[int]) -> Counter[int]:
        """Counter of how many of the given addresses fall in each AS."""
        per_top32 = Counter((address >> 96) & 0xFFFF_FFFF for address in addresses)
        counts: Counter[int] = Counter()
        for top32, count in per_top32.items():
            asn = self._asn_of_top32(top32)
            if asn is not None:
                counts[asn] = count
        return counts

    def group_by_as(self, addresses: Iterable[int]) -> dict[int, list[int]]:
        """Group addresses by originating ASN (unrouted addresses dropped)."""
        by_top32: dict[int, list[int]] = {}
        for address in addresses:
            by_top32.setdefault((address >> 96) & 0xFFFF_FFFF, []).append(address)
        # Each AS owns exactly one /32, so a /32's group is its AS's group.
        groups: dict[int, list[int]] = {}
        for top32, group in by_top32.items():
            asn = self._asn_of_top32(top32)
            if asn is not None:
                groups[asn] = group
        return groups

    def announced_prefixes(self) -> list[tuple[Prefix, int]]:
        """All (prefix, asn) announcements in address order."""
        config = self._topology.config
        pairs = [
            (Prefix(slash32_for_rank(config, rank), 32), asn_for_rank(config, rank))
            for rank in range(config.num_ases)
        ]
        pairs.append((Prefix(_MEGA_SLASH32, 32), config.mega_isp_asn))
        pairs.sort(key=lambda pair: pair[0].value)
        return pairs


class LazyTopology:
    """Indexable, deterministic-on-demand world.

    ASes materialise at first touch and live in a bounded LRU; evicted
    ASes re-derive bit-identically when touched again, so the resident
    set is purely a cache — answers never depend on touch order.  The
    mega ISP's regions derive individually from the region index (its
    run is formulaic), cached in their own bounded LRU.

    ``max_resident_ases`` caps the resident set (``None`` = unbounded,
    the right default for test/bench scales where callers still iterate
    whole worlds).  :meth:`pin_all` switches to fully-materialised mode
    (disables eviction) for eager-compatible consumers.
    """

    #: Mega-region cache entries kept per topology (a /64 each).
    _MEGA_CACHE_LIMIT = 4096
    #: Header-only ASInfo cache entries (tiny; avoids stream re-runs).
    _INFO_CACHE_LIMIT = 8192

    def __init__(
        self, config: InternetConfig, max_resident_ases: int | None = None
    ) -> None:
        _check_config(config)
        self.config = config
        self._max_resident = (
            config.max_resident_ases if max_resident_ases is None else max_resident_ases
        )
        self._as_cache: OrderedDict[int, tuple[ASInfo, dict[int, Region]]] = OrderedDict()
        self._info_cache: OrderedDict[int, ASInfo] = OrderedDict()
        self._mega_cache: OrderedDict[int, Region] = OrderedDict()
        self._mega_info: ASInfo | None = None
        self._pinned: list[Region] | None = None
        #: Cumulative materialisation counters (cheap plain ints; the
        #: ``internet.lazy.*`` telemetry counters mirror them when a
        #: registry is active at materialisation time).
        self.materialized_ases = 0
        self.evicted_ases = 0
        self.materialized_mega = 0
        self.registry = LazyASRegistry(self)
        self.regions_by_net64 = _LazyRegionIndex(self)

    # -- bookkeeping ----------------------------------------------------

    @property
    def resident_ases(self) -> int:
        """ASes currently materialised (excludes the mega-ISP cache)."""
        return len(self._as_cache)

    @property
    def pinned(self) -> bool:
        """Whether :meth:`pin_all` has materialised the whole world."""
        return self._pinned is not None

    @property
    def mega_info(self) -> ASInfo:
        if self._mega_info is None:
            self._mega_info = mega_isp_info(self.config)
        return self._mega_info

    def lazy_stats(self) -> dict[str, int]:
        """Materialisation counters (for telemetry and budget tests)."""
        return {
            "resident_ases": self.resident_ases,
            "materialized_ases": self.materialized_ases,
            "evicted_ases": self.evicted_ases,
            "materialized_mega": self.materialized_mega,
            "resident_mega": len(self._mega_cache),
            "pinned": int(self.pinned),
        }

    # -- materialisation ------------------------------------------------

    def _as_entry(self, rank: int) -> tuple[ASInfo, dict[int, Region]]:
        entry = self._as_cache.get(rank)
        if entry is not None:
            self._as_cache.move_to_end(rank)
            return entry
        info, regions = derive_as(self.config, rank)
        entry = (info, {region.net64: region for region in regions})
        self._as_cache[rank] = entry
        self.materialized_ases += 1
        from ..telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.count("internet.lazy.as_materialized")
        if self._max_resident is not None and self._pinned is None:
            while len(self._as_cache) > self._max_resident:
                self._as_cache.popitem(last=False)
                self.evicted_ases += 1
                if tel.enabled:
                    tel.count("internet.lazy.as_evicted")
        return entry

    def info_for_rank(self, rank: int) -> ASInfo:
        """AS metadata by rank — header draws only, never regions."""
        if not 0 <= rank < self.config.num_ases:
            raise IndexError(rank)
        entry = self._as_cache.get(rank)
        if entry is not None:
            return entry[0]
        info = self._info_cache.get(rank)
        if info is None:
            info = derive_as_info(self.config, rank)
            self._info_cache[rank] = info
            while len(self._info_cache) > self._INFO_CACHE_LIMIT:
                self._info_cache.popitem(last=False)
        else:
            self._info_cache.move_to_end(rank)
        return info

    def regions_for_rank(self, rank: int) -> list[Region]:
        """All regions of AS ``rank``, in derivation order."""
        if not 0 <= rank < self.config.num_ases:
            raise IndexError(rank)
        return list(self._as_entry(rank)[1].values())

    def _mega_region_for_net64(self, net64: int) -> Region | None:
        index = mega_index_for_net64(self.config, net64)
        if index is None:
            return None
        region = self._mega_cache.get(net64)
        if region is None:
            region = mega_region(self.config, index)
            self._mega_cache[net64] = region
            self.materialized_mega += 1
            if self._pinned is None:
                while len(self._mega_cache) > self._MEGA_CACHE_LIMIT:
                    self._mega_cache.popitem(last=False)
        else:
            self._mega_cache.move_to_end(net64)
        return region

    def region_for_net64(self, net64: int) -> Region | None:
        """The region owning the /64, derived on first touch."""
        top32 = net64 >> 32
        if top32 == _MEGA_TOP32:
            return self._mega_region_for_net64(net64)
        rank = rank_for_top32(self.config, top32)
        if rank is None:
            return None
        return self._as_entry(rank)[1].get(net64)

    def regions_for_net64s(self, net64s: Iterable[int]) -> dict[int, Region | None]:
        """``{net64: region_for_net64(net64)}`` over a batch of /64s.

        Resolves each owning AS once per call: the /64s are grouped by
        /32 (one per AS), ASes already resident are served first so that
        deriving the others cannot evict them mid-call, and each missing
        AS is then derived exactly once.  The returned map holds its
        regions, so evictions later in the same call lose nothing.
        """
        by_top32: dict[int, list[int]] = {}
        for net64 in net64s:
            by_top32.setdefault(net64 >> 32, []).append(net64)
        result: dict[int, Region | None] = {}

        def serve(rank: int, nets: list[int]) -> None:
            regions = self._as_entry(rank)[1]
            for net64 in nets:
                result[net64] = regions.get(net64)

        missing: list[tuple[int, list[int]]] = []
        for top32, nets in by_top32.items():
            if top32 == _MEGA_TOP32:
                for net64 in nets:
                    result[net64] = self._mega_region_for_net64(net64)
                continue
            rank = rank_for_top32(self.config, top32)
            if rank is None:
                result.update(dict.fromkeys(nets))
            elif rank in self._as_cache:
                serve(rank, nets)
            else:
                missing.append((rank, nets))
        for rank, nets in missing:
            serve(rank, nets)
        return result

    def iter_regions(self) -> Iterator[Region]:
        """Stream every region in the canonical (eager) order.

        Under a resident budget this never holds more than the LRU bound
        of ASes at once; with the world pinned it walks the pinned list.
        """
        if self._pinned is not None:
            yield from self._pinned
            return
        for rank in range(self.config.num_ases):
            yield from self._as_entry(rank)[1].values()
        for index in range(self.config.mega_isp_regions):
            region = self._mega_cache.get(
                (_MEGA_SLASH32 >> 64) | ((index // 0x100) << 16) | (index % 0x100)
            )
            yield region if region is not None else mega_region(self.config, index)

    def pin_all(self) -> list[Region]:
        """Materialise the whole world and disable eviction.

        The eager-compatibility path: consumers that genuinely need the
        full region list (dataset collection, world stats at test
        scales) get the same objects subsequent lookups return.
        """
        if self._pinned is None:
            self._max_resident = None
            regions: list[Region] = []
            for rank in range(self.config.num_ases):
                regions.extend(self._as_entry(rank)[1].values())
            for index in range(self.config.mega_isp_regions):
                net64 = (_MEGA_SLASH32 >> 64) | ((index // 0x100) << 16) | (index % 0x100)
                region = self._mega_cache.get(net64)
                if region is None:
                    region = mega_region(self.config, index)
                    self._mega_cache[net64] = region
                    self.materialized_mega += 1
                regions.append(region)
            self._pinned = regions
            from ..telemetry import get_telemetry

            tel = get_telemetry()
            if tel.enabled:
                tel.count("internet.lazy.pinned_regions", len(regions))
        return self._pinned

    @property
    def regions(self) -> list[Region]:
        """Full region list (pins the world; prefer :meth:`iter_regions`)."""
        return self.pin_all()
