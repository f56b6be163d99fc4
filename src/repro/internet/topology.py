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
* an AS derives in one walk over its stream's draws, read from one flat
  array with a cursor: the walk fixes each region's /64, role and the
  offset of its field draws and skips those draws by count, and a
  :class:`RegionTable` decodes a region's fields into a
  :class:`~repro.internet.regions.Region` the first time the region is
  read, so a lookup builds only the region it returns;
* one mega-ISP (the AS12322 analogue) contributes a large, trivially
  discoverable ``::1``-per-/64 ICMP pattern, itself derived on demand
  from the region index.

The structured subnet numbering is deliberate: it is the regularity that
real allocation policies exhibit and that TGAs exploit.
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
    "RegionTable",
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

_TWO64 = 18446744073709551616.0  # 2**64: a draw's uniform is ``draw / _TWO64``
#: Draws taken from an AS's stream at a time (one stream block).
_TAKE = 256
#: Draws of the header: organisation type, name stem and country.
_HEADER_DRAWS = 3
#: The most draws one region uses: 8 subnet tries of up to two draws
#: each, then at most 8 field draws.
_REGION_DRAWS_MAX = 8 * 2 + 8

#: Each organisation type's regions, as ``(role, min, max)``: ``min``
#: plus a draw below ``max - min + 1`` regions of the role, drawn in this
#: order.  ISPs and mobile carriers then add 1–2 servers on a fair coin.
_ROLE_PLANS = {
    OrgType.ISP: (
        (RegionRole.ROUTER, 2, 4),
        (RegionRole.SUBSCRIBER, 4, 14),
        # CPE gateways: dense sequential ::1-per-/64 runs that answer
        # ping but nothing else — the ICMP-only population that makes
        # port-specific seed datasets worthwhile (paper RQ2).
        (RegionRole.GATEWAY, 10, 26),
    ),
    OrgType.MOBILE: (
        (RegionRole.ROUTER, 2, 4),
        (RegionRole.SUBSCRIBER, 8, 18),
        (RegionRole.GATEWAY, 10, 26),
    ),
    OrgType.CLOUD: (
        (RegionRole.ROUTER, 1, 2),
        (RegionRole.SERVER, 8, 24),
        (RegionRole.DNS, 1, 2),
    ),
    OrgType.HOSTING: (
        (RegionRole.ROUTER, 1, 2),
        (RegionRole.SERVER, 6, 18),
        (RegionRole.DNS, 0, 1),
    ),
    OrgType.CDN: ((RegionRole.ROUTER, 1, 2), (RegionRole.SERVER, 14, 34)),
    OrgType.SECURITY: (
        (RegionRole.ROUTER, 1, 2),
        (RegionRole.DNS, 4, 10),
        (RegionRole.SERVER, 2, 6),
    ),
}
#: Education, government and enterprise.
_OFFICE_PLAN = ((RegionRole.ROUTER, 1, 3), (RegionRole.ENTERPRISE, 3, 10))

_RENUMBERED_ROLES = (RegionRole.SERVER, RegionRole.DNS, RegionRole.ENTERPRISE)
_ALIASABLE_ROLES = (RegionRole.SERVER, RegionRole.DNS)


def _field_layout(org: OrgType, role: RegionRole) -> tuple[int, int]:
    """``(count, alias coin)`` of a region's field draws.

    Four draws always (churn, retirement, pattern, density), plus one
    each for renumbering (server, DNS, enterprise), the router firewall
    coin and the profile choice (enterprise, non-CDN server).  A
    datacenter's server or DNS region also draws its alias coin, at
    field draw 3 (0: no coin); an aliased region then draws its rate
    limit, which ``count`` leaves out.  :meth:`RegionTable._decode`
    reads exactly these draws.
    """
    count = 4
    if role in _RENUMBERED_ROLES:
        count += 1
    if role is RegionRole.ROUTER:
        count += 1
    if role is RegionRole.ENTERPRISE or (
        role is RegionRole.SERVER and org is not OrgType.CDN
    ):
        count += 1
    if org.is_datacenter and role in _ALIASABLE_ROLES:
        return count + 1, 3
    return count, 0


_FIELD_LAYOUT = {
    org: {role: _field_layout(org, role) for role in RegionRole} for org in OrgType
}

#: ``{id(config): (config, thresholds)}``, keyed by identity: the entry
#: keeps its config alive, so the id stays its own.  Hashing a config
#: would hash all its fields on every AS.
_ORG_THRESHOLDS: dict[int, tuple[InternetConfig, tuple[tuple[float, OrgType], ...]]] = {}


def _org_thresholds(config: InternetConfig) -> tuple[tuple[float, OrgType], ...]:
    """``(cumulative weight, org type)`` pairs the header's first draw reads."""
    entry = _ORG_THRESHOLDS.get(id(config))
    if entry is None:
        weights = config.org_weights
        thresholds = tuple(zip(accumulate(weights.values()), map(OrgType, weights)))
        if len(_ORG_THRESHOLDS) >= 64:
            _ORG_THRESHOLDS.clear()
        entry = _ORG_THRESHOLDS[id(config)] = (config, thresholds)
    return entry[1]


def _pattern_for(role: RegionRole, org: OrgType, draw: float) -> PatternKind:
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
    role: RegionRole, org: OrgType, draws: array, pos: int
) -> tuple[PortProfile, int]:
    """Service profile for a region, and the cursor after its draw.

    Port activity is *region-correlated*: a /64 is either provisioned as
    a web rack, a DNS farm, internal infrastructure, etc.  This is what
    makes port-specific seed datasets informative (paper RQ2): knowing an
    address answers TCP/443 says a lot about its whole region.
    """
    if role is RegionRole.ROUTER:
        return ROUTER, pos
    if role is RegionRole.GATEWAY:
        return GATEWAY, pos
    if role is RegionRole.SUBSCRIBER:
        return SUBSCRIBER, pos
    if role is RegionRole.DNS:
        return DNS_SERVER, pos
    if role is RegionRole.ENTERPRISE:
        host = draws[pos] / _TWO64 < 0.22
        return (ENTERPRISE_HOST if host else ENTERPRISE_INTERNAL), pos + 1
    if org is OrgType.CDN:
        return CDN_EDGE, pos
    web = draws[pos] / _TWO64 < 0.38
    return (WEB_SERVER if web else INFRA_SERVER), pos + 1


def _density_for(
    role: RegionRole, org: OrgType, config: InternetConfig, draw: int
) -> int:
    if role is RegionRole.ROUTER:
        lo, hi = config.router_density_min, config.router_density_max
    elif role is RegionRole.GATEWAY:
        lo, hi = 1, 3
    elif role is RegionRole.SUBSCRIBER:
        lo, hi = config.subscriber_density_min, config.subscriber_density_max
    elif role is RegionRole.ENTERPRISE:
        lo, hi = config.enterprise_density_min, config.enterprise_density_max
    elif org is OrgType.CDN:
        lo, hi = config.cdn_density_min, config.cdn_density_max
    else:
        lo, hi = config.server_density_min, config.server_density_max
    return lo + draw % max(1, hi - lo + 1)


class RegionTable(Sequence[Region]):
    """An AS's regions, each built the first time it is read.

    The table keeps what the walk decoded — per region its /64, role
    and the offset of its field draws, plus a /64 → index map — and the
    draws the walk consumed, as a compact ``array('Q')``.  Reading
    region ``k`` decodes its fields from its offset and keeps the
    :class:`Region`, so later reads return the same object.  Length,
    iteration and indexing follow derivation order; slices are lists;
    :meth:`get` builds only the region it returns.
    """

    __slots__ = (
        "asn",
        "org",
        "config",
        "_draws",
        "_net64s",
        "_roles",
        "_offsets",
        "_index",
        "_built",
    )

    def __init__(
        self,
        asn: int,
        org: OrgType,
        config: InternetConfig,
        draws: array,
        index: dict[int, int],
        roles: list[RegionRole],
        offsets: list[int],
    ) -> None:
        self.asn = asn
        self.org = org
        self.config = config
        self._draws = draws
        self._net64s = list(index)
        self._roles = roles
        self._offsets = offsets
        self._index = index
        self._built: list[Region | None] = [None] * len(offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        region = self._built[index]
        if region is None:
            k = range(len(self._built))[index]
            region = self._built[k] = self._decode(k)[0]
        return region

    def __iter__(self) -> Iterator[Region]:
        return map(self.__getitem__, range(len(self)))

    def get(self, net64: int) -> Region | None:
        """The region at ``net64``, or None; builds no other region."""
        k = self._index.get(net64)
        return None if k is None else self[k]

    def _decode(self, k: int) -> tuple[Region, int]:
        """Build region ``k`` from its field draws; also return where they end."""
        config, org, draws = self.config, self.org, self._draws
        role = self._roles[k]
        pos = self._offsets[k]
        churn = config.churn_rate_min + draws[pos] / _TWO64 * (
            config.churn_rate_max - config.churn_rate_min
        )
        pos += 1
        if role is RegionRole.SUBSCRIBER:
            churn = min(0.9, churn * config.subscriber_churn_boost)
        if role in _RENUMBERED_ROLES:
            if draws[pos] / _TWO64 < config.renumbered_region_fraction:
                churn = config.renumbered_churn
            pos += 1
        firewalled = False
        if role is RegionRole.ROUTER:
            firewalled = draws[pos] / _TWO64 < config.firewalled_router_fraction
            pos += 1
        retired = draws[pos] / _TWO64 < config.retired_region_fraction
        pos += 1
        aliased = False
        if role in _ALIASABLE_ROLES and org.is_datacenter:
            aliased = draws[pos] / _TWO64 < config.alias_region_fraction * 6
            pos += 1
        alias_response = 1.0
        if aliased:
            # Aliased infrastructure persists; retirement churn applies
            # to genuinely assigned regions only.
            retired = False
            if draws[pos] / _TWO64 < config.rate_limited_alias_fraction:
                alias_response = config.rate_limited_alias_response
            pos += 1
        pattern = _pattern_for(role, org, draws[pos] / _TWO64)
        density = _density_for(role, org, config, draws[pos + 1])
        profile, pos = _profile_for(role, org, draws, pos + 2)
        net64 = self._net64s[k]
        region = Region(
            net64=net64,
            asn=self.asn,
            role=role,
            pattern=pattern,
            density=density,
            profile=profile,
            churn_rate=churn,
            retired=retired,
            firewalled=firewalled,
            aliased=aliased,
            alias_response_prob=alias_response,
            salt=hash64(config.master_seed, net64),
        )
        return region, pos


def _as_stream(config: InternetConfig, rank: int) -> DeterministicStream:
    """The AS's private draw stream — the whole AS derives from it."""
    return DeterministicStream(config.master_seed, _SALT_TOPOLOGY, rank)


def _grow(draws: array, stream: DeterministicStream, need: int) -> None:
    """Append whole takes of ``stream`` until ``draws`` holds ``need``."""
    while len(draws) < need:
        draws.frombytes(stream.take(_TAKE).tobytes())


def _header(
    config: InternetConfig, rank: int, draws: array
) -> tuple[ASInfo, OrgType, int]:
    """Decode the header draws; return ``(info, org, slash32)``."""
    uniform = draws[0] / _TWO64
    org = OrgType.ENTERPRISE
    for threshold, candidate in _org_thresholds(config):
        if uniform < threshold:
            org = candidate
            break
    stem = _NAME_STEMS[draws[1] % len(_NAME_STEMS)]
    country = _COUNTRIES[draws[2] % len(_COUNTRIES)]
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
    """AS metadata only — the header decode :func:`derive_as` starts with."""
    draws = array("Q", _as_stream(config, rank).take(_HEADER_DRAWS).tobytes())
    return _header(config, rank, draws)[0]


def derive_as(config: InternetConfig, rank: int) -> tuple[ASInfo, RegionTable]:
    """Derive one AS: its metadata and its table of ground-truth regions.

    Pure function of ``(config, rank)`` — the eager walk, the lazy
    topology and every other caller derive ASes through exactly this,
    which is what makes them bit-identical regardless of
    materialisation order.  No :class:`Region` is built here; the table
    builds each region when it is first read.
    """
    stream = _as_stream(config, rank)
    draws = array("Q", stream.take(_TAKE).tobytes())
    info, org, slash32 = _header(config, rank, draws)
    return info, _walk(config, stream, draws, info.asn, org, slash32)


def _walk(
    config: InternetConfig,
    stream: DeterministicStream,
    draws: array,
    asn: int,
    org: OrgType,
    slash32: int,
) -> RegionTable:
    """Lay out an AS's regions from the draws after its header.

    Decodes, in stream order, the site count, the role plan, the site
    subnets and each region's subnet tries (eight collisions drop the
    region) and alias coin, and skips each region's other field draws
    by count (:func:`_field_layout`).  ``draws`` grows from ``stream``
    as the cursor nears its end and is cut to the draws consumed.
    """
    pos = _HEADER_DRAWS
    low = config.min_sites_per_as
    num_sites = low + draws[pos] % (config.max_sites_per_as - low + 1)
    pos += 1
    roles: list[RegionRole] = []
    for role, lo, hi in _ROLE_PLANS.get(org, _OFFICE_PLAN):
        roles += [role] * (lo + draws[pos] % (hi - lo + 1))
        pos += 1
    if org is OrgType.ISP or org is OrgType.MOBILE:
        pos += 1
        if draws[pos - 1] / _TWO64 < 0.5:
            roles += [RegionRole.SERVER] * (1 + draws[pos] % 2)
            pos += 1
    _grow(draws, stream, pos + 2 * num_sites)
    base = slash32 >> 64
    sites = []
    for site_index in range(num_sites):
        # Structured /48 indices: sequential, strided or (rarely) scattered.
        style = draws[pos] % 10
        pos += 1
        if style < 6:
            site16 = site_index
        elif style < 9:
            site16 = site_index * 0x10
        else:
            site16 = draws[pos] % 0x1000
            pos += 1
        sites.append(base | (site16 << 16))
    layout = _FIELD_LAYOUT[org]
    alias_threshold = config.alias_region_fraction * 6
    index: dict[int, int] = {}
    kept: list[RegionRole] = []
    offsets: list[int] = []
    limit = len(draws) - _REGION_DRAWS_MAX
    for region_index, role in enumerate(roles):
        if pos > limit:
            _grow(draws, stream, pos + _REGION_DRAWS_MAX)
            limit = len(draws) - _REGION_DRAWS_MAX
        site = sites[region_index % num_sites]
        for _ in range(8):  # retry on subnet collisions
            # Structured /64 indices: ::1:, ::2:, ... or ::100:, ::200:,
            # ... or (rarely) scattered.
            style = draws[pos] % 10
            pos += 1
            if style < 6:
                net64 = site | (region_index + 1)
            elif style < 9:
                net64 = site | ((region_index + 1) * 0x100)
            else:
                net64 = site | (draws[pos] % 0x10000)
                pos += 1
            if net64 not in index:
                break
        else:
            continue  # eight collisions drop the region
        index[net64] = len(kept)
        kept.append(role)
        offsets.append(pos)
        count, coin = layout[role]
        if coin and draws[pos + coin] / _TWO64 < alias_threshold:
            count += 1  # aliased: its rate-limit draw follows
        pos += count
    del draws[pos:]
    return RegionTable(asn, org, config, draws, index, kept, offsets)


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

    ASes materialise at first touch as :class:`RegionTable` entries and
    live in a bounded LRU; a table builds a region when it is first
    read.  Evicted ASes re-derive bit-identically when touched again, so
    the resident set is purely a cache — answers never depend on touch
    order.  The mega ISP's regions derive individually from the region
    index (its run is formulaic), cached in their own bounded LRU.

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
        self._as_cache: OrderedDict[int, tuple[ASInfo, RegionTable]] = OrderedDict()
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

    def _as_entry(self, rank: int) -> tuple[ASInfo, RegionTable]:
        entry = self._as_cache.get(rank)
        if entry is not None:
            self._as_cache.move_to_end(rank)
            return entry
        entry = self._as_cache[rank] = derive_as(self.config, rank)
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
        return list(self._as_entry(rank)[1])

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
            table = self._as_entry(rank)[1]
            for net64 in nets:
                result[net64] = table.get(net64)

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
            yield from self._as_entry(rank)[1]
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
                regions.extend(self._as_entry(rank)[1])
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
