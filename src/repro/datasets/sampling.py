"""The sampling engine that turns a :class:`SourceSpec` into seeds.

All draws are pure functions of (master seed, source salt, entity id), so
a collection is reproducible regardless of iteration order, and two
sources sampling the same region overlap exactly as much as their
per-address draws dictate.
"""

from __future__ import annotations

from itertools import compress

from ..addr.rand import coin, coin_batch, hash64
from ..addr.vector import PackedAddresses, np
from ..asdb import ASInfo
from ..internet import Region, SimulatedInternet
from .base import SeedDataset
from .sources import COLLECTION_DATES, SourceSpec

__all__ = ["collect_source"]

_SALT_AS = 0xD0
_SALT_REGION = 0xD1
_SALT_ALIAS = 0xD2
_SALT_ADDRESS = 0xD3
_SALT_EXTRA = 0xD4

#: Churn rate beyond which a region counts as "stale-prone" for the
#: archival-source boost.
_STALE_CHURN_THRESHOLD = 0.15


def _as_visible(spec: SourceSpec, seed: int, asn: int, country: str) -> bool:
    probability = spec.as_coverage
    if spec.country_bias:
        if country in spec.country_bias:
            probability = min(1.0, probability * 3.0)
        else:
            probability *= 1.0 - spec.country_bias_strength
    return coin(probability, seed, spec.salt, _SALT_AS, asn)


def _region_probability(spec: SourceSpec, region: Region, extra: bool) -> float:
    probability = spec.extra_role_fraction if extra else spec.region_coverage
    stale = region.retired or region.churn_rate >= _STALE_CHURN_THRESHOLD
    if stale and spec.stale_boost != 1.0:
        probability = min(1.0, probability * spec.stale_boost)
    return probability


def _sample_addresses(
    spec: SourceSpec, seed: int, draws: list[tuple[Region, list[int], float]]
) -> list[int]:
    """The addresses a source keeps from each ``(region, pool, fraction)``.

    Per-address membership draws keep overlap semantics clean across
    sources: each (source, address) pair is an independent coin.  The
    coins of every pool are drawn in one batch, each address against
    its own region's fraction; a region whose coins all fail still
    contributes one deterministic address.
    """
    picked: list[int] = []
    partial = []
    for region, pool, fraction in draws:
        if fraction >= 1.0:
            picked.extend(pool)
        else:
            partial.append((region, pool, fraction))
    if not partial:
        return picked
    sizes = [len(pool) for _, pool, _ in partial]
    pools = [address for _, pool, _ in partial for address in pool]
    packed = PackedAddresses(
        np.repeat(np.fromiter((region.net64 for region, _, _ in partial), np.uint64), sizes),
        np.fromiter((address & 0xFFFF_FFFF_FFFF_FFFF for address in pools), np.uint64),
    )
    fractions = np.repeat(np.array([fraction for _, _, fraction in partial]), sizes)
    keep = coin_batch(fractions, seed, spec.salt, _SALT_ADDRESS, packed)
    picked.extend(compress(pools, keep.tolist()))
    offsets = np.cumsum([0, *sizes[:-1]])
    for index in np.flatnonzero(np.add.reduceat(keep, offsets) == 0).tolist():
        region, pool, _ = partial[index]
        picked.append(pool[hash64(seed, spec.salt, region.net64) % len(pool)])
    return picked


def _observable(region: Region, pools: dict[int, list[int]]) -> list[int]:
    """``region.observable_addresses()``, built once per ``pools`` dict."""
    pool = pools.get(region.net64)
    if pool is None:
        pool = pools[region.net64] = region.observable_addresses()
    return pool


def collect_source(
    internet: SimulatedInternet,
    spec: SourceSpec,
    pools: dict[int, list[int]] | None = None,
) -> SeedDataset:
    """Collect one source's seed dataset from the ground truth.

    ``pools`` maps a region's /64 to its observable addresses, which
    depend on the world alone: sources collected with one dict (the 12
    of a :func:`~repro.datasets.collect_all` call) build each region's
    list once and share it.  The dict lives as long as the caller keeps
    it, never on the region.
    """
    if pools is None:
        pools = {}
    seed = internet.config.master_seed
    registry = internet.registry
    primary_roles = set(spec.roles)
    extra_roles = set(spec.extra_roles)
    org_types = set(spec.org_types)
    # Every visible candidate ``(region, is_primary)`` with its region
    # coin's probability and salt: the coins are drawn in one batch.
    candidates: list[tuple[Region, bool]] = []
    probabilities: list[float] = []
    coin_salts: list[int] = []

    # ``{asn: (info, visible)}``, resolved once per AS.
    ases: dict[int, tuple[ASInfo, bool]] = {}
    fallback_region = None

    for region in internet.regions:
        is_primary = region.role in primary_roles
        is_extra = region.role in extra_roles
        if not (is_primary or is_extra):
            continue
        entry = ases.get(region.asn)
        if entry is None:
            info = registry.info(region.asn)
            visible = _as_visible(spec, seed, region.asn, info.country)
            entry = ases[region.asn] = (info, visible)
        info, visible = entry
        if is_primary and info.org_type not in org_types:
            # Extra roles ignore the organisation filter: traceroutes see
            # everything on path regardless of who owns it.
            if not is_extra:
                continue
            is_primary = False
        if is_primary and not region.aliased and fallback_region is None:
            fallback_region = region
        if not visible:
            continue
        candidates.append((region, is_primary))
        if region.aliased:
            probabilities.append(spec.alias_inclusion)
            coin_salts.append(_SALT_ALIAS)
        else:
            probabilities.append(_region_probability(spec, region, extra=not is_primary))
            coin_salts.append(_SALT_REGION if is_primary else _SALT_EXTRA)

    nets = np.fromiter(
        (region.net64 for region, _ in candidates), dtype=np.uint64, count=len(candidates)
    )
    kept = coin_batch(
        np.array(probabilities, dtype=np.float64),
        seed,
        spec.salt,
        np.array(coin_salts, dtype=np.uint64),
        nets,
    )
    draws: list[tuple[Region, list[int], float]] = []
    alias_regions_sampled = 0
    for region, is_primary in compress(candidates, kept.tolist()):
        if region.aliased:
            alias_regions_sampled += 1
        pool = _observable(region, pools)
        if pool:
            fraction = spec.address_fraction * (1.0 if is_primary or region.aliased else 0.5)
            draws.append((region, pool, fraction))

    addresses = set(_sample_addresses(spec, seed, draws))
    regions_sampled = len(draws)
    if not addresses and fallback_region is not None:
        # Degenerate coverage draw (possible in very small worlds): every
        # real-world source still contributes *something*, so sample the
        # first eligible region outright.
        addresses.update(_observable(fallback_region, pools))
        regions_sampled += 1

    return SeedDataset(
        name=spec.name,
        kind=spec.kind,
        addresses=frozenset(addresses),
        collected=COLLECTION_DATES.get(spec.name, ""),
        metadata={
            "regions_sampled": regions_sampled,
            "alias_regions_sampled": alias_regions_sampled,
        },
    )
