"""Tests for repro.datasets.sampling."""

from dataclasses import replace

import pytest

from repro.asdb import OrgType
from repro.datasets import SourceSpec, collect_source
from repro.datasets.base import SourceKind
from repro.internet import RegionRole


def make_spec(**overrides) -> SourceSpec:
    defaults = dict(
        name="synthetic",
        kind=SourceKind.DOMAIN,
        roles=(RegionRole.SERVER, RegionRole.DNS),
        org_types=(OrgType.CLOUD, OrgType.HOSTING, OrgType.CDN, OrgType.SECURITY),
        as_coverage=1.0,
        region_coverage=1.0,
        address_fraction=1.0,
        salt=0x1234,
    )
    defaults.update(overrides)
    return SourceSpec(**defaults)


class TestCollectSource:
    def test_full_coverage_collects_all_server_observables(self, internet):
        dataset = collect_source(internet, make_spec())
        # Every non-aliased datacenter server observable must be present.
        expected = set()
        for region in internet.regions:
            if region.aliased or region.role not in (
                RegionRole.SERVER,
                RegionRole.DNS,
            ):
                continue
            org = internet.registry.info(region.asn).org_type
            if org.is_datacenter:
                expected.update(region.observable_addresses())
        assert expected <= set(dataset.addresses)

    def test_zero_alias_inclusion_excludes_aliases(self, internet):
        dataset = collect_source(internet, make_spec(alias_inclusion=0.0))
        assert not any(internet.is_aliased_truth(a) for a in dataset.addresses)

    def test_full_alias_inclusion_includes_aliases(self, internet):
        dataset = collect_source(internet, make_spec(alias_inclusion=1.0))
        assert any(internet.is_aliased_truth(a) for a in dataset.addresses)

    def test_address_fraction_scales_size(self, internet):
        full = collect_source(internet, make_spec())
        half = collect_source(internet, make_spec(address_fraction=0.5))
        assert len(half) < len(full)
        assert len(half) > len(full) * 0.3

    def test_as_coverage_scales_ases(self, internet):
        full = collect_source(internet, make_spec())
        sparse = collect_source(internet, make_spec(as_coverage=0.3))
        full_ases = full.ases(internet.registry)
        sparse_ases = sparse.ases(internet.registry)
        assert len(sparse_ases) < len(full_ases)
        assert sparse_ases <= full_ases

    def test_deterministic(self, internet):
        spec = make_spec(address_fraction=0.4)
        a = collect_source(internet, spec)
        b = collect_source(internet, spec)
        assert a.addresses == b.addresses

    def test_salt_changes_sample(self, internet):
        a = collect_source(internet, make_spec(address_fraction=0.4, salt=1))
        b = collect_source(internet, make_spec(address_fraction=0.4, salt=2))
        assert a.addresses != b.addresses

    def test_extra_roles_sampled_thinly(self, internet):
        with_extra = collect_source(
            internet,
            make_spec(
                extra_roles=(RegionRole.ROUTER,),
                extra_role_fraction=1.0,
            ),
        )
        without = collect_source(internet, make_spec())
        assert len(with_extra) > len(without)

    def test_role_filter_respected(self, internet):
        dataset = collect_source(
            internet, make_spec(roles=(RegionRole.ROUTER,), org_types=tuple(OrgType))
        )
        for address in list(dataset.addresses)[:200]:
            region = internet.region_of(address)
            assert region.role is RegionRole.ROUTER

    def test_metadata_counters(self, internet):
        dataset = collect_source(internet, make_spec(alias_inclusion=1.0))
        assert dataset.metadata["regions_sampled"] > 0
        assert dataset.metadata["alias_regions_sampled"] > 0

    def test_stale_boost_prefers_churny_regions(self, internet):
        """An archival source (stale_boost > 1) picks up more retired or
        high-churn regions than a fresh one at the same coverage."""
        fresh = collect_source(internet, make_spec(region_coverage=0.25, salt=7))
        stale = collect_source(
            internet, make_spec(region_coverage=0.25, stale_boost=4.0, salt=7)
        )

        def stale_fraction(dataset):
            count = 0
            for address in dataset.addresses:
                region = internet.region_of(address)
                if region.retired or region.churn_rate >= 0.15:
                    count += 1
            return count / len(dataset)

        assert stale_fraction(stale) > stale_fraction(fresh)


def scalar_collect_source(internet, spec):
    """``collect_source`` with one scalar ``coin`` per address (the oracle)."""
    from repro.addr.rand import coin, hash64
    from repro.datasets import sampling

    seed = internet.config.master_seed
    registry = internet.registry
    addresses: set[int] = set()
    regions_sampled = 0
    alias_regions_sampled = 0
    visible_as_cache: dict[int, bool] = {}
    fallback_region = None

    def sample(region, fraction):
        pool = region.observable_addresses()
        if not pool:
            return []
        if fraction >= 1.0:
            return pool
        picked = [
            address
            for address in pool
            if coin(fraction, seed, spec.salt, sampling._SALT_ADDRESS, address)
        ]
        if not picked:
            picked = [pool[hash64(seed, spec.salt, region.net64) % len(pool)]]
        return picked

    for region in internet.regions:
        is_primary = region.role in spec.roles
        is_extra = region.role in spec.extra_roles
        if not (is_primary or is_extra):
            continue
        info = registry.info(region.asn)
        if is_primary and info.org_type not in spec.org_types:
            if not is_extra:
                continue
            is_primary = False
        if is_primary and not region.aliased and fallback_region is None:
            fallback_region = region
        visible = visible_as_cache.get(region.asn)
        if visible is None:
            visible = sampling._as_visible(spec, seed, region.asn, info.country)
            visible_as_cache[region.asn] = visible
        if not visible:
            continue
        if region.aliased:
            if not coin(spec.alias_inclusion, seed, spec.salt, sampling._SALT_ALIAS, region.net64):
                continue
            alias_regions_sampled += 1
        else:
            probability = sampling._region_probability(spec, region, extra=not is_primary)
            salt = sampling._SALT_REGION if is_primary else sampling._SALT_EXTRA
            if not coin(probability, seed, spec.salt, salt, region.net64):
                continue
        fraction = spec.address_fraction * (1.0 if is_primary or region.aliased else 0.5)
        sampled = sample(region, fraction)
        if sampled:
            regions_sampled += 1
            addresses.update(sampled)
    if not addresses and fallback_region is not None:
        addresses.update(sample(fallback_region, 1.0))
        regions_sampled += 1
    return frozenset(addresses), {
        "regions_sampled": regions_sampled,
        "alias_regions_sampled": alias_regions_sampled,
    }


class TestBatchedCoinsMatchScalar:
    @pytest.fixture(scope="class", params=[42, 7])
    def world(self, request, internet):
        if request.param == internet.config.master_seed:
            return internet
        from repro.internet import InternetConfig, SimulatedInternet

        return SimulatedInternet(InternetConfig.tiny(master_seed=request.param))

    def test_every_source_spec(self, world):
        from repro.datasets import SOURCE_SPECS

        assert len(SOURCE_SPECS) == 12
        for spec in SOURCE_SPECS.values():
            dataset = collect_source(world, spec)
            addresses, metadata = scalar_collect_source(world, spec)
            assert dataset.addresses == addresses, spec.name
            assert dataset.metadata == metadata, spec.name

    def test_degenerate_fallback(self, internet):
        # Thin enough coverage that some draws empty out entirely.
        for salt in range(20):
            spec = make_spec(
                as_coverage=0.05, region_coverage=0.05, address_fraction=0.01, salt=salt
            )
            dataset = collect_source(internet, spec)
            addresses, metadata = scalar_collect_source(internet, spec)
            assert dataset.addresses == addresses
            assert dataset.metadata == metadata


def per_region_collect_source(internet, spec):
    """``collect_source`` drawing one scalar ``coin`` per candidate region
    (the oracle of the batched region coins).  Also returns whether the
    fallback region fired."""
    from repro.addr.rand import coin
    from repro.datasets import sampling

    pools = {}
    seed = internet.config.master_seed
    registry = internet.registry
    draws = []
    alias_regions_sampled = 0
    ases = {}
    fallback_region = None
    for region in internet.regions:
        is_primary = region.role in spec.roles
        is_extra = region.role in spec.extra_roles
        if not (is_primary or is_extra):
            continue
        entry = ases.get(region.asn)
        if entry is None:
            info = registry.info(region.asn)
            visible = sampling._as_visible(spec, seed, region.asn, info.country)
            entry = ases[region.asn] = (info, visible)
        info, visible = entry
        if is_primary and info.org_type not in spec.org_types:
            if not is_extra:
                continue
            is_primary = False
        if is_primary and not region.aliased and fallback_region is None:
            fallback_region = region
        if not visible:
            continue
        if region.aliased:
            if not coin(spec.alias_inclusion, seed, spec.salt, sampling._SALT_ALIAS, region.net64):
                continue
            alias_regions_sampled += 1
        else:
            probability = sampling._region_probability(spec, region, extra=not is_primary)
            salt = sampling._SALT_REGION if is_primary else sampling._SALT_EXTRA
            if not coin(probability, seed, spec.salt, salt, region.net64):
                continue
        pool = sampling._observable(region, pools)
        if pool:
            fraction = spec.address_fraction * (1.0 if is_primary or region.aliased else 0.5)
            draws.append((region, pool, fraction))
    addresses = set(sampling._sample_addresses(spec, seed, draws))
    regions_sampled = len(draws)
    fired = not addresses and fallback_region is not None
    if fired:
        addresses.update(sampling._observable(fallback_region, pools))
        regions_sampled += 1
    metadata = {
        "regions_sampled": regions_sampled,
        "alias_regions_sampled": alias_regions_sampled,
    }
    return frozenset(addresses), metadata, fired


class TestRegionCoinsInOneBatch:
    """Every source's region coins, drawn in one batch, keep the
    per-region oracle's addresses and metadata."""

    @staticmethod
    def _check_every_source(world) -> int:
        from repro.datasets import SOURCE_SPECS

        assert len(SOURCE_SPECS) == 12
        fired = 0
        for spec in SOURCE_SPECS.values():
            dataset = collect_source(world, spec)
            addresses, metadata, fallback = per_region_collect_source(world, spec)
            assert dataset.addresses == addresses, spec.name
            assert dataset.metadata == metadata, spec.name
            fired += fallback
        return fired

    @pytest.mark.parametrize("seed", [42, 7, 2024])
    def test_tiny_worlds(self, seed):
        from repro.internet import InternetConfig, SimulatedInternet

        self._check_every_source(SimulatedInternet(InternetConfig.tiny(master_seed=seed)))

    def test_world_where_the_fallback_fires(self):
        """Three ASes: several sources' coins keep no address."""
        from repro.internet import InternetConfig, SimulatedInternet

        world = SimulatedInternet(replace(InternetConfig.tiny(), num_ases=3))
        assert self._check_every_source(world) >= 2
