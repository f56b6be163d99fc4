"""Tests for repro.dealias.offline."""

from repro.addr import Prefix, parse_address
from repro.dealias import OfflineDealiaser
from repro.experiments import GridSpec, Study, run_grid
from repro.internet import InternetConfig, Port


class TestOfflineDealiaser:
    def test_filters_published(self):
        dealiaser = OfflineDealiaser([Prefix.parse("2001:db8::/64")])
        inside = parse_address("2001:db8::99")
        outside = parse_address("2a00::1")
        assert dealiaser.is_aliased(inside)
        assert not dealiaser.is_aliased(outside)
        assert dealiaser.filter([inside, outside]) == {outside}

    def test_partition(self):
        dealiaser = OfflineDealiaser([Prefix.parse("2001:db8::/64")])
        clean, aliased = dealiaser.partition(
            [parse_address("2001:db8::1"), parse_address("2a00::1")]
        )
        assert len(clean) == 1 and len(aliased) == 1

    def test_len(self):
        assert len(OfflineDealiaser([Prefix.parse("::/64")])) == 1


class TestFromInternet:
    def test_uses_published_list(self, internet):
        dealiaser = OfflineDealiaser.from_internet(internet)
        assert len(dealiaser) == len(internet.published_alias_prefixes)

    def test_misses_unpublished_aliases(self, internet):
        """The published list is incomplete by construction — the very
        limitation the paper's RQ1.a demonstrates."""
        dealiaser = OfflineDealiaser.from_internet(internet)
        published = set(internet.published_alias_prefixes)
        unpublished = [
            prefix
            for prefix in internet.true_alias_prefixes
            if prefix not in published
        ]
        assert unpublished, "config should leave some aliases unpublished"
        for prefix in unpublished[:10]:
            assert not dealiaser.is_aliased(prefix.value | 12345)

    def test_catches_published_aliases(self, internet):
        dealiaser = OfflineDealiaser.from_internet(internet)
        for prefix in internet.published_alias_prefixes[:10]:
            assert dealiaser.is_aliased(prefix.value | 4321)

    def test_one_dealiaser_per_world(self, monkeypatch):
        """Seed dealiasing and every grid cell on one world share one
        dealiaser, so the published-list trie is built once."""
        built = []
        init = OfflineDealiaser.__init__

        def counting_init(self, published):
            built.append(self)
            init(self, published)

        monkeypatch.setattr(OfflineDealiaser, "__init__", counting_init)
        study = Study(config=InternetConfig.tiny(), budget=300, round_size=100)
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=("6tree", "6gen", "eip"),
            ports=(Port.ICMP, Port.TCP80),
        )
        results = run_grid(study, spec)
        assert len(results.runs) == 6
        assert built == [OfflineDealiaser.from_internet(study.internet)]
