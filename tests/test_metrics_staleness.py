"""Tests for the staleness metrics (repro.metrics.staleness)."""

from repro.metrics import collection_staleness, staleness_report


class TestStaleness:
    def test_classification_partitions(self, internet, collection):
        report = staleness_report(internet, collection["hitlist"])
        total = (
            report.responsive
            + report.aliased
            + report.firewalled
            + report.region_retired
            + report.region_renumbered
            + report.churned_or_filtered
            + report.unrouted
        )
        assert total == report.total == len(collection["hitlist"])

    def test_responsive_fraction_bounds(self, internet, collection):
        for dataset in collection:
            report = staleness_report(internet, dataset)
            assert 0.0 <= report.responsive_fraction <= 1.0

    def test_archival_source_staler(self, internet, collection):
        """Rapid7 (archival 2021) must be staler than Censys (fresh)."""
        rapid7 = staleness_report(internet, collection["rapid7"])
        censys = staleness_report(internet, collection["censys"])
        assert rapid7.responsive_fraction < censys.responsive_fraction

    def test_scamper_has_firewalled_mass(self, internet, collection):
        report = staleness_report(internet, collection["scamper"])
        assert report.firewalled > 0

    def test_collection_staleness_order(self, internet, collection):
        reports = collection_staleness(internet, collection)
        assert [r.source for r in reports] == collection.names

    def test_as_dict(self, internet, collection):
        info = staleness_report(internet, collection["censys"]).as_dict()
        assert {"source", "responsive_fraction", "region_renumbered"} <= set(info)
