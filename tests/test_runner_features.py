"""Tests for runner extensions: known-address exclusion and custom
factories."""

from repro.experiments import run_generation
from repro.internet import Port
from repro.tga.sixtree import SixTree


class TestKnownAddressExclusion:
    def test_known_addresses_removed_from_hits(self, internet, study):
        dataset = study.constructions.source_specific("censys")
        baseline = run_generation(
            internet, "6tree", dataset, Port.ICMP, budget=600, round_size=200
        )
        excluded = run_generation(
            internet,
            "6tree",
            dataset,
            Port.ICMP,
            budget=600,
            round_size=200,
            known_addresses=baseline.clean_hits,
        )
        assert not set(excluded.clean_hits) & set(baseline.clean_hits)
        assert excluded.metrics.hits <= baseline.metrics.hits

    def test_study_runs_never_rediscover_any_source_seed(self, study):
        dataset = study.constructions.source_specific("censys")
        run = study.run("6tree", dataset, Port.ICMP, budget=600)
        full = study.constructions.full.addresses
        assert not set(run.clean_hits) & full

    def test_empty_known_is_noop(self, internet, study):
        dataset = study.constructions.all_active
        a = run_generation(
            internet, "6gen", dataset, Port.ICMP, budget=400, round_size=200
        )
        b = run_generation(
            internet,
            "6gen",
            dataset,
            Port.ICMP,
            budget=400,
            round_size=200,
            known_addresses=frozenset(),
        )
        assert a.clean_hits == b.clean_hits


class TestTGAFactory:
    def test_factory_used(self, internet, study):
        dataset = study.constructions.all_active
        captured = {}

        def factory(salt):
            tga = SixTree(salt=salt, max_level=1)
            captured["tga"] = tga
            return tga

        result = run_generation(
            internet,
            "6tree",
            dataset,
            Port.ICMP,
            budget=400,
            round_size=200,
            tga_factory=factory,
        )
        assert captured["tga"].max_level == 1
        assert result.tga_name == "6tree"

    def test_factory_changes_output(self, internet, study):
        dataset = study.constructions.all_active
        coarse = run_generation(
            internet,
            "6tree",
            dataset,
            Port.ICMP,
            budget=600,
            round_size=200,
            tga_factory=lambda salt: SixTree(salt=salt, max_leaf_seeds=150),
        )
        default = run_generation(
            internet, "6tree", dataset, Port.ICMP, budget=600, round_size=200
        )
        assert coarse.clean_hits != default.clean_hits
