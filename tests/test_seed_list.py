"""A dataset's seeds are sorted, packed and fingerprinted once.

``SeedDataset.sorted_seeds`` is the one :class:`repro.addr.SeedList`
every cell over the dataset prepares on.  Its cached forms must equal
what packing ``sorted(addresses)`` afresh gives, and must stay out of
the dataset's equality and pickle.  The activity scan and seed
collection reuse one packing and one set of observable pools, with
results identical to building them per port and per source.
"""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.addr import PackedAddresses, SeedList, to_nybbles
from repro.datasets import SeedDataset, collect_all, collect_one
from repro.datasets.sources import SOURCE_ORDER
from repro.experiments import run_generation
from repro.internet import ALL_PORTS, Port, Region
from repro.preprocess import SeedPreprocessor
from repro.scanner import Scanner
from repro.telemetry import Telemetry, use_telemetry
from repro.tga import create_tga, seed_fingerprint
from repro.tga.spacetree import seed_matrix


def _fingerprint(seeds: list[int]) -> int:
    """The model cache's fingerprint, written out."""
    digest = hashlib.blake2b(len(seeds).to_bytes(8, "big"), digest_size=8)
    for seed in seeds:
        digest.update(seed.to_bytes(16, "big"))
    return int.from_bytes(digest.digest(), "big")


class TestSeedList:
    SEEDS = [7, (1 << 128) - 1, 0x20010DB8 << 96 | 0x42, 0, 7]

    def test_forms_equal_their_definitions(self):
        seeds = SeedList(self.SEEDS)
        assert seeds.matrix.tolist() == [to_nybbles(seed) for seed in self.SEEDS]
        packed = PackedAddresses.from_addresses(self.SEEDS)
        assert seeds.packed.prefix64.tolist() == packed.prefix64.tolist()
        assert seeds.packed.iid64.tolist() == packed.iid64.tolist()
        assert seeds.packed.prefix64.dtype == np.uint64
        assert seeds.fingerprint == _fingerprint(self.SEEDS)
        assert seeds.fingerprint == seed_fingerprint(self.SEEDS)

    def test_forms_are_made_once_and_read_only(self):
        seeds = SeedList(self.SEEDS)
        assert seeds.fingerprint == _fingerprint(self.SEEDS)
        assert seeds.matrix is seeds.matrix
        assert seeds.packed is seeds.packed
        with pytest.raises(ValueError):
            seeds.matrix[0, 0] = 1
        # The three forms are all it keeps: no packed byte buffer.
        assert sorted(vars(seeds)) == ["fingerprint", "matrix", "packed"]

    def test_of_passes_a_seed_list_through(self):
        seeds = SeedList(self.SEEDS)
        assert SeedList.of(seeds) is seeds
        assert SeedList.of(self.SEEDS) == seeds

    def test_sorted_unique(self):
        seeds = SeedList(self.SEEDS)
        assert list(seeds.sorted_unique()) == sorted(set(self.SEEDS))
        ascending = SeedList(sorted(set(self.SEEDS)))
        assert ascending.sorted_unique() is ascending
        assert SeedList([]).sorted_unique() == ()

    def test_pickle_carries_the_addresses_only(self):
        seeds = SeedList(self.SEEDS)
        plain = pickle.dumps(seeds)
        _ = seeds.matrix, seeds.fingerprint  # fill the cache
        assert pickle.dumps(seeds) == plain
        restored = pickle.loads(plain)
        assert type(restored) is SeedList and restored == seeds
        assert not vars(restored)


class TestDatasetSortedSeeds:
    def _dataset(self, collection) -> SeedDataset:
        return collection.combined()

    def test_equal_to_a_fresh_packing(self, collection):
        dataset = self._dataset(collection)
        ordered = sorted(dataset.addresses)
        seeds = dataset.sorted_seeds
        assert list(seeds) == ordered
        assert seeds.fingerprint == seed_fingerprint(ordered) == _fingerprint(ordered)
        assert np.array_equal(seeds.matrix, seed_matrix(ordered))
        assert dataset.sorted_seeds is seeds

    def test_out_of_equality_and_pickle(self, collection):
        dataset = self._dataset(collection)
        fresh = replace(dataset)
        plain = pickle.dumps(fresh)
        _ = dataset.sorted_seeds.matrix  # fill the cache
        assert dataset == fresh
        assert pickle.dumps(dataset) == plain
        restored = pickle.loads(plain)
        assert restored == dataset
        assert "sorted_seeds" not in vars(restored)
        assert restored.sorted_seeds == dataset.sorted_seeds

    def test_every_cell_prepares_on_the_datasets_list(self, internet, study):
        dataset = study.constructions.all_active
        prepared = []

        def factory(salt):
            tga = create_tga("6tree", salt=salt)
            ingest = tga._ingest
            tga._ingest = lambda seeds: (prepared.append(seeds), ingest(seeds))
            return tga

        for port in (Port.ICMP, Port.TCP80):
            run_generation(internet, "6tree", dataset, port, 200, tga_factory=factory)
        assert [seeds is dataset.sorted_seeds for seeds in prepared] == [True, True]

    def test_prepare_wraps_any_sequence(self):
        seeds = [0x20010DB8 << 96 | iid for iid in (9, 3, 5, 1)]
        tga = create_tga("eip")
        tga.prepare(seeds)
        twin = create_tga("eip")
        twin.prepare(SeedList(seeds))
        assert tga.propose(50) == twin.propose(50)


class TestOnePackingPerActivityScan:
    def test_equal_to_scanning_the_sorted_list_per_port(self, internet, collection):
        dataset = collection.combined()
        outcomes = []
        for packed in (True, False):
            scanner = Scanner(internet)
            telemetry = Telemetry()
            with use_telemetry(telemetry):
                if packed:
                    preprocessor = SeedPreprocessor(internet, scanner)
                    activity = preprocessor.scan_activity(dataset)
                else:
                    targets = sorted(dataset.addresses)
                    activity = {
                        port: scanner.scan(targets, port).hits for port in ALL_PORTS
                    }
            outcomes.append(
                (activity, scanner.lifetime_stats, telemetry.snapshot()["counters"])
            )
        assert outcomes[0] == outcomes[1]
        assert all(outcomes[0][0].values())


class TestSharedObservablePools:
    def test_collect_all_equals_collecting_each_source_alone(self, internet):
        shared = collect_all(internet)
        for name in SOURCE_ORDER:
            alone = collect_one(internet, name)
            assert shared[name] == alone

    def test_each_pool_is_built_once_per_call(self, internet, monkeypatch):
        built = []
        observable = Region.observable_addresses

        def counting(region):
            built.append(region.net64)
            return observable(region)

        monkeypatch.setattr(Region, "observable_addresses", counting)
        collect_all(internet)
        assert built and len(built) == len(set(built))
        first = len(built)
        collect_all(internet)  # a second call builds its own pools
        assert len(built) == 2 * first
