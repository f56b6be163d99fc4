"""Tests for repro.tga.modelstore: the persistent prepared-model store.

The store is a disk tier under the in-memory ModelCache; its contract
is that it can never change results — every entry is digest-verified on
load, corruption degrades to a rebuild, and concurrent processes race
benignly.
"""

import concurrent.futures
import hashlib
import os
import pickle

import pytest

from repro.addr import SeedList
from repro.tga import (
    DET,
    LeafTable,
    ModelCache,
    ModelStore,
    SixGen,
    SixGraph,
    SixSense,
    SpaceTree,
    create_tga,
    get_model_store,
    resolve_model_store,
    set_model_store,
    use_model_cache,
    use_model_store,
)
from repro.tga.modelstore import _MAGIC

from .test_tga_modelcache import _random_seed_sets


def make_store(tmp_path, **kwargs) -> ModelStore:
    return ModelStore(tmp_path / "store", **kwargs)


class TestRoundtrip:
    def test_store_then_load_returns_equal_artifact(self, tmp_path):
        store = make_store(tmp_path)
        artifact = {"model": [1, 2, 3], "weights": (0.5, 0.25)}
        assert store.store("6graph", 123, ("a", 1), artifact)
        loaded = store.load("6graph", 123, ("a", 1))
        assert loaded == artifact
        assert store.stats.stores == 1
        assert store.stats.hits == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.load("6tree", 1, ()) is None
        assert store.stats.misses == 1

    def test_keying_separates_kind_fingerprint_params(self, tmp_path):
        store = make_store(tmp_path)
        store.store("a", 1, (), "artifact-a")
        assert store.load("b", 1, ()) is None
        assert store.load("a", 2, ()) is None
        assert store.load("a", 1, ("p",)) is None
        assert store.load("a", 1, ()) == "artifact-a"

    def test_version_bump_is_a_cold_start(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        store.store("eip", 7, (), "old-generation")
        monkeypatch.setattr(
            "repro.tga.modelstore._package_version", lambda: "999.0"
        )
        # The old entry is invisible under the new version...
        assert store.load("eip", 7, ()) is None
        # ...and a new-version entry lives alongside it.
        store.store("eip", 7, (), "new-generation")
        assert store.load("eip", 7, ()) == "new-generation"
        assert len(store.entries()) == 2

    def test_unpicklable_artifact_degrades_to_no_persistence(self, tmp_path):
        store = make_store(tmp_path)
        assert not store.store("6gen", 1, (), lambda: None)
        assert store.stats.errors == 1
        assert store.entries() == []


class TestCorruption:
    def corrupt(self, store, mutate):
        store.store("det", 42, (), {"payload": list(range(100))})
        (path,) = store.entries()
        mutate(path)
        return path

    def test_truncated_entry_dropped_and_rebuilt(self, tmp_path):
        store = make_store(tmp_path)
        path = self.corrupt(
            store, lambda p: p.write_bytes(p.read_bytes()[: len(_MAGIC) + 10])
        )
        assert store.load("det", 42, ()) is None
        assert not path.exists()
        assert store.stats.corrupt_dropped == 1

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        store = make_store(tmp_path)

        def flip(path):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))

        self.corrupt(store, flip)
        assert store.load("det", 42, ()) is None
        assert store.stats.corrupt_dropped == 1

    def test_bad_magic_rejected(self, tmp_path):
        store = make_store(tmp_path)
        self.corrupt(store, lambda p: p.write_bytes(b"junk" + p.read_bytes()))
        assert store.load("det", 42, ()) is None

    def test_valid_pickle_with_wrong_digest_rejected(self, tmp_path):
        # An attacker-shaped case: a well-formed pickle whose recorded
        # digest does not match must not be trusted.
        store = make_store(tmp_path)
        store.store("det", 42, (), "original")
        (path,) = store.entries()
        payload = pickle.dumps("tampered")
        blob = path.read_bytes()
        header_len = blob.index(b"\n", len(_MAGIC)) + 1
        path.write_bytes(blob[:header_len] + payload)
        assert store.load("det", 42, ()) is None

    def test_v1_entry_dropped_and_rebuilt(self, tmp_path):
        # Entries written before the leaf layout and the seed fingerprint
        # changed carry the v1 magic: they are never unpickled.
        store = make_store(tmp_path)
        path = store.entry_path("6tree", 5, ())
        path.parent.mkdir(parents=True)
        payload = pickle.dumps("old-layout")
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(b"repro-model-store-v1\n" + digest + b"\n" + payload)
        assert _MAGIC != b"repro-model-store-v1\n"
        assert store.get_or_build("6tree", 5, (), lambda: "rebuilt") == "rebuilt"
        assert store.stats.corrupt_dropped == 1
        assert path.read_bytes().startswith(_MAGIC)
        assert store.load("6tree", 5, ()) == "rebuilt"

    def test_v2_entry_dropped_and_rebuilt(self, tmp_path):
        # Entries written while trees still pickled one object per leaf
        # carry the v2 magic: they are never unpickled.
        store = make_store(tmp_path)
        path = store.entry_path("spacetree", 5, ())
        path.parent.mkdir(parents=True)
        payload = pickle.dumps("leaf-objects")
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(b"repro-model-store-v2\n" + digest + b"\n" + payload)
        assert _MAGIC == b"repro-model-store-v3\n"
        assert store.get_or_build("spacetree", 5, (), lambda: "rebuilt") == "rebuilt"
        assert store.stats.corrupt_dropped == 1
        assert path.read_bytes().startswith(_MAGIC)
        assert store.load("spacetree", 5, ()) == "rebuilt"

    def test_get_or_build_rebuilds_after_corruption(self, tmp_path):
        store = make_store(tmp_path)
        calls = []
        builder = lambda: calls.append(1) or "fresh"
        assert store.get_or_build("6hit", 9, (), builder) == "fresh"
        (path,) = store.entries()
        path.write_bytes(b"garbage")
        assert store.get_or_build("6hit", 9, (), builder) == "fresh"
        assert len(calls) == 2
        # The rebuilt entry persisted and is valid again.
        assert store.load("6hit", 9, ()) == "fresh"


class TestGetOrBuild:
    def test_second_call_serves_from_disk(self, tmp_path):
        store = make_store(tmp_path)
        calls = []
        builder = lambda: calls.append(1) or {"m": 1}
        assert store.get_or_build("6scan", 5, (), builder) == {"m": 1}
        assert store.get_or_build("6scan", 5, (), builder) == {"m": 1}
        assert len(calls) == 1

    def test_fresh_store_on_same_root_shares_entries(self, tmp_path):
        a = make_store(tmp_path)
        a.store("6sense", 3, (), "shared")
        b = make_store(tmp_path)
        assert b.load("6sense", 3, ()) == "shared"

    def test_held_lock_makes_latecomer_build_after_timeout(self, tmp_path):
        store = make_store(tmp_path, lock_timeout=0.2)
        path = store.entry_path("6tree", 1, ())
        store.root.mkdir(parents=True, exist_ok=True)
        lock = path.with_name(path.name + ".lock")
        lock.write_text("someone-else")
        try:
            assert store.get_or_build("6tree", 1, (), lambda: "built") == "built"
        finally:
            lock.unlink(missing_ok=True)

    def test_stale_lock_is_broken(self, tmp_path):
        store = make_store(tmp_path, lock_timeout=0.2)
        path = store.entry_path("6tree", 1, ())
        store.root.mkdir(parents=True, exist_ok=True)
        lock = path.with_name(path.name + ".lock")
        lock.write_text("dead-builder")
        os.utime(lock, (0, 0))
        assert store.get_or_build("6tree", 1, (), lambda: "built") == "built"


def _view(artifact):
    """An artifact with every region table replaced by its leaves and
    columns, so two artifacts compare by content."""
    if isinstance(artifact, SpaceTree):
        return _view(artifact.leaves)
    if isinstance(artifact, LeafTable):
        return (
            list(artifact),
            artifact.density,
            artifact.masks.tolist(),
            artifact.first_seeds(),
        )
    if isinstance(artifact, tuple):
        return tuple(_view(item) for item in artifact)
    return artifact


class TestRegionTableArtifacts:
    """Trees, DET's groups, 6Graph's patterns, 6Gen's clusters and
    6Sense's sections keep their regions as tables across the store."""

    FAMILIES = dict(_random_seed_sets())
    SEEDS = sorted(set(FAMILIES["dense64"] + FAMILIES["scattered"]))

    def test_artifacts_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        with use_model_cache(ModelCache(enabled=False)):
            artifacts = {
                "spacetree": SpaceTree(self.SEEDS, strategy="entropy"),
                "det.groups": DET()._frozen_groups(SeedList(self.SEEDS)),
                "6graph.patterns": SixGraph()._frozen_patterns(SeedList(self.SEEDS)),
                "6gen.clusters": SixGen()._frozen_clusters(SeedList(self.SEEDS)),
                "6sense.sections": SixSense()._frozen_sections(SeedList(self.SEEDS)),
            }
        for kind, artifact in artifacts.items():
            assert store.store(kind, 1, (), artifact), kind
            loaded = store.load(kind, 1, ())
            assert _view(loaded) == _view(artifact), kind

    @pytest.mark.parametrize(
        "name", ["6tree", "6scan", "6hit", "det", "6graph", "6gen", "6sense"]
    )
    def test_warm_models_generate_identically(self, tmp_path, name):
        store = make_store(tmp_path)

        def drive():
            with use_model_cache(ModelCache()), use_model_store(store):
                tga = create_tga(name, salt=3)
                tga.prepare(self.SEEDS)
                first = tga.propose_batch(150)
                tga.feedback({address: address % 3 == 0 for address in first})
                return first, tga.propose_batch(150)

        cold = drive()
        assert store.stats.stores > 0
        warm = drive()
        assert store.stats.hits > 0
        assert cold == warm


class TestEviction:
    def test_oldest_entries_evicted_under_byte_budget(self, tmp_path):
        store = make_store(tmp_path, max_bytes=1)
        store.store("a", 1, (), "x" * 100)
        store.store("b", 2, (), "y" * 100)
        # Budget of one byte: only the newest write survives.
        assert len(store.entries()) == 1
        assert store.load("b", 2, ()) == "y" * 100
        assert store.stats.evictions >= 1

    def test_hot_entries_survive_via_mtime_touch(self, tmp_path):
        store = make_store(tmp_path, max_bytes=10_000_000)
        store.store("a", 1, (), "x" * 100)
        store.store("b", 2, (), "y" * 100)
        # Make "a" hot (newest mtime), then shrink the budget so the
        # next write must evict exactly one entry: "b" is now the
        # oldest and goes first.
        for path in store.entries():
            os.utime(path, (1, 1))
        store.load("a", 1, ())
        entry_size = store.entries()[0].stat().st_size
        store.max_bytes = 2 * entry_size + entry_size // 2
        store.store("c", 3, (), "z" * 100)
        assert store.load("a", 1, ()) == "x" * 100
        assert store.load("b", 2, ()) is None

    def test_written_entry_survives_an_mtime_tie(self, tmp_path, monkeypatch):
        # Coarse filesystem timestamps (or a clock step back) give the
        # new entry the same mtime as an older one; it must still be the
        # entry the write keeps.
        store = make_store(tmp_path)
        store.store("old", 1, (), "x" * 4096)
        (old,) = store.entries()
        os.utime(old, (1_000, 1_000))
        store.max_bytes = old.stat().st_size
        real_replace = os.replace

        def replace_with_pinned_mtime(src, dst):
            real_replace(src, dst)
            os.utime(dst, (1_000, 1_000))

        monkeypatch.setattr(os, "replace", replace_with_pinned_mtime)
        assert store.store("new", 2, (), "y" * 100)
        assert store.load("new", 2, ()) == "y" * 100
        assert not old.exists()
        assert store.stats.evictions == 1

    def test_clear_removes_everything(self, tmp_path):
        store = make_store(tmp_path)
        store.store("a", 1, (), "x")
        store.clear()
        assert store.entries() == []


class TestProcessState:
    def test_inactive_by_default(self):
        assert get_model_store() is None

    def test_use_model_store_scopes_activation(self, tmp_path):
        store = make_store(tmp_path)
        with use_model_store(store):
            assert get_model_store() is store
            with use_model_store(None):
                assert get_model_store() is None
            assert get_model_store() is store
        assert get_model_store() is None

    def test_set_model_store(self, tmp_path):
        store = make_store(tmp_path)
        set_model_store(store)
        try:
            assert get_model_store() is store
        finally:
            set_model_store(None)

    def test_resolve_model_store(self, tmp_path):
        assert resolve_model_store(None) is None
        assert resolve_model_store(False) is None
        rooted = resolve_model_store(tmp_path / "r")
        assert isinstance(rooted, ModelStore)
        assert rooted.root == tmp_path / "r"
        store = make_store(tmp_path)
        assert resolve_model_store(store) is store
        default = resolve_model_store(True)
        assert isinstance(default, ModelStore)

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_STORE", str(tmp_path / "env-root"))
        assert ModelStore().root == tmp_path / "env-root"


def _race_one(root: str, index: int):
    """Worker for the concurrency test: build-or-load the same entry."""
    store = ModelStore(root, lock_timeout=10.0)
    artifact = store.get_or_build(
        "race", 77, (), lambda: {"model": sorted(range(1000))}
    )
    return artifact == {"model": sorted(range(1000))}, store.stats.as_dict()


class TestConcurrency:
    def test_two_processes_racing_same_entry(self, tmp_path):
        """Two separate processes get_or_build the same key concurrently:
        both must come back with the correct artifact and the surviving
        on-disk entry must be valid (no torn writes)."""
        root = str(tmp_path / "store")
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_race_one, [root, root], [0, 1]))
        assert all(ok for ok, _stats in outcomes)
        # Exactly one entry, and it decodes cleanly for a third reader.
        verifier = ModelStore(root)
        assert len(verifier.entries()) == 1
        assert verifier.load("race", 77, ()) == {"model": sorted(range(1000))}
        # The lock was cleaned up (no .lock litter left behind).
        assert not list(verifier.root.glob("*.lock"))
