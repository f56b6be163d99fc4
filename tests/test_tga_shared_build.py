"""One entropy build grows DET's and 6Graph's trees.

``SpaceTree.grown(seeds, "entropy", (12, 16))`` must give, for each cap,
the tree a build at that cap alone gives: the same regions in the same
order, with the same seeds, variable dims, depth, internal flag, value
sets and density, and the same seed arrangement and columns (the model
store pickles them).  ``cached_space_tree`` serves both caps from that
one build when DET's prepare names 6Graph's cap as its partner, and
every other request grows one cap.
"""

import pickle
import random

import numpy as np
import pytest

from repro.tga import (
    DET,
    AddrMiner,
    ModelCache,
    SixGraph,
    SpaceTree,
    cached_space_tree,
    use_model_cache,
)
from repro.tga.modelcache import SHARED_ENTROPY_CAPS
from repro.tga.spacetree import _expanded_sizes, _mask_values

from .test_tga_modelcache import _random_seed_sets, _reference_build


def _wide_family() -> list[int]:
    """14 random IIDs in one /64 beside 29 low IIDs in another.

    The first /64 is a node of 14 rows that varies in all 16 IID
    nybbles: 6Graph's tree keeps it as a leaf, and DET's splits it
    without emitting a region (it varies in more than 8 nybbles).
    """
    rng = random.Random(0x51DE)
    base = 0x20010DB8 << 96
    return [base | (1 << 64) | rng.getrandbits(64) for _ in range(14)] + [
        base | (2 << 64) | iid for iid in range(1, 30)
    ]


_FAMILIES = [*_random_seed_sets(), ("wide", _wide_family())]


def _regions(table) -> list[tuple]:
    """Every region as (seeds, dims, depth, internal, value sets, density)."""
    return [
        (
            leaf.seeds,
            leaf.variable_dims,
            leaf.depth,
            leaf.is_internal,
            list(leaf.value_sets().items()),
            leaf.density,
        )
        for leaf in table
    ]


def _columns(table) -> tuple:
    return (
        table.seeds,
        table.starts.tolist(),
        table.sizes.tolist(),
        table.depths.tolist(),
        table.internal.tolist(),
        table.masks.tolist(),
        table.density,
    )


class TestSharedEntropyBuild:
    @pytest.mark.parametrize(
        "name,seeds", _FAMILIES, ids=[name for name, _ in _FAMILIES]
    )
    def test_each_cap_equals_its_own_build(self, name, seeds):
        shared = SpaceTree.grown(list(seeds), "entropy", SHARED_ENTROPY_CAPS)
        for cap, tree in zip(SHARED_ENTROPY_CAPS, shared):
            alone = SpaceTree(list(seeds), strategy="entropy", max_leaf_seeds=cap)
            assert tree.max_leaf_seeds == cap
            assert [
                (leaf.seeds, leaf.variable_dims, leaf.depth, leaf.is_internal)
                for leaf in tree.leaves
            ] == [
                (ref["seeds"], ref["dims"], ref["depth"], ref["internal"])
                for ref in _reference_build(tree, list(seeds))
            ]
            assert _columns(tree.leaves) == _columns(alone.leaves)
            assert _regions(tree.leaves) == _regions(alone.leaves)
            # A cold build pickles as the tree a one-cap build stores.
            assert pickle.dumps(tree) == pickle.dumps(
                SpaceTree(list(seeds), strategy="entropy", max_leaf_seeds=cap)
            )

    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_any_caps_and_parameters(self, strategy):
        seeds = _wide_family() + list(dict(_random_seed_sets())["dense64"])
        caps = (4, 9, 16, 40)
        trees = SpaceTree.grown(seeds, strategy, caps, 20, True, 64, 6)
        for cap, tree in zip(caps, trees):
            alone = SpaceTree(seeds, strategy, cap, 20, True, 64, 6)
            assert _columns(tree.leaves) == _columns(alone.leaves)
            assert _regions(tree.leaves) == _regions(alone.leaves)

    def test_wide_family_has_a_node_only_the_wider_cap_keeps(self):
        seeds = _wide_family()
        det = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=12).leaves
        graph = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=16).leaves
        det_regions = {tuple(leaf.seeds) for leaf in det}
        kept = [
            leaf
            for leaf in graph
            if not leaf.is_internal and tuple(leaf.seeds) not in det_regions
        ]
        assert [(len(leaf.seeds), len(leaf.variable_dims)) for leaf in kept] == [
            (14, 16)
        ]
        # Its seeds stay in ascending order in 6Graph's table.
        assert kept[0].seeds == sorted(kept[0].seeds)


class TestExpandedSizes:
    def test_every_mask_matches_its_value_set(self):
        # Both tables' densities take each effective dim's value-set size
        # from the mask's end bits instead of building the set.
        masks = np.arange(1, 1 << 16)
        assert _expanded_sizes(masks).tolist() == [
            len(_mask_values(mask)) for mask in masks.tolist()
        ]


@pytest.fixture
def builds(monkeypatch) -> list[tuple[int, ...]]:
    """The leaf caps of every ``SpaceTree.grown`` build, in order."""
    caps_seen = []
    grown = SpaceTree.grown.__func__

    def counting(cls, seeds, strategy, leaf_caps, *args, **kwargs):
        caps_seen.append(tuple(leaf_caps))
        return grown(cls, seeds, strategy, leaf_caps, *args, **kwargs)

    monkeypatch.setattr(SpaceTree, "grown", classmethod(counting))
    return caps_seen


class TestCachedSharedBuild:
    def _seeds(self) -> list[int]:
        return sorted(set(_wide_family()))

    def test_default_caps_are_the_shared_pair(self):
        assert (DET().max_leaf_seeds, SixGraph().max_leaf_seeds) == SHARED_ENTROPY_CAPS

    def test_det_then_6graph_share_one_build(self, builds):
        seeds = self._seeds()
        with use_model_cache(ModelCache()) as cache:
            det = cached_space_tree(
                seeds, strategy="entropy", max_leaf_seeds=12, partner_cap=16
            )
            graph = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=16)
            again = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=12)
        assert builds == [SHARED_ENTROPY_CAPS]
        assert again is det
        assert cache.stats.as_dict() == {"hits": 2, "misses": 1, "evictions": 0}
        for tree, cap in ((det, 12), (graph, 16)):
            alone = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=cap)
            assert _columns(tree.leaves) == _columns(alone.leaves)

    def test_generators_share_one_build_in_grid_order(self, builds):
        seeds = self._seeds()
        with use_model_cache(ModelCache()):
            DET(salt=1).prepare(seeds)
            SixGraph(salt=2).prepare(seeds)
        assert builds == [SHARED_ENTROPY_CAPS]

    @pytest.mark.parametrize(
        "make", [SixGraph, AddrMiner], ids=["6graph", "addrminer"]
    )
    def test_requests_without_a_partner_grow_one_cap(self, builds, make):
        generator = make(salt=1)
        with use_model_cache(ModelCache()) as cache:
            generator.prepare(self._seeds())
        assert builds == [(generator.max_leaf_seeds,)]
        # Its tree and one model of its own; no partner tree.
        assert len(cache) == 2

    def test_a_cached_partner_is_not_grown_again(self, builds):
        seeds = self._seeds()
        with use_model_cache(ModelCache()):
            SixGraph(salt=2).prepare(seeds)
            DET(salt=1).prepare(seeds)
        assert builds == [(16,), (12,)]

    def test_disabled_cache_grows_one_cap(self, builds):
        seeds = self._seeds()
        with use_model_cache(ModelCache(enabled=False)) as cache:
            DET(salt=1).prepare(seeds)
            graph = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=16)
        assert builds == [(12,), (16,)]
        assert len(cache) == 0
        alone = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=16)
        assert _columns(graph.leaves) == _columns(alone.leaves)

    def test_det_rebuilds_grow_one_cap(self, builds):
        det = DET(salt=1, rebuild_every=1)
        with use_model_cache(ModelCache()) as cache:
            det.prepare(self._seeds())
            det.observe({address: True for address in det.propose(20)})
        assert builds == [SHARED_ENTROPY_CAPS, (12,)]
        # Both trees and the groups of the seeds, one tree and the groups
        # of the rebuild's list.
        assert len(cache) == 5

    def test_other_caps_build_alone(self, builds):
        seeds = self._seeds()
        with use_model_cache(ModelCache()) as cache:
            tree = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=8)
            assert len(cache) == 1
            cached_space_tree(seeds, strategy="leftmost", max_leaf_seeds=16)
            assert len(cache) == 2
        assert builds == [(8,), (16,)]
        alone = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=8)
        assert _columns(tree.leaves) == _columns(alone.leaves)

    def test_a_non_default_det_cap_grows_beside_the_partner(self, builds):
        # A partner cap below the tree's own: the build is order-free.
        seeds = self._seeds()
        with use_model_cache(ModelCache()):
            det = DET(salt=1, max_leaf_seeds=20)
            det.prepare(seeds)
            graph = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=16)
            wide = cached_space_tree(seeds, strategy="entropy", max_leaf_seeds=20)
        assert builds == [(20, 16)]
        for tree, cap in ((wide, 20), (graph, 16)):
            alone = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=cap)
            assert _columns(tree.leaves) == _columns(alone.leaves)
            assert _regions(tree.leaves) == _regions(alone.leaves)
