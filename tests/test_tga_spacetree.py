"""Tests for repro.tga.spacetree."""

import dataclasses
import gc
import itertools
import pickle
import random

import pytest

from repro.addr import SeedList, parse_address
from repro.addr.nybbles import differing_positions
from repro.addr.vector import np
from repro.tga import (
    LeafTable,
    ModelCache,
    SixSense,
    SpaceTree,
    SpaceTreeLeaf,
    expanded_values,
    leaf_candidates,
    use_model_cache,
)
from repro.tga import spacetree
from repro.tga.spacetree import _SPACE_LOG, _row_sums, leaves_for_groups, space_forest

from .test_tga_modelcache import _random_seed_sets


def A(text: str) -> int:
    return parse_address(text)


class TestExpandedValues:
    def test_observed_first(self):
        values = expanded_values({3, 5})
        assert values[:2] == [3, 5]

    def test_gap_fill(self):
        values = expanded_values({1, 4})
        assert 2 in values and 3 in values

    def test_extrapolation(self):
        values = expanded_values({4, 5})
        assert 6 in values and 7 in values and 3 in values

    def test_bounds_respected(self):
        values = expanded_values({0xF})
        assert all(0 <= v <= 0xF for v in values)
        values = expanded_values({0})
        assert all(0 <= v <= 0xF for v in values)

    def test_no_duplicates(self):
        values = expanded_values({1, 2, 3})
        assert len(values) == len(set(values))


class TestSpaceTree:
    def test_single_seed_single_leaf(self):
        tree = SpaceTree([A("2001:db8::1")])
        assert len(tree) == 1
        assert tree.leaves[0].variable_dims == []

    def test_identical_seeds_deduplicated(self):
        tree = SpaceTree([A("2001:db8::1")] * 5)
        assert len(tree.leaves[0].seeds) == 1

    def test_small_cluster_stays_one_leaf(self):
        seeds = [A(f"2001:db8::{i}") for i in range(1, 6)]
        tree = SpaceTree(seeds, max_leaf_seeds=12)
        assert len(tree) == 1
        assert tree.leaves[0].variable_dims == [31]

    def test_splits_when_over_limit(self):
        seeds = [A(f"2001:db8:{i}::1") for i in range(1, 10)] + [
            A(f"2400:1:{i}::1") for i in range(1, 10)
        ]
        tree = SpaceTree(seeds, max_leaf_seeds=10)
        assert len(tree) >= 2

    def test_leftmost_splits_on_first_varying(self):
        seeds = [A(f"2001:db8::{i}") for i in range(16)] + [
            A(f"2a00:db8::{i}") for i in range(16)
        ]
        tree = SpaceTree(seeds, strategy="leftmost", max_leaf_seeds=4)
        # After the first split, the two /16 families must be separate.
        for leaf in tree.leaves:
            top_nybbles = {seed >> 124 for seed in leaf.seeds}
            assert len(top_nybbles) == 1

    def test_entropy_strategy_builds(self):
        seeds = [A(f"2001:db8:{i}::{j}") for i in range(4) for j in range(1, 9)]
        tree = SpaceTree(seeds, strategy="entropy", max_leaf_seeds=4)
        assert sum(len(leaf.seeds) for leaf in tree.leaves) == len(set(seeds))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SpaceTree([1], strategy="magic")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            SpaceTree([])

    def test_leaves_partition_seeds(self):
        seeds = [A(f"2001:db8:{i:x}::{j:x}") for i in range(8) for j in range(1, 20)]
        tree = SpaceTree(seeds, max_leaf_seeds=6)
        collected = sorted(
            seed
            for leaf in tree.leaves
            if not leaf.is_internal
            for seed in leaf.seeds
        )
        assert collected == sorted(set(seeds))

    def test_internal_regions_widen_reach(self):
        """Split nodes become generalisation regions spanning subnets."""
        seeds = [A(f"2001:db8:{i:x}::{j:x}") for i in range(4) for j in range(1, 20)]
        tree = SpaceTree(seeds, max_leaf_seeds=6)
        internals = [leaf for leaf in tree.leaves if leaf.is_internal]
        assert internals
        assert any(len(leaf.variable_dims) >= 3 for leaf in internals)

    def test_internal_regions_can_be_disabled(self):
        seeds = [A(f"2001:db8:{i:x}::{j:x}") for i in range(4) for j in range(1, 20)]
        tree = SpaceTree(seeds, max_leaf_seeds=6, internal_regions=False)
        assert not any(leaf.is_internal for leaf in tree.leaves)

    def test_leaves_by_density_ordering(self):
        dense = [A(f"2001:db8::{i:x}") for i in range(1, 13)]
        sparse = [A("2400:cafe::1"), A("2600:beef:1234:5678:9abc:def0:1111:2222")]
        tree = SpaceTree(dense + sparse, max_leaf_seeds=20)
        ranked = tree.leaves_by_density()
        assert ranked[0].density >= ranked[-1].density


class TestLeafCandidates:
    def test_never_emits_seeds(self):
        seeds = [A(f"2001:db8::{i}") for i in range(1, 9)]
        leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=[31])
        emitted = list(leaf_candidates(leaf))
        assert not set(emitted) & set(seeds)

    def test_no_duplicates(self):
        seeds = [A("2001:db8::1"), A("2001:db8::3")]
        leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=[31])
        emitted = list(leaf_candidates(leaf))
        assert len(emitted) == len(set(emitted))

    def test_gap_fill_candidate_present(self):
        seeds = [A("2001:db8::1"), A("2001:db8::4")]
        leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=[31])
        emitted = set(leaf_candidates(leaf))
        assert A("2001:db8::2") in emitted
        assert A("2001:db8::3") in emitted

    def test_extrapolation_candidate_present(self):
        seeds = [A("2001:db8::1"), A("2001:db8::2")]
        leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=[31])
        assert A("2001:db8::3") in set(leaf_candidates(leaf))

    def test_degenerate_leaf_expands_tail(self):
        leaf = SpaceTreeLeaf(seeds=[A("2001:db8::1")], variable_dims=[])
        emitted = list(leaf_candidates(leaf))
        assert A("2001:db8::2") in emitted

    def test_multi_dim_combination(self):
        seeds = [A("2001:db8:1::1"), A("2001:db8:2::2")]
        leaf = SpaceTreeLeaf(
            seeds=seeds, variable_dims=differing_positions(seeds)
        )
        emitted = set(leaf_candidates(leaf, max_level=2))
        # Cross combination: subnet of one seed with IID of the other.
        assert A("2001:db8:1::2") in emitted
        assert A("2001:db8:2::1") in emitted

    def test_level_one_before_level_two(self):
        seeds = [A("2001:db8:1::1"), A("2001:db8:2::2")]
        leaf = SpaceTreeLeaf(
            seeds=seeds, variable_dims=differing_positions(seeds)
        )
        emitted = list(leaf_candidates(leaf, max_level=2))
        single_dim = emitted.index(A("2001:db8:2::1"))
        # A two-dim change (new subnet AND new IID) must come later than
        # at least one single-dim change.
        double_change = emitted.index(A("2001:db8:3::3"))
        assert single_dim < double_change

    def test_deterministic(self):
        seeds = [A("2001:db8::1"), A("2001:db8::5")]
        leaf_a = SpaceTreeLeaf(seeds=list(seeds), variable_dims=[31])
        leaf_b = SpaceTreeLeaf(seeds=list(seeds), variable_dims=[31])
        assert list(leaf_candidates(leaf_a)) == list(leaf_candidates(leaf_b))

    def test_value_sets_cached(self):
        leaf = SpaceTreeLeaf(seeds=[A("2001:db8::1")], variable_dims=[])
        assert leaf.value_sets() is leaf.value_sets()

    def test_density_positive(self):
        leaf = SpaceTreeLeaf(seeds=[A("2001:db8::1")], variable_dims=[])
        assert leaf.density > 0
        assert leaf.span_score() > 0


# ---------------------------------------------------------------------------
# The region table: columns first, leaves on demand
# ---------------------------------------------------------------------------


def _family(name: str) -> list[int]:
    return list(dict(_random_seed_sets())[name])


def _count_leaves() -> int:
    return sum(type(obj) is SpaceTreeLeaf for obj in gc.get_objects())


class TestLeafTable:
    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_build_makes_no_per_region_objects(self, strategy):
        seeds = _family("large")
        SpaceTree(seeds, strategy=strategy)  # fill the process-wide mask memo
        gc.collect()
        gc.disable()
        try:
            leaves_before = _count_leaves()
            tracked_before = len(gc.get_objects())
            tree = SpaceTree(seeds, strategy=strategy)
            tracked_after = len(gc.get_objects())
            leaves_after = _count_leaves()
        finally:
            gc.enable()
        assert len(tree) > 1_000
        assert leaves_after == leaves_before
        # The tree, its table and one seed list, whatever the leaf count.
        assert tracked_after - tracked_before <= 8

    def test_reads_as_a_sequence_of_leaves(self):
        tree = SpaceTree(_family("dense64"), strategy="entropy", max_leaf_seeds=6)
        table = tree.leaves
        count = len(table)
        assert table[0] is table[0]
        assert table[-1] is table[count - 1]
        assert table[1:4] == [table[1], table[2], table[3]]
        assert [leaf.index for leaf in table] == list(range(count))
        assert [table[0]] + table == [table[0], *table]
        with pytest.raises(IndexError):
            table[count]

    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_columns_agree_with_leaves(self, strategy):
        table = SpaceTree(_family("large"), strategy=strategy).leaves
        leaves = list(table)
        # Internal ranges are permuted by the entropy splits below them;
        # their leaves still list the seeds in ascending order.
        permuted = [
            row
            for row, leaf in enumerate(leaves)
            if leaf.is_internal
            and table.seeds[table.starts[row] : table.starts[row] + table.sizes[row]]
            != leaf.seeds
        ]
        assert bool(permuted) == (strategy == "entropy")
        assert all(leaf.seeds == sorted(leaf.seeds) for leaf in leaves)
        assert table.first_seeds() == [leaf.seeds[0] for leaf in leaves]
        assert table.variable_counts().tolist() == [
            len(leaf.variable_dims) for leaf in leaves
        ]
        assert table.depths.tolist() == [leaf.depth for leaf in leaves]
        assert table.internal.tolist() == [leaf.is_internal for leaf in leaves]
        for row, leaf in enumerate(leaves):
            assert table.region_seeds(row) == leaf.seeds
            assert table.variable_dims(row) == leaf.variable_dims

    def test_take_and_concat_renumber_rows(self):
        table = SpaceTree(_family("dense64"), strategy="entropy").leaves
        groups = leaves_for_groups([[1, 2, 3], [7]])
        rows = [5, 0, 3]
        joined = LeafTable.concat([table.take(rows), groups])
        expected = [table[row] for row in rows] + list(groups)
        assert list(joined) == [
            dataclasses.replace(leaf, index=index)
            for index, leaf in enumerate(expected)
        ]

    def test_pickle_carries_columns_not_leaves(self):
        tree = SpaceTree(_family("slaac"), strategy="entropy")
        leaves = list(tree.leaves)
        blob = pickle.dumps(tree)
        assert b"SpaceTreeLeaf" not in blob
        assert list(pickle.loads(blob).leaves) == leaves

    def test_empty_group_list(self):
        assert len(leaves_for_groups([])) == 0


class TestRowSums:
    """Densities add their log terms as the builtin ``sum`` does."""

    @staticmethod
    def _rows() -> list[list[float]]:
        rng = random.Random(0x5A)
        return [
            [rng.choice(_SPACE_LOG[2:]) if rng.random() < 0.4 else 0.0 for _ in range(32)]
            for _ in range(400)
        ]

    def test_matches_builtin_sum(self):
        rows = self._rows()
        expected = [sum([term for term in row if term]) for row in rows]
        assert _row_sums(np.array(rows)).tolist() == expected

    @pytest.mark.parametrize("compensated", [False, True])
    def test_each_summation_order(self, compensated, monkeypatch):
        rows = self._rows()
        monkeypatch.setattr(spacetree, "_COMPENSATED_SUM", compensated)
        expected = [_scalar_sum(row, compensated) for row in rows]
        assert _row_sums(np.array(rows)).tolist() == expected
        # The two orders differ on these rows, so each branch is pinned.
        assert expected != [_scalar_sum(row, not compensated) for row in rows]


def _scalar_sum(row: list[float], compensated: bool) -> float:
    """The builtin float ``sum`` of a row's non-zero terms: from 0, one
    term at a time, with Neumaier compensation on interpreters whose
    ``sum`` has it (CPython 3.12 and later)."""
    total = compensation = 0.0
    for term in row:
        if not term:
            continue
        added = total + term
        if abs(total) >= abs(term):
            compensation += (total - added) + term
        else:
            compensation += (term - added) + total
        total = added
    return total + compensation if compensated else total


# ---------------------------------------------------------------------------
# 6Sense's sections: one forest build
# ---------------------------------------------------------------------------


def _sections(seeds: list[int]) -> list[list[int]]:
    return [
        list(members)
        for _, members in itertools.groupby(sorted(set(seeds)), key=lambda s: s >> 96)
    ]


def _forest(sections: list[list[int]], **params):
    """``space_forest`` over the concatenated sections."""
    seeds = list(itertools.chain.from_iterable(sections))
    return space_forest(seeds, [len(section) for section in sections], **params)


def _assert_forest_matches_trees(seeds: list[int]) -> None:
    sections = _sections(seeds)
    with use_model_cache(ModelCache(enabled=False)):
        frozen = SixSense()._frozen_sections(SeedList(sorted(set(seeds))))
    tables = _forest(sections, strategy="leftmost", max_leaf_seeds=10)
    assert [(net32, size) for net32, size, _ in frozen] == [
        (section[0] >> 96, len(section)) for section in sections
    ]
    for section, table, (_, _, leaves) in zip(sections, tables, frozen):
        tree = SpaceTree(section, strategy="leftmost", max_leaf_seeds=10)
        for forest_table in (table, leaves):
            assert forest_table.density == tree.leaves.density
            assert forest_table.masks.tolist() == tree.leaves.masks.tolist()
            assert list(forest_table) == list(tree.leaves)


class TestSpaceForest:
    @pytest.mark.parametrize(
        "name,seeds",
        _random_seed_sets(),
        ids=[name for name, _ in _random_seed_sets()],
    )
    def test_sections_equal_their_own_trees(self, name, seeds):
        _assert_forest_matches_trees(list(seeds))

    def test_tiny_world_all_active(self, study):
        seeds = sorted(study.constructions.all_active.addresses)
        assert len(_sections(seeds)) > 1
        _assert_forest_matches_trees(seeds)

    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_any_parameters(self, strategy):
        # Single-seed /32s of the scattered family between large ones.
        sections = _sections(_family("scattered") + _family("slaac") + _family("dense64"))
        assert {len(section) for section in sections} >= {1, 320, 400}
        tables = _forest(sections, strategy=strategy, max_leaf_seeds=4)
        for section, table in zip(sections, tables):
            tree = SpaceTree(section, strategy=strategy, max_leaf_seeds=4)
            assert list(table) == list(tree.leaves)

    def test_no_sections(self):
        assert space_forest([], []) == []
