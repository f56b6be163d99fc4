"""Tests for repro.tga.leafpool."""

import gc
import inspect

import pytest

from repro.addr import parse_address
from repro.tga import (
    LeafPool,
    ModelCache,
    SpaceTree,
    SpaceTreeLeaf,
    create_tga,
    use_model_cache,
)

from .test_tga_modelcache import _random_seed_sets


def A(text: str) -> int:
    return parse_address(text)


def make_leaf(prefix: str, count: int = 4, index: int = 0) -> SpaceTreeLeaf:
    seeds = [A(f"{prefix}::{i}") for i in range(1, count + 1)]
    leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=[31], index=index)
    return leaf


class TestDraw:
    def test_draw_count(self):
        # A 4-seed single-dim leaf can yield exactly 3 fresh candidates
        # (hi+1, hi+2, lo-1); draw() must deliver all of them and stop.
        pool = LeafPool([make_leaf("2001:db8")])
        drawn = pool.draw(5)
        assert len(drawn) == 3

    def test_draw_count_two_dims(self):
        seeds = [A(f"2001:db8:{s}::{i}") for s in (1, 2) for i in range(1, 5)]
        from repro.addr.nybbles import differing_positions

        leaf = SpaceTreeLeaf(seeds=seeds, variable_dims=differing_positions(seeds))
        pool = LeafPool([leaf])
        assert len(pool.draw(10)) == 10

    def test_draw_returns_leaf_indices(self):
        pool = LeafPool([make_leaf("2001:db8"), make_leaf("2400:1", index=1)])
        drawn = pool.draw(6)
        indices = {index for _, index in drawn}
        assert indices <= {0, 1}

    def test_no_duplicates_across_draws(self):
        pool = LeafPool([make_leaf("2001:db8")])
        first = {address for address, _ in pool.draw(5)}
        second = {address for address, _ in pool.draw(5)}
        assert not first & second

    def test_exclude_respected(self):
        excluded = A("2001:db8::5")
        pool = LeafPool([make_leaf("2001:db8")], exclude={excluded})
        drawn = {address for address, _ in pool.draw(30)}
        assert excluded not in drawn

    def test_zero_count(self):
        pool = LeafPool([make_leaf("2001:db8")])
        assert pool.draw(0) == []

    def test_exhaustion(self):
        # A single variable dim yields at most 16 + extrapolation values.
        pool = LeafPool([make_leaf("2001:db8", count=2)], max_level=1)
        drawn = pool.draw(1000)
        assert 0 < len(drawn) < 1000
        assert not pool.alive
        assert pool.draw(10) == []

    def test_weight_zero_leaf_deprioritised(self):
        busy = make_leaf("2001:db8", count=8)
        idle = make_leaf("2400:1", count=8, index=1)
        pool = LeafPool([busy, idle], weights=[1.0, 0.0])
        drawn = pool.draw(3)  # within the busy leaf's fresh capacity
        assert all(index == 0 for _, index in drawn)

    def test_zero_weight_fallback_when_only_option(self):
        pool = LeafPool([make_leaf("2001:db8")], weights=[0.0])
        assert len(pool.draw(3)) == 3

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LeafPool([make_leaf("2001:db8")], weights=[1.0, 2.0])

    def test_high_weight_gets_more(self):
        heavy = make_leaf("2001:db8", count=10)
        light = make_leaf("2400:1", count=10, index=1)
        pool = LeafPool([heavy, light], weights=[10.0, 1.0])
        drawn = pool.draw(20)
        heavy_share = sum(1 for _, index in drawn if index == 0)
        assert heavy_share > 10


class TestFeedback:
    def test_record_and_hitrate(self):
        pool = LeafPool([make_leaf("2001:db8")])
        assert pool.hitrate(0) == 0.0
        pool.record(0, True)
        pool.record(0, False)
        assert pool.hitrate(0) == 0.5
        assert pool.probes[0] == 2
        assert pool.hits[0] == 1

    def test_set_weight_clamps_negative(self):
        pool = LeafPool([make_leaf("2001:db8")])
        pool.set_weight(0, -5.0)
        assert pool.weights[0] == 0.0

    def test_len(self):
        pool = LeafPool([make_leaf("2001:db8"), make_leaf("2400:1", index=1)])
        assert len(pool) == 2


# ---------------------------------------------------------------------------
# Leaves and streams are built on first draw
# ---------------------------------------------------------------------------


def _count_leaves() -> int:
    return sum(type(obj) is SpaceTreeLeaf for obj in gc.get_objects())


def _made(pool: LeafPool) -> set[int]:
    """Leaves whose candidate stream the pool has made (live or spent)."""
    return {
        index
        for index, stream in enumerate(pool._iterators)
        if stream is None or inspect.isgenerator(stream)
    }


def _large_seeds() -> list[int]:
    return sorted(set(dict(_random_seed_sets())["large"]))


class TestLazyLeaves:
    def test_draw_builds_only_the_leaves_it_takes_from(self):
        table = SpaceTree(_large_seeds(), strategy="entropy").leaves
        before = _count_leaves()
        pool = LeafPool(table)
        assert _count_leaves() == before
        assert not _made(pool)
        assert pool.alive
        drawn = pool.draw(40)
        taken = {index for _, index in drawn}
        assert _made(pool) == taken
        assert _count_leaves() - before == len(taken) == 40
        # A second draw adds only the leaves it newly takes from.
        more = {index for _, index in pool.draw(40)}
        assert _made(pool) == taken | more
        assert _count_leaves() - before == len(taken | more) < len(table)

    @pytest.mark.parametrize("name", ["det", "6scan", "addrminer"])
    def test_one_round_leaves_undrawn_leaves_unbuilt(self, name):
        seeds = _large_seeds()
        with use_model_cache(ModelCache()):
            before = _count_leaves()
            tga = create_tga(name, salt=7)
            tga.prepare(seeds)
            proposed = tga.propose_batch(300)
            if name == "det":
                pools = [group.pool for group in tga._groups]
                drawn = {
                    (group, leaf) for group, leaf in tga._pending.values()
                }
            else:
                pools = [tga._pool]
                drawn = {(0, leaf) for leaf in tga._pending.values()}
            made = {
                (number, index)
                for number, pool in enumerate(pools)
                for index in _made(pool)
            }
            built = _count_leaves() - before
            tga.feedback({address: address % 5 == 0 for address in proposed})
            assert _count_leaves() - before == built
        total = sum(len(pool) for pool in pools)
        assert drawn <= made
        assert built == len(made) < total // 4
