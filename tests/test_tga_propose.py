"""Table-driven propose against the per-address formulations it replaced.

Entropy/IP draws a whole round through per-segment option tables,
``leaf_candidates`` expands each distinct stripped base once per combo,
and ``LeafPool`` takes a leaf's whole share in one call.  The
one-address-at-a-time versions live here, transcribed, as oracles: the
proposal streams must be identical, round after round, and the
Entropy/IP stream must end each round where the per-address walk
leaves it.
"""

import itertools
import random

import pytest

from repro.addr import ADDRESS_NYBBLES, DeterministicStream, SeedList
from repro.tga import EntropyIP, LeafPool, SpaceTree, SpaceTreeLeaf, leaf_candidates
from repro.tga import entropy_ip
from repro.tga.entropy_ip import _MAX_ATTEMPT_FACTOR
from repro.tga.spacetree import leaves_for_groups

from .test_tga_modelcache import _random_seed_sets, _reference_candidates

SALTS = (0, 0xA11CE)
ROUNDS = (1, 7, 300, 2_000)


# ---------------------------------------------------------------------------
# Entropy/IP: one chain walk per address
# ---------------------------------------------------------------------------


class _ScalarEntropyIP:
    """``EntropyIP.propose`` as one chain walk per address, over the
    same frozen model and stream seed."""

    def __init__(self, seeds: list[int], salt: int) -> None:
        segments, marginals, transitions = EntropyIP()._frozen_model(SeedList(seeds))
        self.segments = list(segments)
        self.marginals = list(marginals)
        self.transitions = list(transitions)
        self.seeds = set(seeds)
        self.stream = DeterministicStream(0xE1B, salt)
        self.emitted: set[int] = set()
        #: Attempts made by the last round.
        self.attempts = 0

    def _sample_from(self, weighted: list[tuple[int, int]]) -> int:
        total = sum(count for _, count in weighted)
        draw = self.stream.next_below(total)
        cumulative = 0
        for value, count in weighted:
            cumulative += count
            if draw < cumulative:
                return value
        return weighted[-1][0]

    def _sample_address(self) -> int:
        address = 0
        previous = None
        for index, (start, length) in enumerate(self.segments):
            options = None
            if previous is not None:
                options = self.transitions[index].get(previous)
            if not options:
                options = self.marginals[index]
            value = self._sample_from(options)
            address = (address << (4 * length)) | value
            previous = value
        return address

    def propose(self, count: int) -> list[int]:
        result: list[int] = []
        attempts = 0
        max_attempts = count * _MAX_ATTEMPT_FACTOR
        while len(result) < count and attempts < max_attempts:
            attempts += 1
            address = self._sample_address()
            if address in self.seeds or address in self.emitted:
                continue
            self.emitted.add(address)
            result.append(address)
        self.attempts = attempts
        return result


_FAMILIES = dict(_random_seed_sets())


class TestEntropyIPMatchesScalarWalk:
    @pytest.mark.parametrize("salt", SALTS)
    @pytest.mark.parametrize("name", list(_FAMILIES))
    def test_rounds_match(self, name, salt):
        seeds = _FAMILIES[name]
        generator = EntropyIP(salt=salt)
        generator.prepare(seeds)
        oracle = _ScalarEntropyIP(seeds, salt)
        for count in ROUNDS:
            assert generator.propose(count) == oracle.propose(count)
        # The stream ended where the per-address walk left it.
        assert generator._stream.next64() == oracle.stream.next64()

    def test_single_seed_values_wider_than_64_bits(self):
        # One seed: every entropy is zero, so one 32-nybble segment
        # whose only value is the whole 128-bit seed.
        (seed,) = _FAMILIES["single"]
        generator = EntropyIP()
        generator.prepare([seed])
        assert generator.segments == [(0, ADDRESS_NYBBLES)]
        assert seed >> 64
        assert generator.propose(5) == []

    def test_some_family_has_a_segment_across_nybble_16(self):
        crossing = [
            name
            for name, seeds in _FAMILIES.items()
            if any(
                start < 16 < start + length
                for start, length in _segments_of(seeds)
            )
        ]
        assert crossing

    @pytest.mark.parametrize("name", ["dense64", "slaac", "pair"])
    def test_rounds_split_into_small_passes_match(self, name, monkeypatch):
        # Rounds wider than one array pass: the passes must continue the
        # stream exactly where the previous one stopped.
        monkeypatch.setattr(entropy_ip, "_PASS_ATTEMPTS", 5)
        seeds = _FAMILIES[name]
        generator = EntropyIP(salt=SALTS[1])
        generator.prepare(seeds)
        oracle = _ScalarEntropyIP(seeds, SALTS[1])
        for count in ROUNDS[:3]:
            assert generator.propose(count) == oracle.propose(count)
        assert generator._stream.next64() == oracle.stream.next64()

    @pytest.mark.parametrize("name", ["single", "pair"])
    def test_attempt_cap_then_another_round(self, name):
        # These models can only re-sample their seeds, so each round
        # spends all count * _MAX_ATTEMPT_FACTOR attempts; the next
        # round starts where the capped one left the stream.
        seeds = _FAMILIES[name]
        generator = EntropyIP(salt=SALTS[1])
        generator.prepare(seeds)
        oracle = _ScalarEntropyIP(seeds, SALTS[1])
        assert generator.propose(300) == oracle.propose(300) == []
        assert oracle.attempts == 300 * _MAX_ATTEMPT_FACTOR
        assert generator.propose(7) == oracle.propose(7)
        assert generator._stream.next64() == oracle.stream.next64()


def _segments_of(seeds: list[int]) -> list[tuple[int, int]]:
    generator = EntropyIP()
    generator.prepare(seeds)
    return generator.segments


# ---------------------------------------------------------------------------
# leaf_candidates: whole streams, many seeds per stripped base
# ---------------------------------------------------------------------------


def _shared_base_leaves() -> list[SpaceTreeLeaf]:
    base = 0x20010DB8 << 96
    # 12 seeds that differ in two dims: every level-1 combo strips them
    # to 3 or 4 bases, the level-2 combo to one.
    two_dims = [base | (a << 4) | b for a in range(3) for b in (1, 2, 5, 9)]
    # 24 seeds over three dims, one of them in the network half.
    three_dims = [
        base | (net << 64) | (a << 8) | b
        for net in (0, 3)
        for a in range(3)
        for b in (0, 4, 7, 15)
    ]
    return leaves_for_groups([two_dims, three_dims])


class TestLeafCandidatesFullStreams:
    def test_shared_base_leaves(self):
        leaves = _shared_base_leaves()
        assert [len(leaf.effective_dims) for leaf in leaves] == [2, 3]
        for leaf in leaves:
            assert list(leaf_candidates(leaf)) == _reference_candidates(leaf)

    @pytest.mark.parametrize("max_level", [1, 2])
    def test_shared_base_leaves_capped_level(self, max_level):
        for leaf in _shared_base_leaves():
            expected = [
                address
                for address in _reference_candidates(leaf)
                if _changed_dims(leaf, address) <= max_level
            ]
            assert list(leaf_candidates(leaf, max_level)) == expected

    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    def test_dense64_internal_regions(self, strategy):
        tree = SpaceTree(list(_FAMILIES["dense64"]), strategy=strategy)
        internal = [leaf for leaf in tree.leaves if leaf.is_internal]
        assert internal
        for leaf in internal:
            assert list(leaf_candidates(leaf)) == _reference_candidates(leaf)


def _changed_dims(leaf: SpaceTreeLeaf, address: int) -> int:
    """Fewest dims in which ``address`` differs from one of the leaf's
    seeds: the level that first emits it."""
    return min(
        sum(
            1
            for dim in range(ADDRESS_NYBBLES)
            if (seed ^ address) >> (4 * (ADDRESS_NYBBLES - 1 - dim)) & 0xF
        )
        for seed in leaf.seeds
    )


# ---------------------------------------------------------------------------
# LeafPool.draw: one pull per address
# ---------------------------------------------------------------------------


class _PerAddressPool(LeafPool):
    """``LeafPool.draw`` as written with one ``_pull`` call per address."""

    def _pull(self, index: int) -> int | None:
        iterator = self._iterators[index]
        if iterator is None:
            return None
        for address in iterator:
            if address in self._emitted or address in self._exclude:
                continue
            self._emitted.add(address)
            return address
        self._iterators[index] = None
        return None

    def draw(self, count: int) -> list[tuple[int, int]]:
        result: list[tuple[int, int]] = []
        if count <= 0:
            return result
        while len(result) < count:
            live = [
                i
                for i, iterator in enumerate(self._iterators)
                if iterator is not None and self.weights[i] > 0.0
            ]
            if not live:
                live = [
                    i for i, it in enumerate(self._iterators) if it is not None
                ]
                if not live:
                    break
                for i in live:
                    self.weights[i] = 1e-9
            total = sum(self.weights[i] for i in live)
            live.sort(key=lambda i: -self.weights[i])
            remaining = count - len(result)
            progressed = False
            for i in live:
                share = max(1, int(remaining * self.weights[i] / total))
                for _ in range(min(share, count - len(result))):
                    address = self._pull(i)
                    if address is None:
                        break
                    result.append((address, i))
                    progressed = True
                if len(result) >= count:
                    break
            if not progressed:
                break
        return result


def _pool_leaves() -> list[SpaceTreeLeaf]:
    """Leaves of very different capacity: dense64's tree leaves, the
    shared-base leaves, and a one-dim leaf that exhausts after a few."""
    tree = SpaceTree(list(_FAMILIES["dense64"]), strategy="entropy")
    tiny = SpaceTreeLeaf(
        seeds=[(0x2400CB00 << 96) | value for value in (1, 2)],
        variable_dims=[ADDRESS_NYBBLES - 1],
    )
    return tree.leaves[:10] + _shared_base_leaves() + [tiny]


class TestLeafPoolMatchesPerAddressDraw:
    @pytest.mark.parametrize("max_level", [1, 3])
    @pytest.mark.parametrize("with_exclude", [False, True])
    def test_draw_sequences_match(self, max_level, with_exclude):
        leaves = _pool_leaves()
        exclude = None
        if with_exclude:
            # Every third candidate of each leaf's level-1 stream.
            exclude = {
                address
                for leaf in leaves
                for address in itertools.islice(leaf_candidates(leaf, 1), 0, None, 3)
            }
        pool = LeafPool(leaves, max_level=max_level, exclude=exclude)
        oracle = _PerAddressPool(leaves, max_level=max_level, exclude=exclude)
        rng = random.Random(0x9001)
        exhausted = False
        for _ in range(60):
            count = rng.choice((1, 3, 17, 64, 250, 1_000))
            got = pool.draw(count)
            assert got == oracle.draw(count)
            if exclude is not None:
                assert not {address for address, _ in got} & exclude
            assert pool.alive == oracle.alive
            assert [it is None for it in pool._iterators] == [
                it is None for it in oracle._iterators
            ]
            exhausted |= any(it is None for it in pool._iterators)
            # Reweight between draws, zero weights included.
            for index in rng.sample(range(len(leaves)), 4):
                weight = rng.choice((0.0, 1e-9, 0.3, 2.0, 40.0))
                pool.set_weight(index, weight)
                oracle.set_weight(index, weight)
            if not pool.alive:
                break
        assert exhausted
        assert pool.draw(10) == oracle.draw(10)
