"""Entropy/IP's numpy counts against its ``Counter`` model build.

The oracle is the counting loop ``EntropyIP._frozen_model`` ran before
its counts moved to ``np.unique``, transcribed: segment values by
shift-and-mask per seed, ``Counter(values).most_common(24)`` per
segment, and transitions from ``Counter(zip(previous, values))``
regrouped by previous value.  The numpy counts must equal it, dict key
order included (the frozen chain's table order and ``most_common``'s
tie-breaks depend on first-seen order), for segments of any width up to
all 32 nybbles.
"""

import random
from collections import Counter

import pytest

from repro.addr import ADDRESS_NYBBLES, SeedList
from repro.tga import EntropyIP, ModelCache, use_model_cache
from repro.tga.entropy_ip import _TOP_VALUES, _segment_counts

from .test_tga_modelcache import _random_seed_sets


def _counter_counts(seeds: list[int], segments) -> tuple[list, list]:
    """The ``Counter`` counting of the segments, as it was written."""
    marginals = []
    transitions_chain = []
    previous_values = None
    for start, length in segments:
        shift = 4 * (ADDRESS_NYBBLES - start - length)
        mask = (1 << (4 * length)) - 1
        values = [(seed >> shift) & mask for seed in seeds]
        marginals.append(Counter(values).most_common(_TOP_VALUES))
        transitions = {}
        if previous_values is not None:
            following = {}
            for (prev, cur), count in Counter(zip(previous_values, values)).items():
                following.setdefault(prev, {})[cur] = count
            transitions = {
                prev: Counter(counts).most_common(_TOP_VALUES)
                for prev, counts in following.items()
            }
        transitions_chain.append(transitions)
        previous_values = values
    return marginals, transitions_chain


def _assert_counts_match(seeds: list[int], segments) -> None:
    marginals, transitions = _segment_counts(SeedList(seeds).matrix, segments)
    expected_marginals, expected_transitions = _counter_counts(seeds, segments)
    assert marginals == expected_marginals
    assert [list(table.items()) for table in transitions] == [
        list(table.items()) for table in expected_transitions
    ]


def _ties() -> list[int]:
    """Values and pairs that tie on count, first seen out of value order."""
    rng = random.Random(0x71E5)
    lows = [0x9, 0x3, 0x7, 0x1] * 40 + [0x5] * 40
    rng.shuffle(lows)
    return [
        (0x20010DB8 << 96) | (rng.choice((0x30, 0x10, 0x20)) << 64) | low
        for low in lows
    ]


_FAMILIES = [*_random_seed_sets(), ("ties", _ties())]

#: Segmentations that no entropy profile has to produce: one 32-nybble
#: segment, segments wider than 16 nybbles, and a straddle of the /64.
_SEGMENTATIONS = [
    [(0, 32)],
    [(0, 7), (7, 20), (27, 5)],
    [(0, 14), (14, 4), (18, 14)],
    [(0, 17), (17, 15)],
    [(i, 1) for i in range(32)],
]


class TestSegmentCounts:
    @pytest.mark.parametrize(
        "name,seeds", _FAMILIES, ids=[name for name, _ in _FAMILIES]
    )
    def test_model_counts_match_counter(self, name, seeds):
        with use_model_cache(ModelCache(enabled=False)):
            model = EntropyIP()._frozen_model(SeedList(seeds))
            segments, marginals, transitions = model
        expected = _counter_counts(list(seeds), segments)
        expected_marginals, expected_transitions = expected
        assert list(marginals) == expected_marginals
        assert [list(table.items()) for table in transitions] == [
            list(table.items()) for table in expected_transitions
        ]

    @pytest.mark.parametrize("segments", _SEGMENTATIONS, ids=str)
    @pytest.mark.parametrize("name", ["dense64", "scattered", "slaac", "ties"])
    def test_any_segment_width(self, name, segments):
        _assert_counts_match(list(dict(_FAMILIES)[name]), segments)

    def test_single_seed_is_one_full_width_segment(self):
        seed = (0x2A0E0500 << 96) | 0xFEED_0000_BEEF_0001
        with use_model_cache(ModelCache(enabled=False)):
            model = EntropyIP()._frozen_model(SeedList([seed]))
            segments, marginals, transitions = model
        assert segments == ((0, 32),)
        assert marginals == ([(seed, 1)],)
        assert transitions == ({},)
        _assert_counts_match([seed], [(0, 32)])

    def test_seed_order_sets_key_order(self):
        seeds = list(dict(_FAMILIES)["ties"])
        forward = _segment_counts(SeedList(seeds).matrix, [(0, 30), (30, 2)])
        backward = _segment_counts(SeedList(seeds[::-1]).matrix, [(0, 30), (30, 2)])
        assert list(forward[1][1]) != list(backward[1][1])
        _assert_counts_match(seeds[::-1], [(0, 30), (30, 2)])
