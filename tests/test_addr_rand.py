"""Tests for repro.addr.rand (determinism is the whole point)."""

import numpy as np
import pytest

from repro.addr import DeterministicStream, choice_index, coin, hash64, mix64, uniform
from repro.addr.rand import hash_address


class TestMix64:
    def test_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_different_inputs_differ(self):
        assert mix64(1) != mix64(2)

    def test_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(value) < 2**64


class TestHash64:
    def test_deterministic(self):
        assert hash64(1, 2, 3) == hash64(1, 2, 3)

    def test_order_sensitive(self):
        assert hash64(1, 2) != hash64(2, 1)

    def test_arity_sensitive(self):
        assert hash64(1) != hash64(1, 0)

    def test_large_parts(self):
        big = 2**127 - 1
        assert 0 <= hash64(big) < 2**64
        assert hash64(big) != hash64(big >> 64)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hash64(-1)

    def test_hash_address_domain_separation(self):
        address = 0x2001_0DB8 << 96
        assert hash_address(1, 1, address) != hash_address(1, 2, address)
        assert hash_address(1, 1, address) != hash_address(2, 1, address)


class TestUniformCoin:
    def test_uniform_in_range(self):
        for salt in range(50):
            value = uniform(7, salt)
            assert 0.0 <= value < 1.0

    def test_coin_extremes(self):
        assert coin(1.0, 1, 2)
        assert not coin(0.0, 1, 2)
        assert coin(1.5, 1, 2)
        assert not coin(-0.5, 1, 2)

    def test_coin_rate_roughly_respected(self):
        hits = sum(coin(0.3, 99, index) for index in range(4000))
        assert 0.25 < hits / 4000 < 0.35

    def test_choice_index_range(self):
        for salt in range(100):
            assert 0 <= choice_index(7, salt) < 7

    def test_choice_index_empty_raises(self):
        with pytest.raises(ValueError):
            choice_index(0, 1)


class TestDeterministicStream:
    def test_same_seed_same_sequence(self):
        a = DeterministicStream(1, 2)
        b = DeterministicStream(1, 2)
        assert [a.next64() for _ in range(10)] == [b.next64() for _ in range(10)]

    def test_different_seed_differs(self):
        a = DeterministicStream(1)
        b = DeterministicStream(2)
        assert [a.next64() for _ in range(4)] != [b.next64() for _ in range(4)]

    def test_next_below(self):
        stream = DeterministicStream(3)
        for _ in range(200):
            assert 0 <= stream.next_below(13) < 13

    def test_next_below_invalid(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).next_below(0)

    def test_next_uniform_range(self):
        stream = DeterministicStream(5)
        for _ in range(100):
            assert 0.0 <= stream.next_uniform() < 1.0

    def test_address_bits_bounds(self):
        stream = DeterministicStream(7)
        for bits in (0, 1, 63, 64, 65, 127, 128):
            value = stream.next_address_bits(bits)
            assert 0 <= value < (1 << bits) if bits else value == 0

    def test_address_bits_invalid(self):
        with pytest.raises(ValueError):
            DeterministicStream(1).next_address_bits(129)

    def test_shuffle_is_permutation(self):
        stream = DeterministicStream(11)
        items = list(range(50))
        shuffled = list(items)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_shuffle_deterministic(self):
        a, b = list(range(20)), list(range(20))
        DeterministicStream(13).shuffle(a)
        DeterministicStream(13).shuffle(b)
        assert a == b

    def test_sample_distinct(self):
        stream = DeterministicStream(17)
        sample = stream.sample(list(range(100)), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_sample_clips(self):
        stream = DeterministicStream(19)
        assert sorted(stream.sample([1, 2, 3], 10)) == [1, 2, 3]

    def test_sample_empty(self):
        assert DeterministicStream(23).sample([], 5) == []


class ScalarStream:
    """One splitmix64 draw at a time: the sequence block draws must keep."""

    GOLDEN = 0x9E37_79B9_7F4A_7C15
    MASK64 = (1 << 64) - 1

    def __init__(self, *seed_parts):
        self.state = hash64(*seed_parts)

    def next64(self):
        self.state = (self.state + self.GOLDEN) & self.MASK64
        return mix64(self.state)

    def next_below(self, n):
        return self.next64() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


class TestBlockDrawnStream:
    """Block-drawn streams ≡ the scalar sequence across block boundaries."""

    DRAWS = 3 * 256 + 41  # spans several blocks and ends mid-block

    def test_next64(self):
        stream, oracle = DeterministicStream(3, 4), ScalarStream(3, 4)
        assert [stream.next64() for _ in range(self.DRAWS)] == [
            oracle.next64() for _ in range(self.DRAWS)
        ]

    def test_default_seed(self):
        stream = DeterministicStream()
        state = 0x853C_49E6_748F_EA9B
        for _ in range(300):
            state = (state + ScalarStream.GOLDEN) & ScalarStream.MASK64
            assert stream.next64() == mix64(state)

    def test_next_below(self):
        stream, oracle = DeterministicStream(5), ScalarStream(5)
        for n in range(1, self.DRAWS):
            assert stream.next_below(n) == oracle.next_below(n)

    def test_next_address_bits_128_straddles_blocks(self):
        stream, oracle = DeterministicStream(6), ScalarStream(6)
        # One odd draw first, so 128-bit pairs straddle block boundaries.
        assert stream.next64() == oracle.next64()
        for _ in range(self.DRAWS // 2):
            assert stream.next_address_bits(128) == (oracle.next64() << 64) | oracle.next64()

    def test_mixed_draw_kinds(self):
        stream, oracle = DeterministicStream(8, 9), ScalarStream(8, 9)
        for _ in range(400):
            assert stream.next_uniform() == oracle.next64() / 2.0**64
            assert stream.next_address_bits(20) == oracle.next64() >> 44

    def test_shuffle(self):
        items = list(range(self.DRAWS))
        got, want = list(items), list(items)
        DeterministicStream(10).shuffle(got)
        ScalarStream(10).shuffle(want)
        assert got == want

    def test_sample(self):
        items = list(range(self.DRAWS))
        want = list(items)
        ScalarStream(12).shuffle(want)
        assert DeterministicStream(12).sample(items, 25) == want[:25]


class TestTake:
    """``take(k)`` ≡ ``k`` single draws, and leaves the stream there."""

    @pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("lead", [0, 1, 255, 256])
    def test_take_interleaved_with_single_draws(self, k, lead):
        stream, oracle = DeterministicStream(21, k), ScalarStream(21, k)
        for _ in range(lead):
            assert stream.next64() == oracle.next64()
        for _ in range(3):
            block = stream.take(k)
            assert block.dtype == np.uint64
            assert block.tolist() == [oracle.next64() for _ in range(k)]
            assert stream.next64() == oracle.next64()
            assert stream.next_below(1000) == oracle.next_below(1000)


class TestWidePartFold:
    """``hash64_batch`` folds a packed 128-bit lane as ``hash64`` folds
    a wide int: the low word, then the high word only when non-zero."""

    VALUES = [
        0,
        1,
        (1 << 64) - 1,
        1 << 64,
        (1 << 64) + 1,
        (1 << 96) | 5,
        0xFFFF << 64,
        (1 << 128) - 1,
    ]

    def values(self):
        import random

        rng = random.Random(0xF01D)
        extra = [rng.getrandbits(rng.choice([16, 63, 64, 65, 96, 127, 128])) for _ in range(500)]
        return self.VALUES + extra

    def test_single_part(self):
        from repro.addr import PackedAddresses, hash64_batch

        values = self.values()
        packed = PackedAddresses.from_addresses(values)
        assert hash64_batch(packed).tolist() == [hash64(v) for v in values]

    def test_between_scalar_and_lane_parts(self):
        from repro.addr import PackedAddresses, hash64_batch

        values = self.values()
        packed = PackedAddresses.from_addresses(values)
        index = np.arange(len(values), dtype=np.uint64)
        assert hash64_batch(0xA1, packed, index).tolist() == [
            hash64(0xA1, v, i) for i, v in enumerate(values)
        ]
        assert hash64_batch(index, 1 << 70, packed).tolist() == [
            hash64(i, 1 << 70, v) for i, v in enumerate(values)
        ]

    def test_coin_batch_with_packed_lane(self):
        from repro.addr import PackedAddresses, coin_batch

        values = self.values()
        fractions = np.linspace(0.0, 1.0, len(values))
        drawn = coin_batch(fractions, 42, 0xD3, PackedAddresses.from_addresses(values))
        assert drawn.tolist() == [
            coin(p, 42, 0xD3, v) for p, v in zip(fractions.tolist(), values)
        ]
        assert coin_batch(0.0, 7, PackedAddresses.from_addresses(values)).shape == (
            len(values),
        )
