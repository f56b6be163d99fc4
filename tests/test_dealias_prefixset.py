"""Tests for repro.dealias.prefixset."""

from repro.addr import Prefix, parse_address
from repro.dealias import AliasPrefixSet


class TestAliasPrefixSet:
    def test_empty(self):
        aliases = AliasPrefixSet()
        assert len(aliases) == 0
        assert not aliases.covers(parse_address("2001:db8::1"))

    def test_covers(self):
        aliases = AliasPrefixSet([Prefix.parse("2001:db8::/64")])
        assert aliases.covers(parse_address("2001:db8::1234"))
        assert not aliases.covers(parse_address("2001:db8:0:1::1"))

    def test_contains_operator(self):
        aliases = AliasPrefixSet([Prefix.parse("2001:db8::/64")])
        assert parse_address("2001:db8::1") in aliases

    def test_mixed_lengths(self):
        aliases = AliasPrefixSet(
            [Prefix.parse("2001:db8::/64"), Prefix.parse("2600:9000::/48")]
        )
        assert aliases.covers(parse_address("2600:9000:0:ffff::1"))
        assert not aliases.covers(parse_address("2600:9001::1"))

    def test_idempotent_add(self):
        aliases = AliasPrefixSet()
        aliases.add(Prefix.parse("2001:db8::/96"))
        aliases.add(Prefix.parse("2001:db8::/96"))
        assert len(aliases) == 1

    def test_partition(self):
        aliases = AliasPrefixSet([Prefix.parse("2001:db8::/64")])
        inside = parse_address("2001:db8::42")
        outside = parse_address("2400::1")
        clean, aliased = aliases.partition([inside, outside])
        assert clean == {outside}
        assert aliased == {inside}

    def test_partition_empty(self):
        clean, aliased = AliasPrefixSet().partition([])
        assert clean == set() and aliased == set()

    def test_merged_with(self):
        a = AliasPrefixSet([Prefix.parse("2001:db8::/64")])
        b = AliasPrefixSet([Prefix.parse("2400::/64")])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert merged.covers(parse_address("2001:db8::1"))
        assert merged.covers(parse_address("2400::1"))
        # Originals untouched.
        assert len(a) == 1 and len(b) == 1

    def test_prefixes_sorted(self):
        aliases = AliasPrefixSet(
            [Prefix.parse("2400::/64"), Prefix.parse("2001:db8::/64")]
        )
        listed = aliases.prefixes()
        assert listed == sorted(listed)


class TestIntervalTableParity:
    """The merged range table answers exactly as a PrefixTrie does."""

    @staticmethod
    def random_prefixes(rng, count):
        prefixes = [Prefix(0, 0), Prefix((1 << 128) - 1, 128)] if rng.random() < 0.3 else []
        anchors = [rng.getrandbits(128) for _ in range(6)]
        while len(prefixes) < count:
            anchor = rng.choice(anchors)
            length = rng.choice([1, 16, 32, 47, 48, 63, 64, 65, 96, 112, 127, 128])
            prefix = Prefix.of(anchor, length)
            prefixes.append(prefix)
            if rng.random() < 0.3:
                # An adjacent sibling of the same length.
                step = 1 << (128 - length)
                if prefix.value + step < (1 << 128):
                    prefixes.append(Prefix(prefix.value + step, length))
        return prefixes

    @staticmethod
    def probes(rng, prefixes):
        for prefix in prefixes:
            first = prefix.value
            last = first | ((1 << (128 - prefix.length)) - 1)
            for address in (first - 1, first, first + 1, last - 1, last, last + 1):
                if 0 <= address < (1 << 128):
                    yield address
        for _ in range(200):
            yield rng.getrandbits(128)

    def test_matches_trie(self):
        import random

        from repro.addr import PrefixTrie

        rng = random.Random(0xA11A5)
        for _ in range(60):
            prefixes = self.random_prefixes(rng, rng.randrange(1, 25))
            trie: PrefixTrie[bool] = PrefixTrie()
            for prefix in prefixes:
                trie.insert(prefix, True)
            table = AliasPrefixSet(prefixes)
            addresses = list(self.probes(rng, prefixes))
            for address in addresses:
                assert table.covers(address) == trie.covers(address), hex(address)
            clean, aliased = table.partition(addresses)
            assert aliased == {a for a in addresses if trie.covers(a)}
            assert clean == set(addresses) - aliased
            assert table.prefixes() == trie.prefixes()
            assert len(table) == len(trie)

    def test_add_after_query(self):
        table = AliasPrefixSet([Prefix.parse("2001:db8::/64")])
        inside_later = parse_address("2001:db8:0:1::5")
        assert not table.covers(inside_later)
        table.add(Prefix.parse("2001:db8:0:1::/64"))
        assert table.covers(inside_later)
        # The two /64s merged into one range; the edges still hold.
        assert table.covers(parse_address("2001:db8::"))
        assert not table.covers(parse_address("2001:db8:0:2::"))
        assert len(table) == 2

    def test_whole_space_and_single_address(self):
        assert AliasPrefixSet([Prefix(0, 0)]).covers((1 << 128) - 1)
        single = AliasPrefixSet([Prefix(12345, 128)])
        assert single.covers(12345)
        assert not single.covers(12344) and not single.covers(12346)

    def test_prefixes_order_nested(self):
        outer = Prefix.parse("2001:db8::/32")
        inner = Prefix.parse("2001:db8::/64")
        later = Prefix.parse("2001:db8:1::/48")
        table = AliasPrefixSet([later, inner, outer])
        assert table.prefixes() == [outer, inner, later]
