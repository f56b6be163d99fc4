"""Prepared-model cache: correctness, bounds and bit-identity.

Three layers of guarantees:

* :class:`repro.tga.ModelCache` unit behaviour — hit/miss/eviction
  accounting, LRU order, cost budget, the disabled escape hatch and the
  ``use_model_cache`` scoping contract.
* The rewritten :class:`repro.tga.SpaceTree` against an embedded
  reference implementation (the pre-optimisation algorithm, transcribed
  verbatim) on randomized seed sets: identical leaves, value sets,
  densities and candidate streams; likewise Entropy/IP's frozen model
  against its per-seed build.
* End-to-end bit-identity: every TGA prepared and driven with the cache
  off, cold and warm produces identical proposal/feedback streams, and a
  telemetry-instrumented grid records identical traces once the
  sanctioned ``tga.model_cache.*`` / ``cached`` markers are stripped.
"""

import math
import random
from collections import Counter

import pytest

from repro.addr import ADDRESS_NYBBLES, SeedList, parse_address
from repro.addr.nybbles import differing_positions, get_nybble, set_nybble
from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid
from repro.experiments.parallel import resolve_workers
from repro.internet import InternetConfig, Port
from repro.telemetry import (
    SANCTIONED_VARIANT_PREFIXES,
    MemorySink,
    Telemetry,
)
from repro.tga import (
    ALL_TGA_NAMES,
    TGA_ALIASES,
    EntropyIP,
    ModelCache,
    SpaceTree,
    cached_space_tree,
    canonical_tga_name,
    create_tga,
    expanded_values,
    leaf_candidates,
    seed_fingerprint,
    use_model_cache,
)
from repro.tga.entropy_ip import segment_boundaries
from repro.tga.spacetree import leaves_for_groups

from .test_vector_parity import _nybble_entropy

SALT = 0xA11CE


def A(text: str) -> int:
    return parse_address(text)


# ---------------------------------------------------------------------------
# ModelCache unit behaviour
# ---------------------------------------------------------------------------


class TestModelCache:
    def test_miss_then_hit_returns_same_object(self):
        cache = ModelCache()
        built = []

        def builder():
            artifact = object()
            built.append(artifact)
            return artifact

        first = cache.get_or_build("kind", 1, (), builder)
        second = cache.get_or_build("kind", 1, (), builder)
        assert first is second
        assert len(built) == 1
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_distinct_keys_do_not_collide(self):
        cache = ModelCache()
        a = cache.get_or_build("kind", 1, ("x",), object)
        b = cache.get_or_build("kind", 1, ("y",), object)
        c = cache.get_or_build("other", 1, ("x",), object)
        d = cache.get_or_build("kind", 2, ("x",), object)
        assert len({id(a), id(b), id(c), id(d)}) == 4
        assert cache.stats.misses == 4

    def test_entry_count_eviction_is_lru(self):
        cache = ModelCache(max_entries=2)
        cache.get_or_build("k", 1, (), lambda: "one")
        cache.get_or_build("k", 2, (), lambda: "two")
        cache.get_or_build("k", 1, (), lambda: "one")  # touch 1: now MRU
        cache.get_or_build("k", 3, (), lambda: "three")  # evicts 2
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        cache.get_or_build("k", 1, (), pytest.fail)  # still cached
        before = cache.stats.misses
        cache.get_or_build("k", 2, (), lambda: "two")  # was evicted
        assert cache.stats.misses == before + 1

    def test_cost_budget_eviction(self):
        cache = ModelCache(max_cost=100)
        cache.get_or_build("k", 1, (), object, cost=60)
        cache.get_or_build("k", 2, (), object, cost=60)  # 120 > 100: drop 1
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        assert cache.total_cost == 60

    def test_newest_entry_never_evicted(self):
        cache = ModelCache(max_cost=10)
        oversized = cache.get_or_build("k", 1, (), object, cost=1_000)
        # Over budget, but the sole (newest) entry must survive so it
        # can still be shared within the cell that built it.
        assert len(cache) == 1
        assert cache.get_or_build("k", 1, (), pytest.fail) is oversized

    def test_clear_drops_entries_keeps_stats(self):
        cache = ModelCache()
        cache.get_or_build("k", 1, (), object)
        cache.get_or_build("k", 1, (), object)
        cache.clear()
        assert len(cache) == 0
        assert cache.total_cost == 0
        assert cache.stats.hits == 1  # history preserved
        before = cache.stats.misses
        cache.get_or_build("k", 1, (), object)
        assert cache.stats.misses == before + 1

    def test_disabled_cache_builds_fresh_and_counts_nothing(self):
        cache = ModelCache(enabled=False)
        a = cache.get_or_build("k", 1, (), object)
        b = cache.get_or_build("k", 1, (), object)
        assert a is not b
        assert len(cache) == 0
        assert cache.stats.as_dict() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ModelCache(max_entries=0)
        with pytest.raises(ValueError):
            ModelCache(max_cost=0)

    def test_use_model_cache_scopes_and_restores(self):
        from repro.tga import get_model_cache

        outer = get_model_cache()
        private = ModelCache()
        with use_model_cache(private) as active:
            assert active is private
            assert get_model_cache() is private
            with use_model_cache(None):  # pass-through
                assert get_model_cache() is private
        assert get_model_cache() is outer

    def test_seed_fingerprint_is_order_and_length_sensitive(self):
        assert seed_fingerprint([1, 2, 3]) != seed_fingerprint([3, 2, 1])
        assert seed_fingerprint([1, 2]) != seed_fingerprint([1, 2, 3])
        assert seed_fingerprint([5, 7]) == seed_fingerprint([5, 7])

    def test_seed_fingerprint_list_and_tuple_agree(self):
        seeds = [A("2001:db8::1"), A("2400:cb00::2"), (1 << 128) - 1, 0]
        assert seed_fingerprint(seeds) == seed_fingerprint(tuple(seeds))

    def test_cached_space_tree_shares_one_build(self):
        seeds = sorted({A(f"2001:db8::{i:x}") for i in range(1, 40)})
        with use_model_cache(ModelCache()) as cache:
            first = cached_space_tree(seeds, strategy="leftmost")
            second = cached_space_tree(seeds, strategy="leftmost")
            other = cached_space_tree(seeds, strategy="entropy")
        assert first is second
        assert other is not first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2


# ---------------------------------------------------------------------------
# SpaceTree vs the pre-optimisation reference implementation
# ---------------------------------------------------------------------------

_REF_ENTROPY_SAMPLE = 2048


def _reference_choose_dim(
    seeds: list[int], variable: list[int], strategy: str, order=None
) -> int:
    """``SpaceTree._choose_dim`` as it was before the fast path.

    Entropy terms are summed in first-seen value order (dict insertion
    order); ``order`` replaces it with another ordering of the values,
    to show a family is sensitive to the summation order.
    """
    if strategy == "leftmost":
        return variable[0]
    if len(seeds) > _REF_ENTROPY_SAMPLE:
        stride = len(seeds) // _REF_ENTROPY_SAMPLE
        sample = seeds[::stride]
    else:
        sample = seeds
    best_dim = variable[0]
    best_entropy = float("inf")
    total = len(sample)
    for dim in variable:
        shift = (ADDRESS_NYBBLES - 1 - dim) * 4
        counts: dict[int, int] = {}
        for seed in sample:
            value = (seed >> shift) & 0xF
            counts[value] = counts.get(value, 0) + 1
        entropy = 0.0
        values = list(counts) if order is None else order(counts)
        for value in values:
            p = counts[value] / total
            entropy -= p * math.log2(p)
        if 0.0 < entropy < best_entropy:
            best_entropy = entropy
            best_dim = dim
    return best_dim


def _reference_build(tree: SpaceTree, seeds: list[int], order=None) -> list[dict]:
    """Rebuild ``tree``'s leaf list with the reference algorithm.

    Returns plain dicts (seeds/dims/depth/is_internal) in emission
    order, mirroring ``SpaceTree._build`` before the packed-row rewrite.
    """
    leaves: list[dict] = []

    def build(seeds: list[int], depth: int) -> None:
        variable = differing_positions(seeds)
        if (
            len(seeds) <= tree.max_leaf_seeds
            or len(variable) <= 2
            or depth >= tree.max_depth
        ):
            leaves.append(
                {"seeds": seeds, "dims": variable, "depth": depth, "internal": False}
            )
            return
        if (
            tree.internal_regions
            and len(seeds) <= tree.max_internal_seeds
            and len(variable) <= tree.max_internal_dims
        ):
            leaves.append(
                {"seeds": seeds, "dims": variable, "depth": depth, "internal": True}
            )
        dim = _reference_choose_dim(seeds, variable, tree.strategy, order)
        buckets: dict[int, list[int]] = {}
        for seed in seeds:
            buckets.setdefault(get_nybble(seed, dim), []).append(seed)
        if len(buckets) <= 1:
            leaves.append(
                {"seeds": seeds, "dims": variable, "depth": depth, "internal": False}
            )
            return
        for value in sorted(buckets):
            build(buckets[value], depth + 1)

    build(sorted(set(seeds)), depth=0)
    return leaves


def _reference_candidates(leaf, limit: int | None = None) -> list[int]:
    """``leaf_candidates`` as written before the mask fast path: the
    first ``limit`` candidates, or the whole stream."""
    import itertools

    dims = sorted(leaf.effective_dims, reverse=True)
    value_sets = leaf.value_sets()
    emitted = set(leaf.seeds)
    out: list[int] = []
    for level in range(1, min(3, len(dims)) + 1):
        for combo in itertools.combinations(dims, level):
            combo_values = [value_sets[dim] for dim in combo]
            for base in leaf.seeds:
                for assignment in itertools.product(*combo_values):
                    address = base
                    for dim, value in zip(combo, assignment):
                        address = set_nybble(address, dim, value)
                    if address not in emitted:
                        emitted.add(address)
                        out.append(address)
                        if limit is not None and len(out) >= limit:
                            return out
    return out


def _random_seed_sets() -> list[tuple[str, list[int]]]:
    """Deterministic pseudo-random seed families of varied shape."""
    rng = random.Random(0x5EED5)
    sets: list[tuple[str, list[int]]] = []
    # Dense /64s with small IIDs (the structured common case).
    sets.append(
        (
            "dense64",
            [
                (0x20010DB8 << 96) | (net << 64) | iid
                for net in range(4)
                for iid in rng.sample(range(1, 600), 80)
            ],
        )
    )
    # Scattered across many /32s (wide, shallow tree).
    sets.append(
        (
            "scattered",
            [
                (rng.randrange(0x20000000, 0x2A000000) << 96)
                | rng.getrandbits(64)
                for _ in range(300)
            ],
        )
    )
    # SLAAC-like IIDs (high-entropy low halves).
    sets.append(
        (
            "slaac",
            [
                (0x2A000145 << 96)
                | (rng.randrange(0, 8) << 64)
                | (rng.getrandbits(24) << 40)
                | (0xFFFE << 24)
                | rng.getrandbits(24)
                for _ in range(400)
            ],
        )
    )
    # Tiny degenerate sets down to a single seed.
    sets.append(("single", [(0x20010DB8 << 96) | 0x42]))
    sets.append(
        ("pair", [(0x20010DB8 << 96) | 0x42, (0x20010DB8 << 96) | 0x1042])
    )
    # Large stride-sampled entropy case (> _ENTROPY_SAMPLE seeds).
    sets.append(
        (
            "large",
            [
                (0x24008500 << 96)
                | (rng.randrange(0, 12) << 80)
                | (rng.randrange(0, 3) << 64)
                | rng.randrange(0, 1 << 20)
                for _ in range(5000)
            ],
        )
    )
    # Above 6,144 seeds the entropy sample stride is at least 3.  The
    # last nybble is 1 on every third seed: a stride-3 sample sees it
    # constant, any other stride sees the lowest entropy there.
    sets.append(
        (
            "huge",
            [
                (0x2A0E0500 << 96) | (index << 4) | (index % 3 == 0)
                for index in range(6600)
            ],
        )
    )
    sets.append(("tie", list(_TIE_FAMILY)))
    return sets


#: Nybbles 28 and 29 both split these 13 seeds 3/4/6, with the counts
#: first seen in different orders.  Their entropies differ only in the
#: last bit, so the root split follows the summation order.
_TIE_FAMILY = tuple(
    (0x20010DB8 << 96) | low
    for low in (
        0x0, 0x1, 0x7, 0x8, 0x204, 0x205, 0x1003,
        0x1006, 0x110A, 0x1209, 0x210B, 0x210C, 0x2202,
    )
)


def _reference_value_sets(leaf_dims: list[int], seeds: list[int]) -> dict:
    return {
        dim: expanded_values({get_nybble(seed, dim) for seed in seeds})
        for dim in leaf_dims or [ADDRESS_NYBBLES - 1, ADDRESS_NYBBLES - 2]
    }


def _reference_density(seeds: list[int], value_sets: dict) -> float:
    space_log = sum(math.log2(max(2, len(values))) for values in value_sets.values())
    return len(seeds) / (1.0 + space_log)


class TestSpaceTreeMatchesReference:
    @pytest.mark.parametrize("strategy", ["leftmost", "entropy"])
    @pytest.mark.parametrize(
        "name,seeds",
        _random_seed_sets(),
        ids=[name for name, _ in _random_seed_sets()],
    )
    def test_leaves_and_streams_match(self, strategy, name, seeds):
        tree = SpaceTree(list(seeds), strategy=strategy)
        reference = _reference_build(tree, list(seeds))

        # The region columns, read before any leaf is built, bit for bit.
        table = tree.leaves
        assert (
            table.density,
            [table.variable_dims(row) for row in range(len(table))],
            table.depths.tolist(),
            table.internal.tolist(),
        ) == (
            [
                _reference_density(
                    ref["seeds"], _reference_value_sets(ref["dims"], ref["seeds"])
                )
                for ref in reference
            ],
            [ref["dims"] for ref in reference],
            [ref["depth"] for ref in reference],
            [ref["internal"] for ref in reference],
        )
        assert len(tree.leaves) == len(reference)
        for leaf, ref in zip(tree.leaves, reference):
            assert leaf.seeds == ref["seeds"]
            assert leaf.variable_dims == ref["dims"]
            assert leaf.depth == ref["depth"]
            assert leaf.is_internal == ref["internal"]
            # Expanded value sets and the density ranking signal must be
            # bit-identical (floats included: same op order).
            value_sets = _reference_value_sets(ref["dims"], ref["seeds"])
            assert list(leaf.value_sets().items()) == list(value_sets.items())
            assert leaf.density == _reference_density(ref["seeds"], value_sets)
        # Candidate streams: compare a prefix of every leaf's stream.
        for leaf in tree.leaves[:12]:
            expected = _reference_candidates(leaf, limit=300)
            actual = []
            for address in leaf_candidates(leaf):
                actual.append(address)
                if len(actual) >= len(expected):
                    break
            assert actual == expected

    def test_tie_split_follows_first_seen_order(self):
        seeds = list(_TIE_FAMILY)
        tree = SpaceTree(seeds, strategy="entropy")
        first_seen = _reference_build(tree, seeds)
        by_value = _reference_build(tree, seeds, order=sorted)
        # The family discriminates: summing in value order splits on
        # another nybble.
        assert first_seen[0]["dims"] == [28, 29, 31]
        assert first_seen != by_value
        assert [
            {
                "seeds": leaf.seeds,
                "dims": leaf.variable_dims,
                "depth": leaf.depth,
                "internal": leaf.is_internal,
            }
            for leaf in tree.leaves
        ] == first_seen

    def test_grouped_leaves_match_reference(self):
        # 6Gen clusters and 6Graph patterns: leaves over arbitrary seed
        # groups, including a single-seed one.
        _, seeds = _random_seed_sets()[0]
        groups = [sorted(seeds[start : start + 37]) for start in range(0, 320, 37)]
        groups.append([seeds[0]])
        for leaf, group in zip(leaves_for_groups(groups), groups):
            dims = differing_positions(group)
            value_sets = _reference_value_sets(dims, group)
            assert (leaf.seeds, leaf.variable_dims) == (group, dims)
            assert list(leaf.value_sets().items()) == list(value_sets.items())
            assert leaf.density == _reference_density(group, value_sets)


# ---------------------------------------------------------------------------
# Entropy/IP vs its pre-columnar model build
# ---------------------------------------------------------------------------


def _reference_eip_model(seeds: list[int]) -> tuple:
    """``EntropyIP._frozen_model``'s build as written before the columnar
    prepare: a per-nybble segment loop and ``setdefault`` pair counting."""
    entropies = [_nybble_entropy(seeds, dim) for dim in range(ADDRESS_NYBBLES)]
    starts = segment_boundaries(entropies)
    segments = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else ADDRESS_NYBBLES
        segments.append((start, end - start))
    marginals = []
    transitions_chain = []
    previous_values = None
    for start, length in segments:
        values = []
        for seed in seeds:
            value = 0
            for dim in range(start, start + length):
                value = (value << 4) | get_nybble(seed, dim)
            values.append(value)
        marginals.append(Counter(values).most_common(24))
        transitions = {}
        if previous_values is not None:
            pair_counts = {}
            for prev, cur in zip(previous_values, values):
                pair_counts.setdefault(prev, Counter())[cur] += 1
            transitions = {
                prev: counter.most_common(24)
                for prev, counter in pair_counts.items()
            }
        transitions_chain.append(transitions)
        previous_values = values
    return tuple(segments), tuple(marginals), tuple(transitions_chain)


class TestEntropyIPMatchesReference:
    @pytest.mark.parametrize(
        "name,seeds",
        _random_seed_sets(),
        ids=[name for name, _ in _random_seed_sets()],
    )
    def test_model_matches_including_transition_order(self, name, seeds):
        with use_model_cache(ModelCache(enabled=False)):
            model = EntropyIP()._frozen_model(SeedList(seeds))
        reference = _reference_eip_model(list(seeds))
        assert model[:2] == reference[:2]
        assert [list(table.items()) for table in model[2]] == [
            list(table.items()) for table in reference[2]
        ]


# ---------------------------------------------------------------------------
# Bit-identity across cache off / cold / warm for every TGA
# ---------------------------------------------------------------------------

_ALL_GENERATORS = tuple(ALL_TGA_NAMES) + ("addrminer",)


def _property_datasets() -> list[tuple[str, list[int]]]:
    rng = random.Random(0xD00D)
    datasets: list[tuple[str, list[int]]] = []
    datasets.append(
        (
            "structured",
            [A(f"2001:db8:0:1::{i:x}") for i in range(1, 25)]
            + [A(f"2001:db8:0:2::{i:x}") for i in range(1, 25)]
            + [A("2400:cb00:1::1"), A("2600:9000:1::1"), A("2a00:1450:1::1")],
        )
    )
    datasets.append(
        (
            "lowbyte",
            [
                (0x20010DB8 << 96) | (net << 64) | iid
                for net in range(6)
                for iid in range(1, 30)
            ],
        )
    )
    datasets.append(
        (
            "slaac",
            [
                (0x2A000145 << 96)
                | (rng.randrange(0, 4) << 64)
                | (rng.getrandbits(24) << 40)
                | (0xFFFE << 24)
                | rng.getrandbits(24)
                for _ in range(160)
            ],
        )
    )
    datasets.append(
        (
            "scattered",
            [
                (rng.randrange(0x20000000, 0x28000000) << 96)
                | rng.randrange(0, 1 << 16)
                for _ in range(200)
            ],
        )
    )
    datasets.append(
        (
            "mixed",
            [
                (0x26001700 << 96) | (s << 80) | rng.randrange(0, 4096)
                for s in range(3)
                for _ in range(60)
            ]
            + [(0x20014860 << 96) | (i << 64) | 0x1 for i in range(20)],
        )
    )
    return datasets


def _drive(name: str, seeds: list[int], cache: ModelCache):
    """Prepare + two proposal rounds with feedback, under ``cache``."""
    with use_model_cache(cache):
        tga = create_tga(name, salt=SALT)
        tga.prepare(sorted(set(seeds)))
        first = tga.propose_batch(200)
        tga.feedback({address: address % 3 == 0 for address in first})
        second = tga.propose_batch(200)
    return first, second


class TestCacheBitIdentity:
    """Cache off, cold and warm must be indistinguishable in output."""

    @pytest.mark.parametrize("dataset", _property_datasets(), ids=lambda d: d[0])
    @pytest.mark.parametrize("name", _ALL_GENERATORS)
    def test_streams_identical_off_cold_warm(self, name, dataset):
        _, seeds = dataset
        off = _drive(name, seeds, ModelCache(enabled=False))
        cold = _drive(name, seeds, ModelCache())
        warm_cache = ModelCache()
        _drive(name, seeds, warm_cache)  # populate
        assert warm_cache.stats.misses > 0, name
        warm = _drive(name, seeds, warm_cache)
        assert warm_cache.stats.hits > 0, name
        assert off == cold == warm


def _strip_sanctioned(events: list[dict], snapshot: dict) -> tuple:
    """Drop the markers sanctioned to differ between cache variants."""

    def clean(mapping: dict) -> dict:
        out = {}
        for key, value in mapping.items():
            if key == "cached":
                continue
            if key == "counters" and isinstance(value, dict):
                value = {
                    name: count
                    for name, count in value.items()
                    if not name.startswith(SANCTIONED_VARIANT_PREFIXES)
                }
            out[key] = value
        return out

    return [clean(event) for event in events], clean(snapshot)


class TestCachedGridTraces:
    """A telemetry-instrumented grid is trace-identical off/cold/warm."""

    CONFIG = InternetConfig.tiny
    BUDGET = 150

    def _grid(self, cache: ModelCache):
        study = Study(
            config=self.CONFIG(master_seed=97),
            budget=self.BUDGET,
            round_size=self.BUDGET // 2,
        )
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=("6tree", "eip"),
            ports=(Port.ICMP,),
            budget=self.BUDGET,
        )
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        with use_model_cache(cache):
            results = run_grid(study, spec, policy=ExecutionPolicy(telemetry=telemetry))
        telemetry.close()
        return results, sink

    def test_results_and_traces_identical(self):
        off_results, off_sink = self._grid(ModelCache(enabled=False))
        cold_cache = ModelCache()
        cold_results, cold_sink = self._grid(cold_cache)
        assert cold_cache.stats.misses > 0
        warm_results, warm_sink = self._grid(cold_cache)  # now warm
        assert cold_cache.stats.hits > 0

        for key in off_results.runs:
            assert off_results.runs[key] == cold_results.runs[key]
            assert off_results.runs[key] == warm_results.runs[key]

        off = _strip_sanctioned(off_sink.events, off_sink.snapshot)
        cold = _strip_sanctioned(cold_sink.events, cold_sink.snapshot)
        warm = _strip_sanctioned(warm_sink.events, warm_sink.snapshot)
        assert off == cold == warm

    def test_cold_traces_reproduce_exactly(self):
        """Two cold runs (fresh caches) are byte-identical, markers
        included — the determinism property the CI trace gate relies on."""
        first_results, first_sink = self._grid(ModelCache())
        second_results, second_sink = self._grid(ModelCache())
        assert first_results.runs == second_results.runs
        assert first_sink.events == second_sink.events
        assert first_sink.snapshot == second_sink.snapshot


# ---------------------------------------------------------------------------
# Aliases and worker resolution
# ---------------------------------------------------------------------------


class TestAliases:
    @pytest.mark.parametrize("name", _ALL_GENERATORS)
    def test_canonical_names_round_trip(self, name):
        assert canonical_tga_name(name) == name
        assert create_tga(name, salt=SALT).name == name

    @pytest.mark.parametrize("alias,target", sorted(TGA_ALIASES.items()))
    def test_documented_aliases_resolve(self, alias, target):
        assert canonical_tga_name(alias) == target
        assert create_tga(alias, salt=SALT).name == target

    def test_resolution_is_case_insensitive(self):
        assert canonical_tga_name("6Tree") == "6tree"
        assert canonical_tga_name("Entropy_IP") == "eip"

    def test_unknown_name_raises_with_roster(self):
        with pytest.raises(KeyError, match="unknown TGA 'zmap6'"):
            canonical_tga_name("zmap6")

    def test_alias_runs_share_the_study_cache(self):
        study = Study(
            config=InternetConfig.tiny(master_seed=11),
            budget=120,
            round_size=60,
        )
        dataset = study.constructions.all_active
        first = study.run("entropy_ip", dataset, Port.ICMP)
        second = study.run("eip", dataset, Port.ICMP)
        assert first is second
        assert first.tga_name == "eip"


class TestResolveWorkers:
    def test_none_and_ints_pass_through(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(7, 3) == 7

    def test_auto_picks_min_of_cpus_and_cells(self, monkeypatch):
        import repro.experiments.parallel as parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert resolve_workers("auto", 3) == 3
        assert resolve_workers("auto", 100) == 8

    def test_auto_falls_back_to_serial_on_one_cpu(self, monkeypatch):
        import repro.experiments.parallel as parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        assert resolve_workers("auto", 64) == 1
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert resolve_workers("auto", 64) == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("fast", 4)
        with pytest.raises(ValueError):
            resolve_workers(0, 4)
