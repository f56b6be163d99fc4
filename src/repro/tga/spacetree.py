"""Hierarchical address-space trees — the shared core of 6Tree, DET,
6Scan and 6Hit.

A space tree recursively partitions the seed set on nybble positions.
Each leaf is a *region*: a set of seeds agreeing on every nybble except a
few "variable dimensions".  Generation expands a leaf by re-assigning
variable dimensions to values near (or interpolating/extrapolating) the
observed ones — exactly the dynamic-expansion step the tree-based TGA
papers describe.

Two split strategies are provided:

``leftmost``
    6Tree's original heuristic — split on the most significant nybble
    that still varies.
``entropy``
    DET's refinement (shared by 6Graph) — split on the variable nybble
    with the *lowest* Shannon entropy, peeling the most structured
    dimension first.

Construction is the hottest path of a cold reproduction (see
``docs/architecture.md`` § Model preparation cache), so the tree works
on columns: the sorted seeds are packed once into their 16 big-endian
bytes and exploded into an ``(n, 32)`` nybble matrix, and the build
advances one depth level at a time over every open node at once.  A
node is a contiguous range of matrix rows; its variable dimensions and
the leaves' value sets come from one per-dimension presence mask, and a
split is a stable partition of its range on the chosen column.  All of
it is bit-identical to the recursive per-seed formulation: leaves keep
its depth-first order and the entropy terms keep its float summation
order.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from ..addr import ADDRESS_NYBBLES
from ..addr.address import MAX_ADDRESS
from ..addr.nybbles import nybble_matrix_from_bytes
from ..addr.vector import np

__all__ = [
    "SpaceTreeLeaf",
    "SpaceTree",
    "column_entropies",
    "expanded_values",
    "leaf_candidates",
    "leaves_for_groups",
    "seed_bytes",
    "seed_matrix",
]

_ADDRESS_BYTES = ADDRESS_NYBBLES // 2

#: Dimensions to vary when a leaf's seeds are all identical.  Expanding
#: the least significant IID nybbles mirrors what tree TGAs do with
#: degenerate regions: probe the immediate numeric neighbourhood of the
#: known address.
_DEFAULT_EXPANSION_DIMS = (ADDRESS_NYBBLES - 1, ADDRESS_NYBBLES - 2)

#: Bin offset of each dimension in a group's 32 x 16 (dim, value) bins.
_DIM_BINS = np.arange(ADDRESS_NYBBLES, dtype=np.int32) << 4

#: ``log2(max(2, k))``, the pattern-space term of a ``k``-value set.
_SPACE_LOG = [math.log2(max(2, size)) for size in range(17)]


def expanded_values(observed: set[int]) -> list[int]:
    """Candidate nybble values for a variable dimension.

    Observed values first (they co-occur with known-active addresses),
    then gap-fill between min and max, then a short extrapolation above
    and below — the "expand the pattern" move every tree TGA makes.
    """
    ordered = sorted(observed)
    seen = set(ordered)
    result = list(ordered)
    lo, hi = ordered[0], ordered[-1]
    for value in range(lo, hi + 1):  # gap fill
        if value not in seen:
            seen.add(value)
            result.append(value)
    for value in (hi + 1, hi + 2, lo - 1):  # extrapolate
        if 0 <= value <= 0xF and value not in seen:
            seen.add(value)
            result.append(value)
    return result


# A presence mask has 16 bits, so this memo holds at most 2**16 entries.
@functools.cache
def _mask_values(mask: int) -> tuple[int, ...]:
    """:func:`expanded_values` of the nybble values set in ``mask``."""
    return tuple(expanded_values({value for value in range(16) if mask >> value & 1}))


# -- columnar seed representation ---------------------------------------------


def seed_bytes(seeds: Iterable[int]) -> bytes:
    """Each seed's 16 big-endian bytes (two nybbles a byte), concatenated."""
    return b"".join(
        map(
            int.to_bytes,
            seeds,
            itertools.repeat(_ADDRESS_BYTES),
            itertools.repeat("big"),
        )
    )


def seed_matrix(seeds: Iterable[int]):
    """The ``(n, 32)`` uint8 nybble matrix of the seeds' packed bytes."""
    data = np.frombuffer(seed_bytes(seeds), dtype=np.uint8)
    return nybble_matrix_from_bytes(data.reshape(-1, _ADDRESS_BYTES))


def _presence_masks(matrix, offsets):
    """Per-range presence masks: bit ``v`` of ``masks[k, d]`` is set when
    some row of range ``k`` has nybble ``v`` at dimension ``d``.

    ``offsets`` are the ascending starts of consecutive, non-empty row
    ranges that together cover ``matrix``.
    """
    bits = np.left_shift(np.uint16(1), matrix, dtype=np.uint16)
    return np.bitwise_or.reduceat(bits, offsets, axis=0)


def column_entropies(matrix, sizes, wanted):
    """Shannon entropy of the wanted nybble columns of each row group.

    ``matrix`` rows form consecutive groups of ``sizes`` rows (each at
    least one); ``wanted`` is a ``(groups, 32)`` bool array.  Returns a
    ``(groups, 32)`` float64 array, zero where not wanted.

    Each entropy is bit-identical to subtracting ``p * math.log2(p)``
    from ``0.0`` one term after another in first-seen value order: the
    terms use :func:`math.log2` (numpy's vector ``log2`` need not match
    libm), and the subtraction runs term rank by term rank over every
    column at once, so each column's sum keeps its sequential order.
    """
    groups = len(sizes)
    group = np.repeat(np.arange(groups, dtype=np.int32), sizes)
    # One bin per (group, dim, value), in row-major (row, dim) order.
    bins = ((group << 9)[:, np.newaxis] | _DIM_BINS) | matrix
    bins = bins[wanted[group]]
    size = groups << 9
    counts = np.bincount(bins, minlength=size)
    # The smallest position in a bin is its value's first occurrence.
    first = np.full(size, bins.size, dtype=np.intp)
    np.minimum.at(first, bins, np.arange(bins.size, dtype=np.intp))
    present = np.flatnonzero(counts)
    cell = present >> 4
    order = np.lexsort((first[present], cell))
    present = present[order]
    cell = cell[order]

    p = counts[present] / np.asarray(sizes)[cell >> 5]
    distinct, inverse = np.unique(p, return_inverse=True)
    logs = np.array([math.log2(value) for value in distinct.tolist()])
    terms = p * logs[inverse]

    heads = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    lengths = np.diff(np.concatenate((heads, [cell.size])))
    rank = np.arange(cell.size) - np.repeat(heads, lengths)
    ranked = np.zeros((heads.size, 16))
    ranked[np.repeat(np.arange(heads.size), lengths), rank] = terms
    sums = np.zeros(heads.size)
    for column in ranked.T:
        sums -= column
    entropies = np.zeros(groups * ADDRESS_NYBBLES)
    entropies[cell[heads]] = sums
    return entropies.reshape(groups, ADDRESS_NYBBLES)


# -- leaves --------------------------------------------------------------------


@dataclass
class SpaceTreeLeaf:
    """One region of a space tree.

    Ordinary leaves hold the seeds at the bottom of the partition;
    *internal* regions (``is_internal``) correspond to split nodes and
    carry wider wildcard patterns — they model the tree TGAs' behaviour
    of expanding back up the hierarchy once a dense leaf is exhausted
    (e.g. discovering sibling subnets never seen in the seeds).

    The expanded value sets and the density are computed once, at
    construction, and travel with the leaf when it is pickled.
    """

    seeds: list[int]
    variable_dims: list[int]
    depth: int = 0
    index: int = 0  # position within the tree's leaf list
    is_internal: bool = False

    _value_sets: dict[int, list[int]] | None = field(default=None, repr=False)
    #: Seeds per unit of (log) pattern-space size — the ranking signal.
    #: Denser regions (many seeds, small wildcard space) are likelier to
    #: contain further active addresses, so they are expanded first.
    density: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self._value_sets is None:
            (masks,) = _presence_masks(seed_matrix(self.seeds), [0]).tolist()
            self._value_sets = _value_sets(self.effective_dims, masks)
        space_log = sum(
            [_SPACE_LOG[len(values)] for values in self._value_sets.values()]
        )
        self.density = len(self.seeds) / (1.0 + space_log)

    @property
    def effective_dims(self) -> list[int]:
        """Variable dims, or fallback expansion dims for degenerate leaves."""
        return self.variable_dims or list(_DEFAULT_EXPANSION_DIMS)

    def value_sets(self) -> dict[int, list[int]]:
        """Expanded candidate values per effective dimension."""
        return self._value_sets

    def span_score(self) -> float:
        """How much *new space* this leaf opens (higher = more exploratory)."""
        return sum(len(values) for values in self._value_sets.values())


def _value_sets(dims: Iterable[int], masks: list[int]) -> dict[int, list[int]]:
    return {dim: list(_mask_values(masks[dim])) for dim in dims}


def _leaves(
    seed_lists: Iterable[list[int]],
    masks,
    depth: int,
    internal: Iterable[bool],
) -> list[SpaceTreeLeaf]:
    """Leaves over seed lists given their ``(k, 32)`` presence masks.

    Each leaf varies where its seeds differ: the dims whose mask has
    more than one bit set.
    """
    varies = (masks & (masks - 1)) != 0
    dims = np.nonzero(varies)[1].tolist()
    ends = np.cumsum(varies.sum(axis=1)).tolist()
    leaves = []
    start = 0
    for seeds, end, row, is_internal in zip(seed_lists, ends, masks.tolist(), internal):
        variable = dims[start:end]
        start = end
        leaves.append(
            SpaceTreeLeaf(
                seeds=seeds,
                variable_dims=variable,
                depth=depth,
                is_internal=is_internal,
                _value_sets=_value_sets(variable or _DEFAULT_EXPANSION_DIMS, row),
            )
        )
    return leaves


def leaves_for_groups(groups: Sequence[list[int]]) -> list[SpaceTreeLeaf]:
    """One leaf per non-empty seed group, varying where its seeds differ.

    Equivalent to ``SpaceTreeLeaf(seeds=g, variable_dims=
    differing_positions(g))`` for each group ``g``, with every group's
    presence masks taken in one pass over one matrix.
    """
    if not groups:
        return []
    sizes = [len(group) for group in groups]
    offsets = list(itertools.accumulate(sizes, initial=0))[:-1]
    matrix = seed_matrix(itertools.chain.from_iterable(groups))
    masks = _presence_masks(matrix, offsets)
    return _leaves(groups, masks, 0, itertools.repeat(False))


def leaf_candidates(leaf: SpaceTreeLeaf, max_level: int = 3) -> Iterator[int]:
    """Deterministic candidate stream for one leaf.

    Level ``k`` re-assigns ``k`` variable dimensions at a time, starting
    from each seed.  Lower levels come first: they are the smallest
    generalisations of observed structure and empirically the likeliest
    to be active.  Seeds themselves are never emitted.
    """
    # Vary least-significant dimensions first: changing a low IID nybble
    # is the smallest step away from a known-active address, while
    # changing a site/subnet nybble jumps to a different network.
    dims = sorted(leaf.effective_dims, reverse=True)
    value_sets = leaf.value_sets()
    emitted: set[int] = set(leaf.seeds)
    max_level = min(max_level, len(dims))

    for level in range(1, max_level + 1):
        for combo in itertools.combinations(dims, level):
            # One clear-mask per combo plus pre-shifted value lists turn
            # the per-candidate work into a mask-and-OR instead of
            # per-dimension set_nybble calls.
            clear_mask = MAX_ADDRESS
            shifted_lists: list[list[int]] = []
            for dim in combo:
                shift = (ADDRESS_NYBBLES - 1 - dim) * 4
                clear_mask ^= 0xF << shift
                shifted_lists.append(
                    [value << shift for value in value_sets[dim]]
                )
            # Seeds that agree outside the combo's dims strip to one
            # base, whose candidates the first such seed already emitted.
            expanded: set[int] = set()
            for base in leaf.seeds:
                stripped = base & clear_mask
                if stripped in expanded:
                    continue
                expanded.add(stripped)
                if level == 1:
                    parts: Iterable[int] = shifted_lists[0]
                else:
                    # The shifted values fill disjoint nybbles, so their
                    # sum is their OR.
                    parts = map(sum, itertools.product(*shifted_lists))
                for part in parts:
                    address = stripped | part
                    if address not in emitted:
                        emitted.add(address)
                        yield address


def _concat_ranges(starts, counts, steps=None):
    """Concatenated ``arange(start, start + count * step, step)`` of every
    range (``step`` 1 when ``steps`` is omitted)."""
    offsets = np.cumsum(counts) - counts
    index = np.arange(int(counts.sum()), dtype=np.intp) - np.repeat(offsets, counts)
    if steps is not None:
        index *= np.repeat(steps, counts)
    return np.repeat(starts, counts) + index


class SpaceTree:
    """A space tree over a seed set with pluggable split strategy."""

    def __init__(
        self,
        seeds: list[int],
        strategy: str = "leftmost",
        max_leaf_seeds: int = 12,
        max_depth: int = ADDRESS_NYBBLES,
        internal_regions: bool = True,
        max_internal_seeds: int = 384,
        max_internal_dims: int = 8,
    ) -> None:
        if strategy not in ("leftmost", "entropy"):
            raise ValueError(f"unknown split strategy: {strategy!r}")
        if not seeds:
            raise ValueError("cannot build a space tree from no seeds")
        self.strategy = strategy
        self.max_leaf_seeds = max_leaf_seeds
        self.max_depth = max_depth
        self.internal_regions = internal_regions
        self.max_internal_seeds = max_internal_seeds
        self.max_internal_dims = max_internal_dims
        self.leaves = self._build(sorted(set(seeds)))
        for index, leaf in enumerate(self.leaves):
            leaf.index = index

    # -- construction -----------------------------------------------------

    def _build(self, seeds: list[int]) -> list[SpaceTreeLeaf]:
        """Partition ``seeds`` (sorted, unique) level by level.

        ``rows`` is the current arrangement of matrix rows: every open
        node is a contiguous range of it, and stable partitions keep
        each range in ascending seed order.  A region is recorded with
        the start of its range and its depth; sorting on that pair
        yields the depth-first leaf order (a node before its children,
        children by ascending nybble).
        """
        matrix = seed_matrix(seeds)
        seed_column = np.array(seeds, dtype=object)
        rows = np.arange(len(seeds), dtype=np.intp)
        starts = np.zeros(1, dtype=np.intp)
        sizes = np.array([len(seeds)], dtype=np.intp)
        regions: list[tuple[int, int, SpaceTreeLeaf]] = []
        for depth in itertools.count():
            positions = _concat_ranges(starts, sizes)
            active = rows[positions]
            offsets = np.cumsum(sizes) - sizes
            masks = _presence_masks(matrix[active], offsets)
            varies = (masks & (masks - 1)) != 0
            variable_counts = varies.sum(axis=1)
            final = (
                (sizes <= self.max_leaf_seeds)
                | (variable_counts <= 2)  # already a compact pattern
                | (depth >= self.max_depth)
            )
            # Internal regions are generalisation regions for split
            # nodes: they let the pool expand back up the hierarchy
            # (e.g. into sibling subnets) after the dense leaves below
            # are exhausted.
            internal = (
                ~final
                & (sizes <= self.max_internal_seeds)
                & (variable_counts <= self.max_internal_dims)
                & self.internal_regions
            )
            emitted = np.flatnonzero(final | internal)
            if emitted.size:
                emitted_sizes = sizes[emitted]
                emitted_seeds = seed_column[
                    active[_concat_ranges(offsets[emitted], emitted_sizes)]
                ].tolist()
                bounds = itertools.pairwise(
                    itertools.accumulate(emitted_sizes.tolist(), initial=0)
                )
                seed_lists = [emitted_seeds[lo:hi] for lo, hi in bounds]
                leaves = _leaves(
                    seed_lists, masks[emitted], depth, internal[emitted].tolist()
                )
                regions.extend(
                    zip(starts[emitted].tolist(), itertools.repeat(depth), leaves)
                )
            split = np.flatnonzero(~final)
            if not split.size:
                break
            dims = self._choose_dims(
                matrix, active, offsets[split], sizes[split], varies[split]
            )
            # Stable partition of every split node on its chosen column.
            local = _concat_ranges(offsets[split], sizes[split])
            split_rows = active[local]
            node = np.repeat(np.arange(split.size, dtype=np.intp), sizes[split])
            keys = (node << 4) | matrix[split_rows, dims[node]]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            split_positions = positions[local]
            rows[split_positions] = split_rows[order]
            bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
            child_starts = np.concatenate(([0], bounds))
            child_sizes = np.diff(np.concatenate((child_starts, [keys.size])))
            starts = split_positions[child_starts]
            sizes = child_sizes
        regions.sort(key=lambda region: (region[0], region[1]))
        return [leaf for _, _, leaf in regions]

    # Entropy estimation on huge nodes samples a deterministic stride of
    # seeds: the split choice is a ranking, and a few thousand samples
    # rank 16-bin histograms reliably.
    _ENTROPY_SAMPLE = 2048

    def _choose_dims(self, matrix, active, offsets, sizes, varies):
        """The split dimension of each node (ranges of ``active``)."""
        if self.strategy == "leftmost":
            return varies.argmax(axis=1)
        # Entropy strategy: lowest-entropy variable dimension first,
        # scored on every row, or on every ``n // 2048``-th row of a
        # node above 2,048 seeds.
        strides = np.maximum(sizes // self._ENTROPY_SAMPLE, 1)
        samples = (sizes + strides - 1) // strides
        picked = active[_concat_ranges(offsets, samples, strides)]
        entropies = column_entropies(matrix[picked], samples, varies)
        # The first dim reaching the lowest positive entropy, like a
        # strict ``0 < entropy < best`` scan in ascending dim order.
        scores = np.where(varies & (entropies > 0.0), entropies, np.inf)
        return np.where(
            np.isinf(scores.min(axis=1)), varies.argmax(axis=1), scores.argmin(axis=1)
        )

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.leaves)

    def leaves_by_density(self) -> list[SpaceTreeLeaf]:
        """Leaves ranked densest first (ties broken by tree order)."""
        return sorted(self.leaves, key=lambda leaf: (-leaf.density, leaf.index))
