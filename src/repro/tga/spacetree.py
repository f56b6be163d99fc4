"""Hierarchical address-space trees — the shared core of the region
generators: 6Tree, 6Scan, 6Hit, DET, AddrMiner, 6Graph and 6Sense grow
space trees, and 6Gen expands its clusters through the same regions.

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
on columns: it reads the sorted seeds' ``(n, 32)`` nybble matrix, which
a :class:`~repro.addr.SeedList` packs once and keeps, and advances one
depth level at a time over every open node at once.  A
node is a contiguous range of matrix rows; its variable dimensions and
the leaves' value sets come from one per-dimension presence mask, and a
split is a stable partition of its range on the chosen column.  All of
it is bit-identical to the recursive per-seed formulation: leaves keep
its depth-first order and the entropy terms keep its float summation
order.

The regions stay columns too: a :class:`LeafTable` holds every region's
row range, depth, internal flag, presence masks and density, and builds
a region's :class:`SpaceTreeLeaf` only when it is read.  At the budgets
a reproduction runs, most regions are never drawn from.  One build can
also grow several trees at once: one root per section of the seeds
(:func:`space_forest`), or one tree per leaf cap (:meth:`SpaceTree.grown`,
how DET's and 6Graph's entropy trees share a build).
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from ..addr import ADDRESS_NYBBLES
from ..addr.address import MAX_ADDRESS
from ..addr.seeds import SeedList, seed_bytes, seed_matrix
from ..addr.vector import np

__all__ = [
    "LeafTable",
    "SpaceTreeLeaf",
    "SpaceTree",
    "column_entropies",
    "expanded_values",
    "leaf_candidates",
    "leaves_for_groups",
    "seed_bytes",
    "seed_matrix",
    "space_forest",
]

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
    construction, unless given: a :class:`LeafTable` passes the ones its
    columns already hold.
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
    density: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._value_sets is None:
            (masks,) = _presence_masks(seed_matrix(self.seeds), [0]).tolist()
            self._value_sets = _value_sets(self.effective_dims, masks)
        if self.density is None:
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


#: Whether the builtin ``sum`` adds floats with Neumaier compensation
#: (CPython 3.12 and later) rather than one plain addition at a time.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) != 0.0


def _row_sums(terms):
    """Each row's ``sum(row)`` of a float64 matrix, bit for bit.

    Columns are added left to right, as the builtin ``sum`` adds a list,
    with its compensation where the interpreter's ``sum`` compensates.
    A zero term leaves both the total and the compensation unchanged,
    so padding a row with zeros does not move its sum.  Never a pairwise
    ``np.sum``: its partial sums round differently.
    """
    total = np.zeros(len(terms))
    if not _COMPENSATED_SUM:
        for column in terms.T:
            total += column
        return total
    compensation = np.zeros(len(terms))
    for column in terms.T:
        added = total + column
        compensation += np.where(
            np.abs(total) >= np.abs(column),
            (total - added) + column,
            (column - added) + total,
        )
        total = added
    return total + compensation


def _densities(masks, sizes):
    """Each region's :attr:`SpaceTreeLeaf.density` from its presence masks.

    ``size / (1.0 + space_log)``, where ``space_log`` adds the pattern
    space term of every effective dim in ascending dim order.  A
    degenerate region expands dims 31 and 30 instead; its two terms
    commute.
    """
    effective = (masks & (masks - 1)) != 0
    effective[~effective.any(axis=1), ADDRESS_NYBBLES - 2 :] = True
    terms = np.zeros(masks.shape)
    terms[effective] = np.array(_SPACE_LOG)[_expanded_sizes(masks[effective])]
    return sizes / (1.0 + _row_sums(terms))


def _expanded_sizes(masks):
    """``len(_mask_values(mask))`` of each non-empty presence mask.

    :func:`expanded_values` keeps every value from the lowest observed
    to the highest, then adds ``hi + 1``, ``hi + 2`` and ``lo - 1``
    where they are nybbles, so the size needs only the two end bits.
    """
    masks = masks.astype(np.int64)
    lo = np.frexp(masks & -masks)[1] - 1
    hi = np.frexp(masks)[1] - 1
    return hi - lo + 1 + (hi <= 14) + (hi <= 13) + (lo >= 1)


class LeafTable(Sequence[SpaceTreeLeaf]):
    """Regions as columns, read as a sequence of :class:`SpaceTreeLeaf`.

    Region ``i`` covers ``seeds[starts[i] : starts[i] + sizes[i]]``.  A
    leaf's range holds its seeds in ascending order; an internal
    region's range holds them in the order the splits below it left
    them, and its leaf sorts them.  ``depths`` and ``internal`` are the
    leaves' fields, ``masks`` the ``(regions, 32)`` uint16 presence
    masks their value sets come from, and ``density`` (a list of
    floats, which every pool over the table shares) their ranking
    signal: callers rank and group regions from the columns alone.

    Indexing builds a region's leaf the first time it is read and keeps
    it; slices give lists of leaves, and so does appending a table to a
    list.  A table is shared through the model cache, so treat it and
    its leaves as frozen.
    """

    __slots__ = (
        "seeds",
        "starts",
        "sizes",
        "depths",
        "internal",
        "masks",
        "density",
        "_built",
        "_parts",
    )

    def __init__(self, seeds, starts, sizes, depths, internal, masks, density) -> None:
        self.seeds: list[int] = seeds
        self.starts = starts
        self.sizes = sizes
        self.depths = depths
        self.internal = internal
        self.masks = masks
        self.density = density
        #: Leaves built so far, by row (``None`` until the first read).
        self._built: list[SpaceTreeLeaf | None] | None = None
        #: What building a leaf reads (see ``_leaf_parts``).
        self._parts: tuple | None = None

    def __reduce__(self):
        # Pickle the columns only; leaves are rebuilt on demand.
        return (
            LeafTable,
            (
                self.seeds,
                self.starts,
                self.sizes,
                self.depths,
                self.internal,
                self.masks,
                self.density,
            ),
        )

    # -- the sequence of leaves ---------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        built = self._built
        if built is None:
            built = self._built = [None] * len(self)
        leaf = built[index]
        if leaf is None:
            row = range(len(built))[index]
            leaf = built[row] = self._leaf(row)
        return leaf

    def __iter__(self) -> Iterator[SpaceTreeLeaf]:
        return map(self.__getitem__, range(len(self)))

    def __radd__(self, other):
        return other + list(self)

    def _leaf_parts(self) -> tuple:
        """Every region's variable dims and their masks, flattened row by
        row with each row's bounds, then the scalar columns.  They are
        compact arrays, which the cyclic GC never scans, whose items read
        as Python numbers."""
        if self._parts is None:
            varies = (self.masks & (self.masks - 1)) != 0
            rows, dims = np.nonzero(varies)
            bounds = np.searchsorted(rows, np.arange(len(self) + 1))
            self._parts = (
                array("B", dims.astype(np.uint8).tobytes()),
                array("H", self.masks[rows, dims].tobytes()),
                array("q", bounds.astype(np.int64).tobytes()),
                array("q", self.starts.astype(np.int64).tobytes()),
                array("q", self.sizes.astype(np.int64).tobytes()),
                array("B", self.depths.astype(np.uint8).tobytes()),
                array("B", self.internal.astype(np.uint8).tobytes()),
            )
        return self._parts

    def _leaf(self, row: int) -> SpaceTreeLeaf:
        dims, masks, bounds, starts, sizes, depths, internal = self._leaf_parts()
        lo, hi = bounds[row], bounds[row + 1]
        variable = dims[lo:hi].tolist()
        if variable:
            value_sets = dict(zip(variable, map(list, map(_mask_values, masks[lo:hi]))))
        else:
            value_sets = {
                dim: list(_mask_values(self.masks.item(row, dim)))
                for dim in _DEFAULT_EXPANSION_DIMS
            }
        start = starts[row]
        seeds = self.seeds[start : start + sizes[row]]
        if internal[row]:
            seeds.sort()
        # Positional, in field order: a warm model store builds most of
        # its leaves here, one call each.
        return SpaceTreeLeaf(
            seeds,
            variable,
            depths[row],
            row,
            internal[row] == 1,
            value_sets,
            self.density[row],
        )

    # -- columns ------------------------------------------------------------

    def region_seeds(self, row: int) -> list[int]:
        """Region ``row``'s seeds (its leaf's ``seeds``), without the leaf."""
        start = int(self.starts[row])
        seeds = self.seeds[start : start + int(self.sizes[row])]
        if self.internal[row]:
            seeds.sort()
        return seeds

    def first_seeds(self) -> list[int]:
        """Every region's first seed (its leaf's ``seeds[0]``)."""
        seeds = self.seeds
        return [
            min(seeds[start : start + size]) if internal else seeds[start]
            for start, size, internal in zip(
                self.starts.tolist(), self.sizes.tolist(), self.internal.tolist()
            )
        ]

    def variable_dims(self, row: int) -> list[int]:
        """Region ``row``'s variable dims (its leaf's ``variable_dims``)."""
        dims, _, bounds, *_ = self._leaf_parts()
        return dims[bounds[row] : bounds[row + 1]].tolist()

    def variable_counts(self):
        """How many dims vary in each region."""
        return count_variable_dims(self.masks)

    def take(self, rows) -> LeafTable:
        """The regions at ``rows`` (indices or a slice), in that order and
        renumbered from 0, sharing this table's seed list."""
        rows = np.arange(len(self))[rows]
        return LeafTable(
            self.seeds,
            self.starts[rows],
            self.sizes[rows],
            self.depths[rows],
            self.internal[rows],
            self.masks[rows],
            list(map(self.density.__getitem__, rows.tolist())),
        )

    @staticmethod
    def concat(tables: Sequence[LeafTable]) -> LeafTable:
        """The regions of every table, one table after another."""
        offsets = itertools.accumulate((len(table.seeds) for table in tables), initial=0)
        starts = [table.starts + offset for table, offset in zip(tables, offsets)]
        return LeafTable(
            list(itertools.chain.from_iterable(table.seeds for table in tables)),
            np.concatenate(starts),
            *(
                np.concatenate([getattr(table, column) for table in tables])
                for column in ("sizes", "depths", "internal", "masks")
            ),
            list(itertools.chain.from_iterable(table.density for table in tables)),
        )


def group_masks(groups: Sequence[list[int]]):
    """Each non-empty seed group's presence masks, as a ``(groups, 32)``
    uint16 array taken in one pass over one matrix of all their seeds."""
    if not groups:
        return np.zeros((0, ADDRESS_NYBBLES), dtype=np.uint16)
    sizes = np.array([len(group) for group in groups], dtype=np.intp)
    return _presence_masks(
        seed_matrix(itertools.chain.from_iterable(groups)), np.cumsum(sizes) - sizes
    )


def count_variable_dims(masks):
    """How many dims vary in each row of presence ``masks``."""
    return ((masks & (masks - 1)) != 0).sum(axis=1)


def leaves_for_groups(groups: Sequence[list[int]]) -> LeafTable:
    """One region per non-empty seed group, varying where its seeds differ.

    Region ``i``'s leaf equals ``SpaceTreeLeaf(seeds=groups[i],
    variable_dims=differing_positions(groups[i]))``; the masks are
    :func:`group_masks`.
    """
    sizes = np.array([len(group) for group in groups], dtype=np.intp)
    masks = group_masks(groups)
    return LeafTable(
        list(itertools.chain.from_iterable(groups)),
        np.cumsum(sizes) - sizes,
        sizes,
        np.zeros(len(sizes), dtype=np.uint8),
        np.zeros(len(sizes), dtype=bool),
        masks,
        _densities(masks, sizes).tolist(),
    )


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


# -- trees ---------------------------------------------------------------------


def _concat_ranges(starts, counts, steps=None):
    """Concatenated ``arange(start, start + count * step, step)`` of every
    range (``step`` 1 when ``steps`` is omitted)."""
    offsets = np.cumsum(counts) - counts
    index = np.arange(int(counts.sum()), dtype=np.intp) - np.repeat(offsets, counts)
    if steps is not None:
        index *= np.repeat(steps, counts)
    return np.repeat(starts, counts) + index


# Entropy estimation on huge nodes samples a deterministic stride of
# seeds: the split choice is a ranking, and a few thousand samples rank
# 16-bin histograms reliably.
_ENTROPY_SAMPLE = 2048


def _choose_dims(strategy, matrix, active, offsets, sizes, varies):
    """The split dimension of each node (ranges of ``active``)."""
    if strategy == "leftmost":
        return varies.argmax(axis=1)
    # Entropy strategy: lowest-entropy variable dimension first, scored
    # on every row, or on every ``n // 2048``-th row of a node above
    # 2,048 seeds.
    strides = np.maximum(sizes // _ENTROPY_SAMPLE, 1)
    samples = (sizes + strides - 1) // strides
    picked = active[_concat_ranges(offsets, samples, strides)]
    entropies = column_entropies(matrix[picked], samples, varies)
    # The first dim reaching the lowest positive entropy, like a strict
    # ``0 < entropy < best`` scan in ascending dim order.
    scores = np.where(varies & (entropies > 0.0), entropies, np.inf)
    return np.where(
        np.isinf(scores.min(axis=1)), varies.argmax(axis=1), scores.argmin(axis=1)
    )


def _grow(
    seeds: SeedList,
    sizes: Sequence[int],
    strategy: str,
    leaf_caps: Sequence[int],
    max_depth: int,
    internal_regions: bool,
    max_internal_seeds: int,
    max_internal_dims: int,
) -> list[list[LeafTable]]:
    """Every section's tree at every leaf cap, grown in one build.

    Section ``i`` is the next ``sizes[i]`` rows of ``seeds``' matrix, one
    root range each; returns one list of section tables per cap.
    ``rows`` is the current arrangement of matrix rows: every open node
    is a contiguous range of it, and stable partitions keep each range
    in ascending seed order.  Each level records its nodes with the
    start of their range; sorting a cap's regions on (start, depth)
    yields each tree's depth-first leaf order (a node before its
    children, children by ascending nybble), tree after tree.  Ranges
    are read in the final arrangement.

    The split rule is node-local, and a node final at one cap is final
    at every larger cap, so the tree at a larger cap is the tree at the
    smallest cut at the first node of each path that is final at the
    larger one.  The build splits every node the smallest cap splits;
    ``above[c, k]`` says that no ancestor of node ``k`` is final at cap
    ``c``, so that cap's tree reaches the node.  A node final at a cap
    but split at a smaller one keeps, in that cap's table, the rows as
    they stood when it was cut (ascending, like every open node's).
    """
    if strategy not in ("leftmost", "entropy"):
        raise ValueError(f"unknown split strategy: {strategy!r}")
    if not len(sizes):
        return [[] for _ in leaf_caps]
    caps = np.array(leaf_caps, dtype=np.intp)[:, np.newaxis]
    matrix = seeds.matrix
    rows = np.arange(len(seeds), dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = roots = np.cumsum(sizes) - sizes
    above = np.ones((len(leaf_caps), len(sizes)), dtype=bool)
    levels = []
    # Per cap, (positions, rows there) of the nodes it cut and a smaller
    # cap went on to split.
    cut_rows: list[list[tuple]] = [[] for _ in leaf_caps]
    for depth in itertools.count():
        positions = _concat_ranges(starts, sizes)
        active = rows[positions]
        offsets = np.cumsum(sizes) - sizes
        masks = _presence_masks(matrix[active], offsets)
        varies = (masks & (masks - 1)) != 0
        variable_counts = varies.sum(axis=1)
        final = (
            (sizes <= caps)
            | (variable_counts <= 2)  # already a compact pattern
            | (depth >= max_depth)
        )
        # Internal regions are generalisation regions for split nodes:
        # they let the pool expand back up the hierarchy (e.g. into
        # sibling subnets) after the dense leaves below are exhausted.
        generalises = (
            (sizes <= max_internal_seeds)
            & (variable_counts <= max_internal_dims)
            & internal_regions
        )
        levels.append(
            (
                starts,
                sizes,
                np.full(sizes.size, depth, dtype=np.uint8),
                masks,
                (above & (final | generalises)).T,
                (~final & generalises).T,
            )
        )
        # Final at the smallest cap is final at every cap.
        splits = ~final.all(axis=0)
        split = np.flatnonzero(splits)
        if not split.size:
            break
        for saved, cut in zip(cut_rows, above & final & splits):
            if cut.any():
                kept = _concat_ranges(starts[cut], sizes[cut])
                saved.append((kept, rows[kept]))
        dims = _choose_dims(
            strategy, matrix, active, offsets[split], sizes[split], varies[split]
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
        above = (above & ~final)[:, split][:, keys[child_starts] >> 4]
        starts = split_positions[child_starts]
        sizes = child_sizes
    region_starts, region_sizes, depths, masks, emitted, internal = (
        np.concatenate(column) for column in zip(*levels)
    )
    forests = []
    for cap, saved in enumerate(cut_rows):
        regions = np.flatnonzero(emitted[:, cap])
        regions = regions[np.lexsort((depths[regions], region_starts[regions]))]
        arranged = rows.copy()
        for kept, cut in saved:
            arranged[kept] = cut
        cap_starts = region_starts[regions]
        cap_sizes = region_sizes[regions]
        cap_masks = masks[regions]
        table = LeafTable(
            [seeds[row] for row in arranged.tolist()],
            cap_starts,
            cap_sizes,
            depths[regions],
            internal[regions, cap],
            cap_masks,
            _densities(cap_masks, cap_sizes).tolist(),
        )
        # A section's regions start inside its root range, so they are
        # the rows from its root's start up to the next root's.
        bounds = np.append(np.searchsorted(cap_starts, roots), len(table))
        forests.append(
            [table.take(slice(lo, hi)) for lo, hi in itertools.pairwise(bounds.tolist())]
        )
    return forests


def space_forest(
    seeds: Sequence[int],
    sizes: Sequence[int],
    strategy: str = "leftmost",
    max_leaf_seeds: int = 12,
    max_depth: int = ADDRESS_NYBBLES,
    internal_regions: bool = True,
    max_internal_seeds: int = 384,
    max_internal_dims: int = 8,
) -> list[LeafTable]:
    """Every section's space tree, grown in one build.

    Section ``i`` is the next ``sizes[i]`` seeds of ``seeds``, and each
    section is a sorted, duplicate-free, non-empty run.  Section ``i``'s
    table equals ``SpaceTree(section_i, ...).leaves`` with the same
    parameters: splits are node-local, so one level-synchronous pass
    over all roots grows each tree as its own build would, at one set of
    array operations per level instead of one per tree and level.  All
    sections share one nybble matrix (``SeedList.matrix``: a
    :class:`~repro.addr.SeedList` lends its own).
    """
    (tables,) = _grow(
        SeedList.of(seeds),
        sizes,
        strategy,
        (max_leaf_seeds,),
        max_depth,
        internal_regions,
        max_internal_seeds,
        max_internal_dims,
    )
    return tables


class SpaceTree:
    """A space tree over a seed set with pluggable split strategy.

    ``leaves`` is the tree's :class:`LeafTable`, in depth-first order.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        strategy: str = "leftmost",
        max_leaf_seeds: int = 12,
        max_depth: int = ADDRESS_NYBBLES,
        internal_regions: bool = True,
        max_internal_seeds: int = 384,
        max_internal_dims: int = 8,
    ) -> None:
        (tree,) = SpaceTree.grown(
            seeds,
            strategy,
            (max_leaf_seeds,),
            max_depth,
            internal_regions,
            max_internal_seeds,
            max_internal_dims,
        )
        vars(self).update(vars(tree))

    @classmethod
    def grown(
        cls,
        seeds: Sequence[int],
        strategy: str,
        leaf_caps: Sequence[int],
        max_depth: int = ADDRESS_NYBBLES,
        internal_regions: bool = True,
        max_internal_seeds: int = 384,
        max_internal_dims: int = 8,
    ) -> list[SpaceTree]:
        """``[SpaceTree(seeds, strategy, cap, ...) for cap in leaf_caps]``,
        grown in one build (see ``_grow``)."""
        ordered = SeedList.of(seeds).sorted_unique()
        if not ordered:
            raise ValueError("cannot build a space tree from no seeds")
        forests = _grow(
            ordered,
            (len(ordered),),
            strategy,
            leaf_caps,
            max_depth,
            internal_regions,
            max_internal_seeds,
            max_internal_dims,
        )
        trees = []
        for cap, (leaves,) in zip(leaf_caps, forests):
            tree = cls.__new__(cls)
            tree.strategy = strategy
            tree.max_leaf_seeds = cap
            tree.max_depth = max_depth
            tree.internal_regions = internal_regions
            tree.max_internal_seeds = max_internal_seeds
            tree.max_internal_dims = max_internal_dims
            tree.leaves = leaves
            trees.append(tree)
        return trees

    def __len__(self) -> int:
        return len(self.leaves)

    def leaves_by_density(self) -> list[SpaceTreeLeaf]:
        """Leaves ranked densest first (ties broken by tree order)."""
        order = np.argsort(-np.array(self.leaves.density), kind="stable")
        return [self.leaves[row] for row in order.tolist()]
