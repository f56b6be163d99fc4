"""Entropy/IP (Foremski, Plonka & Berger, IMC 2016).

The first automated TGA: segment the 32 nybble positions by entropy,
learn the frequent values of each segment, and generate addresses by
sampling a Bayesian chain over segment values.

Entropy/IP's character in the paper — orders of magnitude fewer hits
than every other generator, and a tendency to fall into whatever single
lucky (sometimes aliased) prefix its samples concentrate on — is a
direct consequence of its design: segments are sampled with only
adjacent-segment conditioning, so the joint combinations it emits rarely
correspond to real co-occurring structure.  We reproduce the design
faithfully rather than improving it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

from ..addr import ADDRESS_NYBBLES, SeedList
from ..addr.rand import DeterministicStream
from ..addr.vector import np
from .base import TargetGenerator, register_tga
from .modelcache import get_model_cache
from .spacetree import column_entropies

__all__ = ["EntropyIP"]

_ENTROPY_STEP = 0.30  # segment boundary when entropy jumps by this much
_TOP_VALUES = 24       # values kept per segment
_MAX_ATTEMPT_FACTOR = 24
#: Attempts sampled per array pass at most: a pass holds one uint64 draw
#: per attempt and segment, so this bounds its memory for huge rounds.
_PASS_ATTEMPTS = 1 << 14
_MASK64 = (1 << 64) - 1


def _entropy_profile(seeds: Sequence[int]) -> list[float]:
    """Per-nybble entropies of the seed set (all 32 dimensions).

    Each is bit-identical to counting the nybble column in a ``Counter``
    and summing ``-p * log2(p)`` in its insertion (first-seen) order.
    """
    matrix = SeedList.of(seeds).matrix
    wanted = np.ones((1, ADDRESS_NYBBLES), dtype=bool)
    return column_entropies(matrix, [len(seeds)], wanted)[0].tolist()


def _word(columns):
    """Each row of up to 16 nybble columns as one uint64."""
    word = np.zeros(len(columns), dtype=np.uint64)
    for column in columns.T:
        word <<= 4
        word |= column
    return word


def _segment_values(matrix, start: int, length: int):
    """One segment's distinct values and how the seeds take them.

    Returns the values (ints), each value's first row and count, and
    each row's value index.  A value of up to 16 nybbles is one uint64
    word; a wider one is ranked on its last 16 nybbles and on the ones
    before them, so a segment may span all 32 nybbles.
    """
    end = start + length
    split = max(start, end - 16)
    keys = low = _word(matrix[:, split:end])
    if split > start:
        high, high_ids = np.unique(_word(matrix[:, start:split]), return_inverse=True)
        low, low_ids = np.unique(low, return_inverse=True)
        keys = high_ids * len(low) + low_ids
    distinct, firsts, ids, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    if split > start:
        high_index, low_index = np.divmod(distinct, len(low))
        values = [
            (word << 64) | rest
            for word, rest in zip(high[high_index].tolist(), low[low_index].tolist())
        ]
    else:
        values = distinct.tolist()
    return values, firsts, ids, counts


def _segment_counts(matrix, segments):
    """Each segment's marginal and adjacent-segment transition tables.

    Equal to counting the segment values, and the (previous, current)
    value pairs, in ``Counter``s over the seeds in order and keeping
    ``most_common(_TOP_VALUES)`` of each.  One ``np.unique`` per segment
    and per pair of adjacent segments gives each distinct value its
    first row and count; sorting on count (most first), then first row,
    is ``most_common``'s stable order.  A transition table holds the
    pairs of one previous value, and the tables are keyed by previous
    value in first-seen order, as the ``Counter`` walk inserts them.
    """
    marginals: list[list[tuple[int, int]]] = []
    transitions_chain: list[dict[int, list[tuple[int, int]]]] = [{}]
    previous = None
    for start, length in segments:
        values, firsts, ids, counts = _segment_values(matrix, start, length)
        top = np.lexsort((firsts, -counts))[:_TOP_VALUES]
        marginals.append(
            list(zip(map(values.__getitem__, top.tolist()), counts[top].tolist()))
        )
        if previous is not None:
            previous_ids, previous_firsts, previous_values = previous
            pairs, pair_firsts, pair_counts = np.unique(
                previous_ids * len(values) + ids, return_index=True, return_counts=True
            )
            before, after = np.divmod(pairs, len(values))
            order = np.lexsort((pair_firsts, -pair_counts, previous_firsts[before]))
            before, after, pair_counts = before[order], after[order], pair_counts[order]
            heads = np.flatnonzero(np.concatenate(([True], before[1:] != before[:-1])))
            rank = np.arange(before.size) - np.repeat(
                heads, np.diff(np.append(heads, before.size))
            )
            kept = rank < _TOP_VALUES
            options = list(
                zip(
                    map(values.__getitem__, after[kept].tolist()),
                    pair_counts[kept].tolist(),
                )
            )
            # Each previous value's options are one run of ``options``.
            bounds = np.append(np.cumsum(kept)[heads] - 1, len(options))
            transitions_chain.append(
                {
                    previous_values[prev]: options[lo:hi]
                    for prev, lo, hi in zip(
                        before[heads].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
                    )
                }
            )
        previous = ids, firsts, values
    return marginals, transitions_chain


def segment_boundaries(entropies: list[float], step: float = _ENTROPY_STEP) -> list[int]:
    """Segment start indices from the per-nybble entropy profile."""
    boundaries = [0]
    for dim in range(1, len(entropies)):
        if abs(entropies[dim] - entropies[dim - 1]) > step:
            boundaries.append(dim)
    return boundaries


class _SegmentTables(NamedTuple):
    """One segment's option tables, flattened for array sampling.

    Table 0 is the segment's marginal, table ``k`` its ``k``-th
    transition table (dict order); their options are concatenated.  A
    draw ``d`` picks, in table ``t``, the first option whose ``bounds``
    entry exceeds ``bases[t] + d % totals[t]``: ``bounds`` are the
    cumulative counts of the concatenation, so each table's own bounds
    lie in ``(bases[t], bases[t] + totals[t]]``.
    """

    bounds: np.ndarray  # uint64 per option
    bases: np.ndarray  # uint64 per table
    totals: np.ndarray  # uint64 per table
    hi: np.ndarray  # uint64 per option: high 64 bits of the value in place
    lo: np.ndarray  # uint64 per option: low 64 bits of the value in place
    next_table: np.ndarray  # intp per option: the next segment's table


def _sampler_tables(segments, marginals, transitions) -> list[_SegmentTables]:
    """Flatten the frozen chain into per-segment :class:`_SegmentTables`.

    An option's next table is the next segment's transition table keyed
    by its value, else that segment's marginal (table 0) — the choice the
    chain walk makes for the next segment.
    """
    tables: list[_SegmentTables] = []
    for index, (start, length) in enumerate(segments):
        options = [marginals[index], *transitions[index].values()]
        values, counts = zip(*itertools.chain.from_iterable(options))
        cumulative = np.cumsum((0, *counts), dtype=np.uint64)
        offsets = np.cumsum([0] + [len(table) for table in options])
        bases = cumulative[offsets[:-1]]
        shift = 4 * (ADDRESS_NYBBLES - start - length)
        shifted = [value << shift for value in values]
        following = transitions[index + 1] if index + 1 < len(segments) else {}
        next_ids = {value: table for table, value in enumerate(following, start=1)}
        tables.append(
            _SegmentTables(
                bounds=cumulative[1:],
                bases=bases,
                totals=cumulative[offsets[1:]] - bases,
                hi=np.array([value >> 64 for value in shifted], dtype=np.uint64),
                lo=np.array([value & _MASK64 for value in shifted], dtype=np.uint64),
                next_table=np.array(
                    [next_ids.get(value, 0) for value in values], dtype=np.intp
                ),
            )
        )
    return tables


@register_tga
class EntropyIP(TargetGenerator):
    """Entropy/IP: entropy segmentation + Bayesian-chain sampling."""

    name = "eip"
    online = False

    def __init__(self, salt: int = 0) -> None:
        super().__init__(salt=salt)
        self._segments: list[tuple[int, int]] = []  # (start_dim, length)
        self._tables: list[_SegmentTables] = []
        self._seeds: set[int] = set()
        self._stream: DeterministicStream | None = None

    # -- model -----------------------------------------------------------

    def _frozen_model(self, seeds: SeedList) -> tuple:
        """Frozen model: segments, marginals and transition tables.

        Pure function of the seed list (order-sensitive — transitions
        pair adjacent segment values per seed), cached process-wide.
        The sampling stream and emitted-set are per-run state.
        """

        def build() -> tuple:
            entropies = _entropy_profile(seeds)
            starts = segment_boundaries(entropies)
            segments: list[tuple[int, int]] = []
            for i, start in enumerate(starts):
                end = starts[i + 1] if i + 1 < len(starts) else ADDRESS_NYBBLES
                segments.append((start, end - start))

            marginals, transitions_chain = _segment_counts(seeds.matrix, segments)
            return tuple(segments), tuple(marginals), tuple(transitions_chain)

        return get_model_cache().get_or_build(
            "eip.model",
            seeds.fingerprint,
            (_ENTROPY_STEP, _TOP_VALUES),
            build,
            cost=len(seeds),
        )

    def _ingest(self, seeds: SeedList) -> None:
        self._seeds = set(seeds)
        segments, marginals, transitions = self._frozen_model(seeds)
        self._segments = list(segments)
        self._tables = _sampler_tables(segments, marginals, transitions)
        self._stream = DeterministicStream(0xE1B, self.salt)
        self._emitted: set[int] = set()

    # -- generation --------------------------------------------------------

    def _sample_round(self, attempts: int):
        """Walk the chain for ``attempts`` addresses at once.

        Attempt ``a`` takes draw ``a * segments + i`` at segment ``i``,
        the draw the per-address walk takes there.  Returns the hi and
        lo uint64 halves of the sampled addresses.
        """
        assert self._stream is not None
        draws = self._stream.take(attempts * len(self._tables))
        draws = draws.reshape(attempts, len(self._tables))
        table = np.zeros(attempts, dtype=np.intp)
        hi = np.zeros(attempts, dtype=np.uint64)
        lo = np.zeros(attempts, dtype=np.uint64)
        for column, segment in zip(draws.T, self._tables):
            offset = segment.bases[table] + column % segment.totals[table]
            option = np.searchsorted(segment.bounds, offset, side="right")
            hi |= segment.hi[option]
            lo |= segment.lo[option]
            table = segment.next_table[option]
        return hi, lo

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        result: list[int] = []
        attempts = 0
        max_attempts = count * _MAX_ATTEMPT_FACTOR
        seeds = self._seeds
        emitted = self._emitted
        while len(result) < count and attempts < max_attempts:
            # Each attempt yields at most one address, so every attempt
            # of the batch is one the one-at-a-time loop would make.
            batch = min(count - len(result), max_attempts - attempts, _PASS_ATTEMPTS)
            attempts += batch
            hi, lo = self._sample_round(batch)
            for high, low in zip(hi.tolist(), lo.tolist()):
                address = (high << 64) | low
                if address in seeds or address in emitted:
                    continue
                emitted.add(address)
                result.append(address)
        return result

    @property
    def segments(self) -> list[tuple[int, int]]:
        """The learned (start, length) entropy segments."""
        return list(self._segments)
