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

from collections import Counter

from ..addr import ADDRESS_NYBBLES
from ..addr.rand import DeterministicStream
from ..addr.vector import np
from .base import TargetGenerator, register_tga
from .modelcache import get_model_cache, seed_fingerprint
from .spacetree import column_entropies, seed_matrix

__all__ = ["EntropyIP"]

_ENTROPY_STEP = 0.30  # segment boundary when entropy jumps by this much
_TOP_VALUES = 24       # values kept per segment
_MAX_ATTEMPT_FACTOR = 24


def _entropy_profile(seeds: list[int]) -> list[float]:
    """Per-nybble entropies of the seed set (all 32 dimensions).

    Each is bit-identical to counting the nybble column in a ``Counter``
    and summing ``-p * log2(p)`` in its insertion (first-seen) order.
    """
    matrix = seed_matrix(seeds)
    wanted = np.ones((1, ADDRESS_NYBBLES), dtype=bool)
    return column_entropies(matrix, [len(seeds)], wanted)[0].tolist()


def segment_boundaries(entropies: list[float], step: float = _ENTROPY_STEP) -> list[int]:
    """Segment start indices from the per-nybble entropy profile."""
    boundaries = [0]
    for dim in range(1, len(entropies)):
        if abs(entropies[dim] - entropies[dim - 1]) > step:
            boundaries.append(dim)
    return boundaries


@register_tga
class EntropyIP(TargetGenerator):
    """Entropy/IP: entropy segmentation + Bayesian-chain sampling."""

    name = "eip"
    online = False

    def __init__(self, salt: int = 0) -> None:
        super().__init__(salt=salt)
        self._segments: list[tuple[int, int]] = []  # (start_dim, length)
        self._marginals: list[list[tuple[int, int]]] = []  # per segment: (value, count)
        self._transitions: list[dict[int, list[tuple[int, int]]]] = []
        self._seeds: set[int] = set()
        self._stream: DeterministicStream | None = None

    # -- model -----------------------------------------------------------

    def _frozen_model(self, seeds: list[int]) -> tuple:
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

            # Per-segment marginals and adjacent-segment transition
            # counts.  A segment value is one shift-and-mask per seed;
            # ``Counter`` keeps first-seen order, so ``most_common``
            # breaks count ties by first occurrence.
            marginals: list[list[tuple[int, int]]] = []
            transitions_chain: list[dict[int, list[tuple[int, int]]]] = []
            previous_values: list[int] | None = None
            for start, length in segments:
                shift = 4 * (ADDRESS_NYBBLES - start - length)
                mask = (1 << (4 * length)) - 1
                values = [(seed >> shift) & mask for seed in seeds]
                marginals.append(Counter(values).most_common(_TOP_VALUES))
                transitions: dict[int, list[tuple[int, int]]] = {}
                if previous_values is not None:
                    following: dict[int, dict[int, int]] = {}
                    for (prev, cur), count in Counter(
                        zip(previous_values, values)
                    ).items():
                        following.setdefault(prev, {})[cur] = count
                    transitions = {
                        prev: Counter(counts).most_common(_TOP_VALUES)
                        for prev, counts in following.items()
                    }
                transitions_chain.append(transitions)
                previous_values = values
            return tuple(segments), tuple(marginals), tuple(transitions_chain)

        return get_model_cache().get_or_build(
            "eip.model",
            seed_fingerprint(seeds),
            (_ENTROPY_STEP, _TOP_VALUES),
            build,
            cost=len(seeds),
        )

    def _ingest(self, seeds: list[int]) -> None:
        self._seeds = set(seeds)
        segments, marginals, transitions = self._frozen_model(seeds)
        self._segments = list(segments)
        self._marginals = list(marginals)
        self._transitions = list(transitions)
        self._stream = DeterministicStream(0xE1B, self.salt)
        self._emitted: set[int] = set()

    # -- generation --------------------------------------------------------

    def _sample_from(self, weighted: list[tuple[int, int]]) -> int:
        assert self._stream is not None
        total = sum(count for _, count in weighted)
        draw = self._stream.next_below(total)
        cumulative = 0
        for value, count in weighted:
            cumulative += count
            if draw < cumulative:
                return value
        return weighted[-1][0]

    def _sample_address(self) -> int:
        address = 0
        previous = None
        for index, (start, length) in enumerate(self._segments):
            options = None
            if previous is not None:
                options = self._transitions[index].get(previous)
            if not options:
                options = self._marginals[index]
            value = self._sample_from(options)
            address = (address << (4 * length)) | value
            previous = value
        return address

    def propose(self, count: int) -> list[int]:
        self._require_prepared()
        result: list[int] = []
        attempts = 0
        max_attempts = count * _MAX_ATTEMPT_FACTOR
        while len(result) < count and attempts < max_attempts:
            attempts += 1
            address = self._sample_address()
            if address in self._seeds or address in self._emitted:
                continue
            self._emitted.add(address)
            result.append(address)
        return result

    @property
    def segments(self) -> list[tuple[int, int]]:
        """The learned (start, length) entropy segments."""
        return list(self._segments)
