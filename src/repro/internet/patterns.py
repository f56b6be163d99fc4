"""Interface-identifier (IID) assignment patterns.

Real IPv6 deployments assign the low 64 bits of addresses in a handful of
recognisable styles, and it is exactly these styles that Target Generation
Algorithms mine.  The simulator reproduces the four families the TGA
literature identifies:

``LOW``
    Sequential small integers (``::1``, ``::2``, ...) — routers, manually
    numbered servers.  Trivially minable.
``WORDY``
    A small vocabulary of structured hex words (``::443``, ``::cafe``,
    ``::dead:beef``) — service-themed manual assignment.  Minable once the
    vocabulary is seen.
``EUI64``
    SLAAC-derived ``xxxx:xxff:fexx:xxxx`` identifiers built from a small
    set of common OUIs.  Partially minable (fixed ``ff:fe`` + OUI).
``RANDOM``
    RFC 4941 privacy addresses: uniformly random 64-bit IIDs.  Effectively
    unminable; only the exact seeds themselves can be (re)found.

Each region materialises a *finite* active-IID set of a configured size,
generated deterministically in the family's shape.  Keeping the set finite
(and small) lets the scanner answer membership queries in O(1) without
ever enumerating the 2**64 IID space.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from ..addr.rand import hash64, hash64_batch
from ..addr.vector import np

__all__ = ["PatternKind", "generate_iids", "IID_VOCABULARY", "COMMON_OUIS"]


class PatternKind(str, Enum):
    """IID assignment style of a region."""

    LOW = "low"
    WORDY = "wordy"
    EUI64 = "eui64"
    RANDOM = "random"


# Structured hex words observed in manually assigned IIDs.  Drawn from the
# vocabularies reported by Entropy/IP and follow-on measurement studies.
IID_VOCABULARY: tuple[int, ...] = (
    0x1, 0x2, 0x3, 0x5, 0x10, 0x11, 0x25, 0x53, 0x80, 0x100, 0x123,
    0x443, 0x8080, 0x1111, 0x2222, 0xAAAA, 0xB00C, 0xBABE, 0xBEEF,
    0xC0DE, 0xCAFE, 0xD00D, 0xDEAD, 0xF00D, 0xFACE, 0xFEED,
    0xDEAD_BEEF, 0xCAFE_BABE, 0x1337, 0xABCD, 0x1234, 0x4242,
)

# A small set of common OUIs (high 24 bits of MAC addresses) so that
# EUI-64 IIDs share learnable structure across regions.
COMMON_OUIS: tuple[int, ...] = (
    0x001B21, 0x00E04C, 0x3C7C3F, 0x90E2BA, 0xB827EB, 0xD43D7E,
    0x001A8C, 0x74D435, 0x28C68E, 0xF4F26D, 0x000C29, 0x525400,
)

_SALT_LOW = 0x10
_SALT_WORDY = 0x11
_SALT_EUI = 0x12
_SALT_RANDOM = 0x13


@lru_cache(maxsize=8192)
def generate_iids(kind: PatternKind, count: int, region_salt: int) -> frozenset[int]:
    """The deterministic active-IID set for a region.

    ``region_salt`` individualises the set per region; ``count`` bounds its
    size (the result may be slightly smaller after deduplication for the
    structured families).

    Results are memoised: rebuilding the same world (worker processes,
    serial/parallel equality checks, repeated benchmark studies) reuses
    the already-materialised frozensets instead of regenerating them.
    The WORDY, EUI-64 and RANDOM families draw all their hashes in one
    :func:`~repro.addr.rand.hash64_batch` call.
    """
    if count <= 0:
        return frozenset()
    if kind is PatternKind.LOW:
        # Sequential from a small per-region offset: ::1..::N, occasionally
        # starting at ::0x100 etc. so trees see a little subnet variety.
        offsets = (1, 1, 1, 0x10, 0x100)
        start = offsets[hash64(region_salt, _SALT_LOW) % len(offsets)]
        return frozenset(range(start, start + count))
    if kind is PatternKind.WORDY:
        # Word ``k`` is drawn by hash ``k``, and the set takes distinct
        # words in draw order until it holds ``min(count, |vocab|)`` of
        # them or draw ``16·|vocab|`` has been made (a cap against
        # pathological salts): the words whose first draw comes earliest.
        vocab = len(IID_VOCABULARY)
        draws = hash64_batch(
            region_salt, _SALT_WORDY, np.arange(16 * vocab + 1, dtype=np.uint64)
        )
        _, first = np.unique(draws % np.uint64(vocab), return_index=True)
        first.sort()
        words = (draws[first[: min(count, vocab)]] % np.uint64(vocab)).tolist()
        # Added one at a time in draw order, then frozen, so the set
        # iterates in the order the draw-by-draw build gives it.
        return frozenset(set(map(IID_VOCABULARY.__getitem__, words)))
    if kind is PatternKind.EUI64:
        # Modified EUI-64: the OUI with its universal/local bit flipped,
        # then 0xFFFE, then a 24-bit NIC part.  NIC parts cluster in a
        # narrow band, as sequentially provisioned hardware tends to:
        # base + small deterministic jitter.
        oui = COMMON_OUIS[hash64(region_salt, _SALT_EUI) % len(COMMON_OUIS)]
        base = hash64(region_salt, _SALT_EUI, 1) & 0xFF_F000
        draws = hash64_batch(
            region_salt, _SALT_EUI, 2, np.arange(count, dtype=np.uint64)
        )
        flipped = np.uint64((oui ^ 0x020000) << 40) | np.uint64(0xFF_FE << 24)
        low24 = (np.uint64(base) + (draws & np.uint64(0xFFF))) & np.uint64(0xFF_FFFF)
        return frozenset((flipped | low24).tolist())
    if kind is PatternKind.RANDOM:
        draws = hash64_batch(
            region_salt, _SALT_RANDOM, np.arange(count, dtype=np.uint64)
        )
        return frozenset(draws.tolist())
    raise ValueError(f"unknown pattern kind: {kind!r}")
