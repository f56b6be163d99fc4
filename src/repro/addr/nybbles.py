"""Nybble (4-bit hex digit) manipulation of 128-bit IPv6 addresses.

TGAs in the literature overwhelmingly operate at nybble granularity:
Entropy/IP computes per-nybble entropy, 6Tree/DET/6Graph split their space
trees on nybble positions, and 6Gen grows nybble-wildcard ranges.  This
module provides the shared primitives.

Nybble indices run ``0..31`` from the *most significant* digit (the
leftmost hex digit of the fully exploded address) to the least, matching
the convention in the TGA papers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .address import ADDRESS_NYBBLES, MAX_ADDRESS

__all__ = [
    "get_nybble",
    "set_nybble",
    "to_nybbles",
    "from_nybbles",
    "common_prefix_len",
    "differing_positions",
    "nybble_counts",
    "nybble_matrix_from_bytes",
]


def get_nybble(value: int, index: int) -> int:
    """Return nybble ``index`` (0 = most significant) of ``value``."""
    if not 0 <= index < ADDRESS_NYBBLES:
        raise IndexError(f"nybble index out of range: {index}")
    shift = (ADDRESS_NYBBLES - 1 - index) * 4
    return (value >> shift) & 0xF


def set_nybble(value: int, index: int, nybble: int) -> int:
    """Return ``value`` with nybble ``index`` replaced by ``nybble``."""
    if not 0 <= index < ADDRESS_NYBBLES:
        raise IndexError(f"nybble index out of range: {index}")
    if not 0 <= nybble <= 0xF:
        raise ValueError(f"nybble out of range: {nybble}")
    shift = (ADDRESS_NYBBLES - 1 - index) * 4
    cleared = value & ~(0xF << shift) & MAX_ADDRESS
    return cleared | (nybble << shift)


def to_nybbles(value: int) -> list[int]:
    """Explode an address into its 32 nybbles, most significant first."""
    return [(value >> ((ADDRESS_NYBBLES - 1 - i) * 4)) & 0xF for i in range(ADDRESS_NYBBLES)]


def from_nybbles(nybbles: Sequence[int]) -> int:
    """Reassemble an address from 32 nybbles (inverse of :func:`to_nybbles`)."""
    if len(nybbles) != ADDRESS_NYBBLES:
        raise ValueError(f"expected {ADDRESS_NYBBLES} nybbles, got {len(nybbles)}")
    value = 0
    for nybble in nybbles:
        if not 0 <= nybble <= 0xF:
            raise ValueError(f"nybble out of range: {nybble}")
        value = (value << 4) | nybble
    return value


def common_prefix_len(a: int, b: int) -> int:
    """Length, in nybbles, of the shared most-significant prefix of two addresses."""
    diff = a ^ b
    if diff == 0:
        return ADDRESS_NYBBLES
    # bit_length of the diff tells us the highest differing bit.
    high_bit = diff.bit_length() - 1  # 0..127
    first_diff_nybble = (127 - high_bit) // 4
    return first_diff_nybble


def differing_positions(addresses: Iterable[int]) -> list[int]:
    """Nybble positions at which the given addresses are not all equal.

    Returns sorted positions.  An empty or single-element input has no
    differing positions.
    """
    it = iter(addresses)
    try:
        first = next(it)
    except StopIteration:
        return []
    mask = 0
    for value in it:
        mask |= first ^ value
    if mask == 0:
        return []
    positions = []
    for index in range(ADDRESS_NYBBLES):
        shift = (ADDRESS_NYBBLES - 1 - index) * 4
        if (mask >> shift) & 0xF:
            positions.append(index)
    return positions


def nybble_counts(addresses: Iterable[int], index: int) -> list[int]:
    """Histogram (length 16) of nybble values at ``index`` across addresses."""
    if not 0 <= index < ADDRESS_NYBBLES:
        raise IndexError(f"nybble index out of range: {index}")
    shift = (ADDRESS_NYBBLES - 1 - index) * 4
    counts = [0] * 16
    for value in addresses:
        counts[(value >> shift) & 0xF] += 1
    return counts


# -- vectorized counterpart ------------------------------------------------
#
# Column ``j`` of the ``(n, 32)`` uint8 nybble matrix is nybble ``j`` of
# every address, most significant first, matching :func:`to_nybbles`
# row for row.

from .vector import np  # noqa: E402


def nybble_matrix_from_bytes(data):
    """Split an ``(n, 16)`` uint8 array of big-endian addresses into the
    ``(n, 32)`` uint8 nybble matrix (each byte is two nybbles)."""
    matrix = np.empty((data.shape[0], ADDRESS_NYBBLES), dtype=np.uint8)
    matrix[:, 0::2] = data >> 4
    matrix[:, 1::2] = data & 0xF
    return matrix
