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
    "to_nybble_matrix",
    "nybble_counts_matrix",
    "common_prefix_len_matrix",
    "first_seen_values",
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


# -- vectorized counterparts -----------------------------------------------
#
# A 128-bit address does not fit one uint64 lane, so the batch kernels
# take the packed `(prefix64, iid64)` column pair (see
# :class:`repro.addr.vector.PackedAddresses`) and materialise an
# ``(n, 32)`` uint8 nybble matrix on demand — column ``j`` is nybble
# ``j`` of every address, most significant first, matching
# :func:`to_nybbles` row for row.

from .vector import np  # noqa: E402


def to_nybble_matrix(prefix64, iid64):
    """Explode packed address columns into an ``(n, 32)`` uint8 matrix.

    Row ``k`` equals ``to_nybbles((prefix64[k] << 64) | iid64[k])``.
    """
    prefix64 = np.ascontiguousarray(prefix64, dtype=np.uint64)
    iid64 = np.ascontiguousarray(iid64, dtype=np.uint64)
    # Big-endian byte views give the 16 bytes of each half in
    # most-significant-first order; each byte then splits into two nybbles.
    high = prefix64.astype(">u8").view(np.uint8).reshape(-1, 8)
    low = iid64.astype(">u8").view(np.uint8).reshape(-1, 8)
    matrix = np.empty((prefix64.shape[0], ADDRESS_NYBBLES), dtype=np.uint8)
    matrix[:, 0:16:2] = high >> 4
    matrix[:, 1:16:2] = high & 0xF
    matrix[:, 16:32:2] = low >> 4
    matrix[:, 17:32:2] = low & 0xF
    return matrix


def nybble_counts_matrix(matrix):
    """Per-position nybble histograms: ``(32, 16)`` int64 counts.

    Row ``j`` equals ``nybble_counts(addresses, j)``; computed with one
    :func:`numpy.bincount` over the whole matrix by offsetting each
    column into its own 16-bin band.
    """
    positions = matrix.shape[1]
    offsets = (np.arange(positions, dtype=np.intp) * 16)[np.newaxis, :]
    flat = matrix.astype(np.intp, copy=False) + offsets
    counts = np.bincount(flat.ravel(), minlength=positions * 16)
    return counts.reshape(positions, 16)


def common_prefix_len_matrix(matrix) -> int:
    """Length, in nybbles, of the prefix shared by *all* rows.

    The column-wise generalisation of :func:`common_prefix_len`:
    ``common_prefix_len_matrix(to_nybble_matrix(...))`` over two rows
    equals ``common_prefix_len(a, b)``.  An empty or single-row matrix
    shares everything (``ADDRESS_NYBBLES``).
    """
    if matrix.shape[0] <= 1:
        return ADDRESS_NYBBLES
    varies = (matrix != matrix[0]).any(axis=0)
    differing = np.nonzero(varies)[0]
    if differing.size == 0:
        return int(matrix.shape[1])
    return int(differing[0])


def first_seen_values(column):
    """Distinct values of a column in first-occurrence (row) order.

    The numpy replacement for ``Counter(...)`` insertion order: entropy
    scorers sum float terms in first-seen order, and preserving that
    order keeps the (non-associative) summation bit-identical to the
    scalar formulation.
    """
    _, first_index = np.unique(column, return_index=True)
    return column[np.sort(first_index)]
