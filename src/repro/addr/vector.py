"""Packed address batches for the numpy core.

The simulation hot paths (probing, IID generation, TGA preparation) run
on numpy batch kernels that are bit-identical to their scalar
definitions: every kernel in :mod:`repro.addr.rand` reproduces the
scalar function element for element, and the parity suite checks each
one against a scalar oracle.

A 128-bit IPv6 address does not fit a single uint64 lane, so the batch
core's currency is a :class:`PackedAddresses` pair of uint64 columns —
``prefix64`` (the /64 network, high bits) and ``iid64`` (the interface
identifier, low bits).  Producers that keep addresses packed end to end
skip the per-int conversion cost entirely; list-based callers convert
once per batch via :meth:`PackedAddresses.from_addresses`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["PackedAddresses"]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


class PackedAddresses:
    """A batch of 128-bit addresses as two aligned uint64 columns.

    ``prefix64`` holds the high 64 bits (the /64 network) and ``iid64``
    the low 64 (the interface identifier).  Iterating yields the plain
    Python integers, so a ``PackedAddresses`` can be handed to any
    scalar code path that accepts an iterable of addresses.
    """

    __slots__ = ("prefix64", "iid64")

    def __init__(self, prefix64, iid64) -> None:
        prefix64 = np.ascontiguousarray(prefix64, dtype=np.uint64)
        iid64 = np.ascontiguousarray(iid64, dtype=np.uint64)
        if prefix64.shape != iid64.shape or prefix64.ndim != 1:
            raise ValueError("prefix64 and iid64 must be equal-length 1-d arrays")
        self.prefix64 = prefix64
        self.iid64 = iid64

    @classmethod
    def from_addresses(cls, addresses: Iterable[int]) -> "PackedAddresses":
        """Pack an iterable of 128-bit integer addresses (one pass each)."""
        if not isinstance(addresses, (list, tuple)):
            addresses = list(addresses)
        n = len(addresses)
        prefix64 = np.fromiter(
            (address >> 64 for address in addresses), dtype=np.uint64, count=n
        )
        iid64 = np.fromiter(
            (address & _MASK64 for address in addresses), dtype=np.uint64, count=n
        )
        return cls(prefix64, iid64)

    def to_addresses(self) -> list[int]:
        """Unpack back into plain Python integers."""
        return [
            (prefix << 64) | iid
            for prefix, iid in zip(self.prefix64.tolist(), self.iid64.tolist())
        ]

    def __len__(self) -> int:
        return int(self.prefix64.shape[0])

    def __iter__(self) -> Iterator[int]:
        for prefix, iid in zip(self.prefix64.tolist(), self.iid64.tolist()):
            yield (prefix << 64) | iid

    def __repr__(self) -> str:
        return f"PackedAddresses(n={len(self)})"
