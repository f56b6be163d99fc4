"""The vectorized-core seam and packed address representation.

The simulation hot paths (probing, IID generation, nybble histograms)
have two implementations: the scalar reference (plain Python integers,
one address at a time) and a numpy batch core operating on packed
arrays.  Both are bit-identical by contract — every kernel in
:mod:`repro.addr.rand` and :mod:`repro.addr.nybbles` reproduces the
scalar functions element for element.  The batch core is always on;
the scalar reference still serves batches too small to pay for packing
and the grouped probe path of resident-capped worlds.
:func:`use_vectorized` is the seam the parity suite and the probe
throughput benchmark use to run the scalar reference on any batch.

A 128-bit IPv6 address does not fit a single uint64 lane, so the batch
core's currency is a :class:`PackedAddresses` pair of uint64 columns —
``prefix64`` (the /64 network, high bits) and ``iid64`` (the interface
identifier, low bits).  Producers that keep addresses packed end to end
skip the per-int conversion cost entirely; list-based callers convert
once per batch via :meth:`PackedAddresses.from_addresses`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager

import numpy as np

__all__ = [
    "vector_enabled",
    "use_vectorized",
    "PackedAddresses",
]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: False only inside ``use_vectorized(False)``.
_ENABLED = True


def vector_enabled() -> bool:
    """Whether batch kernels should run."""
    return _ENABLED


@contextmanager
def use_vectorized(enabled: bool):
    """Run the enclosed block on the batch core or the scalar reference."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = enabled
    try:
        yield
    finally:
        _ENABLED = previous


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
