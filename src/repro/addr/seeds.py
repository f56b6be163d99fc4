"""Seed lists that pack and fingerprint themselves once.

Preparing a TGA reads its seed list in several packed forms: the seeds'
16 big-endian bytes each (hashed into the model cache's fingerprint),
the ``(n, 32)`` nybble matrix the space trees and Entropy/IP work on,
and the two uint64 columns a scan takes.  A :class:`SeedList` is an
immutable, ordered tuple of addresses that makes each form the first
time it is read and keeps it, so every cell and every model builder
over one dataset shares one packing (``SeedDataset.sorted_seeds``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
from collections.abc import Iterable

from .address import ADDRESS_NYBBLES
from .nybbles import nybble_matrix_from_bytes
from .vector import PackedAddresses, np

__all__ = ["SeedList", "seed_bytes", "seed_matrix"]

_ADDRESS_BYTES = ADDRESS_NYBBLES // 2


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


def _matrix_of(data: bytes):
    return nybble_matrix_from_bytes(
        np.frombuffer(data, dtype=np.uint8).reshape(-1, _ADDRESS_BYTES)
    )


def seed_matrix(seeds: Iterable[int]):
    """The ``(n, 32)`` uint8 nybble matrix of the seeds' packed bytes."""
    return _matrix_of(seed_bytes(seeds))


class SeedList(tuple):
    """Seed addresses in a fixed order, with their packed forms cached.

    The forms are made on first read and never change, because the
    tuple does not: ``packed`` (the :class:`~repro.addr.PackedAddresses`
    columns, packed from the addresses), then ``matrix``
    (:func:`seed_matrix`, read-only) and ``fingerprint``, both read from
    ``packed``'s columns.  No form keeps the :func:`seed_bytes` buffer.
    A pickled list carries its addresses only.
    """

    @classmethod
    def of(cls, seeds: Iterable[int]) -> SeedList:
        """``seeds`` as a :class:`SeedList`: itself when it is one."""
        return seeds if isinstance(seeds, SeedList) else cls(seeds)

    def __reduce__(self):
        return (SeedList, (tuple(self),))

    def sorted_unique(self) -> SeedList:
        """These seeds in ascending order without repeats: this list
        itself when it already is."""
        if all(map(operator.lt, self, itertools.islice(self, 1, None))):
            return self
        return SeedList(sorted(set(self)))

    @functools.cached_property
    def packed(self) -> PackedAddresses:
        halves = np.frombuffer(seed_bytes(self), dtype=">u8").reshape(-1, 2)
        return PackedAddresses(halves[:, 0], halves[:, 1])

    def _seed_bytes(self) -> bytes:
        """:func:`seed_bytes` of this list, read from :attr:`packed`."""
        halves = np.empty((len(self), 2), dtype=">u8")
        halves[:, 0] = self.packed.prefix64
        halves[:, 1] = self.packed.iid64
        return halves.tobytes()

    @functools.cached_property
    def matrix(self):
        matrix = _matrix_of(self._seed_bytes())
        matrix.flags.writeable = False
        return matrix

    @functools.cached_property
    def fingerprint(self) -> int:
        """64-bit fingerprint (order-sensitive): an 8-byte BLAKE2b over
        the seed count and the seeds' :func:`seed_bytes`."""
        digest = hashlib.blake2b(len(self).to_bytes(8, "big"), digest_size=8)
        digest.update(self._seed_bytes())
        return int.from_bytes(digest.digest(), "big")
