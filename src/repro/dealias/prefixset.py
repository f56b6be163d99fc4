"""Alias prefix sets: collections of known-aliased prefixes.

Containment honours nesting (an address is aliased if *any* stored
prefix covers it, regardless of prefix length — published lists mix
/64s, /96s and odd lengths), so queries only need the union of the
stored prefixes.  That union is kept as a sorted table of disjoint
address ranges, and a query is one :func:`bisect.bisect_right`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from ..addr import ADDRESS_BITS, Prefix

__all__ = ["AliasPrefixSet"]


class AliasPrefixSet:
    """A set of aliased prefixes with address-containment queries."""

    def __init__(self, prefixes: Iterable[Prefix] = ()) -> None:
        self._prefixes: set[Prefix] = set(prefixes)
        #: Merged disjoint ranges: ``_starts[i]`` .. ``_ends[i]`` inclusive,
        #: rebuilt on the first query after an :meth:`add`.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._stale = bool(self._prefixes)

    def add(self, prefix: Prefix) -> None:
        """Record a prefix as aliased (idempotent)."""
        if prefix not in self._prefixes:
            self._prefixes.add(prefix)
            self._stale = True

    def _table(self) -> tuple[list[int], list[int]]:
        """The merged range table, rebuilt if a prefix was added since."""
        if self._stale:
            starts: list[int] = []
            ends: list[int] = []
            for prefix in sorted(self._prefixes):
                first = prefix.value
                last = first | ((1 << (ADDRESS_BITS - prefix.length)) - 1)
                if ends and first <= ends[-1] + 1:
                    ends[-1] = max(ends[-1], last)
                else:
                    starts.append(first)
                    ends.append(last)
            self._starts, self._ends = starts, ends
            self._stale = False
        return self._starts, self._ends

    def covers(self, address: int) -> bool:
        """Whether the address lies inside any known aliased prefix."""
        starts, ends = self._table()
        index = bisect_right(starts, address)
        return index > 0 and address <= ends[index - 1]

    def __contains__(self, address: int) -> bool:
        return self.covers(address)

    def __len__(self) -> int:
        return len(self._prefixes)

    def prefixes(self) -> list[Prefix]:
        """All stored prefixes in address order (shorter first on ties)."""
        return sorted(self._prefixes)

    def partition(self, addresses: Iterable[int]) -> tuple[set[int], set[int]]:
        """Split addresses into (clean, aliased) sets."""
        starts, ends = self._table()
        if not starts:
            return set(addresses), set()
        clean: set[int] = set()
        aliased: set[int] = set()
        for address in addresses:
            index = bisect_right(starts, address)
            if index and address <= ends[index - 1]:
                aliased.add(address)
            else:
                clean.add(address)
        return clean, aliased

    def merged_with(self, other: "AliasPrefixSet") -> "AliasPrefixSet":
        """A new set containing both sets' prefixes."""
        return AliasPrefixSet(self._prefixes | other._prefixes)
