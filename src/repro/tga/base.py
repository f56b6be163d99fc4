"""Target Generation Algorithm (TGA) framework.

Every TGA — offline or online — implements a single round-based
interface so the experiment harness can drive them uniformly, the way
the paper drives its eight generators:

* :meth:`TargetGenerator.prepare` ingests the seed dataset;
* :meth:`TargetGenerator.propose` emits the next batch of candidate
  addresses (never seeds, never repeats);
* :meth:`TargetGenerator.observe` feeds scan results back.  Offline
  generators ignore it; online generators (6Hit, 6Scan, DET, 6Sense)
  adapt their allocation to it.

The registry maps canonical generator names to classes, and
:data:`TGA_TABLE1` records each tool's historical dataset-construction
defaults (the paper's Table 1 literature survey).
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..addr import SeedList
from ..telemetry import get_telemetry

__all__ = [
    "TargetGenerator",
    "register_tga",
    "create_tga",
    "tga_class",
    "canonical_tga_name",
    "ALL_TGA_NAMES",
    "TGA_ALIASES",
    "Table1Row",
    "TGA_TABLE1",
]


class TargetGenerator(abc.ABC):
    """Base class for all target generation algorithms."""

    #: Canonical lowercase name ("6tree", "det", ...).
    name: str = ""
    #: Whether the generator adapts to scan feedback.
    online: bool = False

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt
        self._prepared = False

    # -- lifecycle -----------------------------------------------------

    def prepare(self, seeds: Sequence[int]) -> None:
        """Ingest the seed dataset and build internal models.

        ``seeds`` may be any sequence of addresses, in the order the
        models should see them; it is wrapped once in a
        :class:`~repro.addr.SeedList` (one passes through), whose packed
        forms and fingerprint every model builder of the cell shares.
        """
        if not seeds:
            raise ValueError(f"{self.name}: cannot prepare with an empty seed set")
        self._ingest(SeedList.of(seeds))
        self._prepared = True

    @abc.abstractmethod
    def _ingest(self, seeds: SeedList) -> None:
        """Subclass hook: build the generator's model from seeds."""

    @abc.abstractmethod
    def propose(self, count: int) -> list[int]:
        """Produce up to ``count`` fresh candidate addresses.

        Returning fewer than ``count`` signals (possibly temporary)
        exhaustion; returning an empty list signals the generator has
        nothing further to offer.
        """

    def observe(self, results: Mapping[int, bool]) -> None:
        """Receive scan feedback: address → responded affirmatively.

        Default is a no-op (offline generators).
        """

    # -- instrumented entry points -----------------------------------------
    #
    # The experiment harness drives generators through these wrappers so
    # every TGA's per-round accounting (candidates emitted, feedback
    # consumed) lands in the active telemetry registry without each
    # subclass having to know telemetry exists.

    def propose_batch(self, count: int) -> list[int]:
        """Instrumented :meth:`propose`: records candidates emitted."""
        batch = self.propose(count)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("tga.propose_calls")
            tel.count(f"tga.{self.name}.candidates", len(batch))
            tel.observe("tga.batch_candidates", len(batch))
        return batch

    def feedback(self, results: Mapping[int, bool]) -> None:
        """Instrumented :meth:`observe`: records scan feedback volume."""
        tel = get_telemetry()
        if tel.enabled:
            hits = sum(1 for responded in results.values() if responded)
            tel.count(f"tga.{self.name}.feedback_addresses", len(results))
            tel.count(f"tga.{self.name}.feedback_hits", hits)
        self.observe(results)

    # -- helpers -----------------------------------------------------------

    def _require_prepared(self) -> None:
        if not self._prepared:
            raise RuntimeError(f"{self.name}: propose() called before prepare()")

    def __repr__(self) -> str:
        mode = "online" if self.online else "offline"
        return f"<{type(self).__name__} {self.name!r} ({mode})>"


_REGISTRY: dict[str, type[TargetGenerator]] = {}

#: Presentation order used throughout the paper's tables.
ALL_TGA_NAMES: tuple[str, ...] = (
    "6sense",
    "det",
    "6tree",
    "6scan",
    "6graph",
    "6gen",
    "6hit",
    "eip",
)


#: Accepted spellings for generators whose registry name differs from
#: how the paper (or common usage) writes them.  Keys are normalised
#: lowercase; values are canonical registry names.
TGA_ALIASES: dict[str, str] = {
    "entropy_ip": "eip",
    "entropy-ip": "eip",
    "entropyip": "eip",
    "entropy/ip": "eip",
    "addr_miner": "addrminer",
    "addr-miner": "addrminer",
}


def register_tga(cls: type[TargetGenerator]) -> type[TargetGenerator]:
    """Class decorator: add a generator to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no canonical name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate TGA name: {cls.name}")
    _REGISTRY[cls.name] = cls
    return cls


def canonical_tga_name(name: str) -> str:
    """Resolve a generator name or alias to its canonical registry name.

    Accepts canonical names (returned unchanged, so the mapping
    round-trips for all eight generators), the paper's spellings
    (``"entropy_ip"`` → ``"eip"``) and any case variation thereof.
    Unknown names raise ``KeyError`` listing the known canonical names.
    """
    lowered = name.lower()
    resolved = TGA_ALIASES.get(lowered, lowered)
    if resolved not in _REGISTRY:
        raise KeyError(
            f"unknown TGA {name!r}; known: {sorted(_REGISTRY)}"
        )
    return resolved


def tga_class(name: str) -> type[TargetGenerator]:
    """Look up a generator class by canonical name or alias."""
    return _REGISTRY[canonical_tga_name(name)]


def create_tga(name: str, salt: int = 0) -> TargetGenerator:
    """Instantiate a generator by canonical name or alias."""
    return tga_class(name)(salt=salt)


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One row of the paper's Table 1: a tool's historical defaults."""

    name: str
    uses_all: bool
    no_dealiasing: bool
    offline_dealiasing: bool
    online_dealiasing: bool
    include_inactive: bool
    only_active: bool
    port_specific: bool


#: The paper's Table 1 literature survey, verbatim.
TGA_TABLE1: tuple[Table1Row, ...] = (
    Table1Row("6sense", False, False, True, True, False, True, False),
    Table1Row("det", False, False, True, False, False, True, False),
    Table1Row("6scan", False, False, True, False, False, False, True),
    Table1Row("6hit", False, False, True, False, False, True, False),
    Table1Row("6graph", False, False, True, False, False, True, False),
    Table1Row("6tree", False, False, True, False, True, True, False),
    Table1Row("6gen", True, True, False, False, True, False, False),
    Table1Row("eip", True, True, False, False, True, False, False),
)
