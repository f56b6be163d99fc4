"""Deterministic fault injection for the grid executor.

Production-scale campaigns survive because crash recovery is exercised
constantly, not discovered during the first real outage.  This module
makes worker failure a *first-class, reproducible input*: a
:class:`FaultPlan` decides — purely from the cell key, the attempt
number and a seed — whether a cell's execution should crash its worker
process, stall past the cell timeout, or raise an exception.  Plans are
frozen and picklable, so they travel inside
:class:`~repro.experiments.parallel.WorkerSpec` to every worker process
and fire identically no matter which process runs the cell.

Fault kinds and how they manifest:

===========  ==========================================  =========================
kind         worker process (``allow_exit=True``)        inline / serial execution
===========  ==========================================  =========================
``crash``    ``os._exit`` — kills the process, the       raises :class:`FaultInjected`
             parent sees ``BrokenProcessPool``
``stall``    sleeps ``stall_seconds`` — the parent's     raises :class:`FaultInjected`
             per-cell timeout (or, with heartbeats,
             its CPU-progress rule) must reap it
``exception``  raises :class:`FaultInjected`             raises :class:`FaultInjected`
``busy``     burns CPU for ``busy_seconds``, then        burns CPU, then returns
             returns normally — slow but alive           normally
===========  ==========================================  =========================

``busy`` is the CPU-progress rule's negative control: a cell that is
merely *slow* keeps advancing its CPU counter, keeps beating, and must
never be reaped before the real ``cell_timeout``.

Every decision is a pure function of ``(seed, cell key, attempt)``:
re-running a plan replays the same faults, which is what makes crash
recovery CI-testable.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

__all__ = ["FAULT_KINDS", "FaultInjected", "FaultRule", "FaultPlan"]

#: The ways a cell's execution can be made to fail (or, for ``busy``,
#: merely drag: it burns CPU and then completes normally).
FAULT_KINDS: tuple[str, ...] = ("crash", "stall", "exception", "busy")

#: Exit status used by injected worker crashes (distinctive in core
#: dumps / CI logs; any non-zero status breaks the process pool).
CRASH_EXIT_STATUS = 70


class FaultInjected(RuntimeError):
    """An injected (simulated) fault.

    Raised directly for ``exception`` faults, and *in lieu of* process
    death / stalling when a plan fires on an inline execution path
    (serial runs cannot survive ``os._exit``, and an un-reapable sleep
    would hang the caller).
    """

    def __init__(self, kind: str, key: tuple, attempt: int) -> None:
        super().__init__(
            f"injected {kind} fault at cell {key!r} (attempt {attempt})"
        )
        self.kind = kind
        self.key = key
        self.attempt = attempt


def _key_fingerprint(key: tuple) -> int:
    """Stable 64-bit fingerprint of a run key (PYTHONHASHSEED-proof)."""
    text = "\x1f".join(str(part) for part in key)
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class FaultRule:
    """Fire a fault at cells matching this pattern.

    ``None`` fields match anything, so ``FaultRule("crash", tga="6gen")``
    crashes every 6Gen cell.  ``max_fires`` bounds how many *attempts* of
    a matching cell fire: the default 1 means the first attempt faults
    and the retry succeeds; a value above the executor's ``max_retries``
    makes the cell fail permanently.
    """

    kind: str
    tga: str | None = None
    dataset: str | None = None
    port: str | None = None  # Port.value, e.g. "icmp"
    budget: int | None = None
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.max_fires < 1:
            raise ValueError("max_fires must be at least 1")

    def matches(self, key: tuple, attempt: int) -> bool:
        """Does this rule fire for ``key`` on its ``attempt``-th try?"""
        tga, dataset, port, budget = key
        port_value = getattr(port, "value", port)
        return (
            attempt < self.max_fires
            and (self.tga is None or self.tga == tga)
            and (self.dataset is None or self.dataset == dataset)
            and (self.port is None or self.port == port_value)
            and (self.budget is None or self.budget == budget)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Two trigger mechanisms compose:

    * ``rules`` — explicit :class:`FaultRule` patterns (first match
      wins), for scripting exact failure scenarios;
    * ``rate`` — a seeded per-attempt probability, for soak-style
      testing: ``hash(seed, key, attempt) < rate`` decides, so the same
      plan replays the same faults on every run.

    ``stall_seconds`` is how long a ``stall`` fault sleeps in a worker —
    set it well past the executor's ``cell_timeout`` so the parent's
    reaper, not the sleep, ends the cell.  ``busy_seconds`` is how long
    a ``busy`` fault spins the CPU before the cell proceeds normally.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    rate: float = 0.0
    rate_kind: str = "exception"
    stall_seconds: float = 3600.0
    busy_seconds: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        if self.rate_kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.rate_kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )

    def decide(self, key: tuple, attempt: int) -> str | None:
        """The fault kind to inject for this (cell, attempt), if any."""
        for rule in self.rules:
            if rule.matches(key, attempt):
                return rule.kind
        if self.rate > 0.0:
            draw = _key_fingerprint((self.seed, attempt) + tuple(key))
            if draw / 2.0**64 < self.rate:
                return self.rate_kind
        return None

    def fire(self, key: tuple, attempt: int, allow_exit: bool = False) -> None:
        """Inject the planned fault for this (cell, attempt), if any.

        ``allow_exit`` is true only in worker processes, where a
        ``crash`` may genuinely kill the process and a ``stall`` may
        genuinely sleep; inline callers get :class:`FaultInjected`
        instead for every kind.  A ``busy`` fault spins the CPU for
        ``busy_seconds`` and then lets the cell proceed on *both*
        paths — it models slowness, not failure.
        """
        kind = self.decide(key, attempt)
        if kind is None:
            return
        if kind == "busy":
            deadline = time.monotonic() + self.busy_seconds
            spin = 0
            while time.monotonic() < deadline:
                spin = (spin + 1) % 1_000_003
            return
        if allow_exit:
            if kind == "crash":
                os._exit(CRASH_EXIT_STATUS)
            if kind == "stall":
                time.sleep(self.stall_seconds)
                return
        raise FaultInjected(kind, key, attempt)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a single-rule plan from a CLI spec string.

        Format: ``KIND[:TGA][:PORT][:FIRES]`` with segments in any
        order after the kind — e.g. ``crash:6gen``, ``stall:6tree:icmp``
        or ``crash:6gen:3`` (fire on the first three attempts).
        """
        from ..internet import ALL_PORTS
        from ..tga import canonical_tga_name

        segments = [part for part in text.split(":") if part]
        if not segments:
            raise ValueError("empty fault spec")
        kind, rest = segments[0], segments[1:]
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        port_values = {port.value for port in ALL_PORTS}
        tga = port = None
        max_fires = 1
        for segment in rest:
            if segment.isdigit():
                max_fires = int(segment)
            elif segment in port_values:
                port = segment
            else:
                tga = canonical_tga_name(segment)  # raises on unknown names
        return cls(
            rules=(
                FaultRule(
                    kind=kind, tga=tga, port=port, max_fires=max_fires
                ),
            )
        )
