"""The telemetry registry: counters, gauges, histograms and spans.

Design constraints (see ``docs/architecture.md`` § Telemetry):

* **Zero dependencies** — standard library only.
* **Near-zero overhead when off** — :func:`get_telemetry` returns a
  shared no-op instance unless a registry has been activated, so hot
  paths pay one global read and one attribute check per *batch* (never
  per address).
* **Deterministic numbers** — every counter, histogram and virtual-time
  figure is a pure function of the master seed and the work performed.
  Wall-clock durations are accumulated in the span tree for human
  summaries but excluded from events and default snapshots, so JSONL
  event logs and golden snapshots are byte-identical across runs.
  The sanctioned exceptions are the namespaces listed in
  :data:`SANCTIONED_VARIANT_PREFIXES` — ``meta.*`` (run-cache hits,
  scheduling bookkeeping), ``tga.model_cache.*`` (prepared-model
  cache traffic, plus the ``cached`` attribute on ``prepare`` span
  events), ``tga.model_store.*`` (persistent disk-store traffic,
  machine-state-dependent by nature), ``fault.*`` (injected faults,
  retries, pool rebuilds), ``checkpoint.*`` (cells written to /
  restored from a RunStore), ``resource.*`` / ``heartbeat.*`` (the
  resource flight recorder of :mod:`repro.telemetry.resources` —
  RSS/CPU samples and worker liveness beats, wall-clock-dependent by
  nature), and ``sched.*`` (the grid executor's per-cell wall times
  and per-grid makespan summary) — which may
  legitimately differ between serial and parallel execution, between
  cold- and warm-cache runs, between fault-free and fault-recovered
  runs, or between sampled and unsampled runs of the same workload;
  all other names must be execution-strategy independent.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

__all__ = [
    "DEFAULT_EDGES",
    "SANCTIONED_VARIANT_PREFIXES",
    "Histogram",
    "SpanNode",
    "SpanHandle",
    "Telemetry",
    "get_telemetry",
    "quantile_from_buckets",
    "use_telemetry",
]

#: Metric-name prefixes sanctioned to differ between executions of the
#: same workload that are otherwise bit-identical (serial vs parallel,
#: cold vs warm model cache, fault-free vs fault-recovered).  Every
#: comparison that asserts execution-strategy independence filters
#: these out.  ``fault.*`` and ``checkpoint.*`` record retries, pool
#: rebuilds and checkpoint traffic — infrastructure weather, not
#: workload results.  ``resource.*`` and ``heartbeat.*`` are the
#: flight-recorder samples of :mod:`repro.telemetry.resources` —
#: wall-clock-dependent by design, never reproducible.
#: ``tga.model_store.*`` counts persistent disk-store traffic (a
#: function of machine state, like any cache) and ``sched.*`` carries
#: the grid executor's measured per-cell wall times and makespan.
SANCTIONED_VARIANT_PREFIXES: tuple[str, ...] = (
    "meta.",
    "tga.model_cache.",
    "tga.model_store.",
    "fault.",
    "checkpoint.",
    "resource.",
    "heartbeat.",
    "sched.",
)

#: Default histogram bucket edges (counts of addresses / batch sizes).
DEFAULT_EDGES: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000)


def quantile_from_buckets(
    edges: Sequence[float], buckets: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    Uses linear interpolation inside the bucket containing the target
    rank; the overflow bucket (values past the last edge) is clamped to
    the last edge since its upper bound is unknown.  This is the single
    estimator shared by :func:`~repro.telemetry.render_summary` and
    ``repro trace summary``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    count = sum(buckets)
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for index, bucket in enumerate(buckets):
        if bucket == 0:
            continue
        if cumulative + bucket >= rank:
            if index >= len(edges):  # overflow: upper bound unknown
                return float(edges[-1])
            lower = float(edges[index - 1]) if index > 0 else min(0.0, float(edges[0]))
            upper = float(edges[index])
            return lower + (upper - lower) * ((rank - cumulative) / bucket)
        cumulative += bucket
    return float(edges[-1])


class Histogram:
    """Fixed-bucket histogram; bucket *i* counts values <= ``edges[i]``,
    with one overflow bucket past the last edge."""

    __slots__ = ("edges", "buckets", "count", "total")

    def __init__(self, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be a non-empty sorted sequence")
        self.edges = tuple(edges)
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> dict:
        return {
            "edges": list(self.edges),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
        }

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (see
        :func:`quantile_from_buckets`)."""
        return quantile_from_buckets(self.edges, self.buckets, q)

    def estimated_max(self) -> tuple[float, bool]:
        """Upper bound of the highest occupied bucket.

        Returns ``(value, exceeds)`` — ``exceeds`` is true when the
        overflow bucket is occupied, i.e. the true maximum is somewhere
        past the last edge.
        """
        for index in range(len(self.buckets) - 1, -1, -1):
            if self.buckets[index]:
                if index >= len(self.edges):
                    return float(self.edges[-1]), True
                return float(self.edges[index]), False
        return 0.0, False

    def merge(self, other: "Histogram | dict") -> None:
        if isinstance(other, dict):
            edges = tuple(other["edges"])
            buckets = other["buckets"]
            count = other["count"]
            total = other["total"]
        else:
            edges, buckets, count, total = other.edges, other.buckets, other.count, other.total
        if edges != self.edges:
            raise ValueError(f"cannot merge histograms with different edges: {edges} != {self.edges}")
        for index, value in enumerate(buckets):
            self.buckets[index] += value
        self.count += count
        self.total += total


class SpanNode:
    """One node of the span tree: aggregate timings for a phase."""

    __slots__ = ("name", "path", "count", "wall", "virtual", "children")

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        self.count = 0
        self.wall = 0.0
        self.virtual = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name, f"{self.path}/{name}" if self.path else name)
            self.children[name] = node
        return node

    def snapshot(self, include_wall: bool = False) -> dict:
        data: dict = {"name": self.name, "count": self.count, "virtual": self.virtual}
        if include_wall:
            data["wall"] = self.wall
        if self.children:
            data["children"] = [
                self.children[name].snapshot(include_wall)
                for name in sorted(self.children)
            ]
        return data

    def merge(self, data: dict) -> None:
        """Fold a span snapshot (from :meth:`snapshot`) into this node."""
        self.count += data.get("count", 0)
        self.wall += data.get("wall", 0.0)
        self.virtual += data.get("virtual", 0.0)
        for child in data.get("children", ()):
            self.child(child["name"]).merge(child)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first traversal as (depth, node) pairs (root excluded
        when its name is empty)."""
        if self.name:
            yield depth, self
            depth += 1
        for name in sorted(self.children):
            yield from self.children[name].walk(depth)


class SpanHandle:
    """Mutable handle yielded by :meth:`Telemetry.span`."""

    __slots__ = ("node", "virtual", "attrs")

    def __init__(self, node: SpanNode) -> None:
        self.node = node
        self.virtual = 0.0
        self.attrs: dict | None = None

    def add_virtual(self, seconds: float) -> None:
        """Attribute virtual scan time (rate-limiter seconds) to the span."""
        self.virtual += seconds

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span's exit event.

        Unlike the keyword attributes passed to :meth:`Telemetry.span`
        (fixed at entry), annotations can record facts only known once
        the work has run — e.g. whether ``prepare`` was served from the
        model cache.
        """
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)


class _NullSpanHandle:
    """Reusable no-op stand-in for SpanHandle on the disabled path."""

    __slots__ = ()

    def add_virtual(self, seconds: float) -> None:  # pragma: no cover - trivial
        pass

    def annotate(self, **attrs) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class Telemetry:
    """A metrics + tracing registry with pluggable sinks.

    Counters/gauges/histograms aggregate named numbers; :meth:`span`
    builds a tree of phase timings; :meth:`emit` forwards structured
    events to every attached sink.  :meth:`snapshot` returns the whole
    state as a plain dict (deterministic by default), and
    :meth:`merge_snapshot` folds a snapshot from another registry (e.g.
    a worker process) back in.
    """

    enabled = True

    def __init__(self, sinks: Sequence = ()) -> None:
        self.sinks = list(sinks)
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.root = SpanNode("", "")
        self._stack: list[SpanNode] = [self.root]
        self._span_attrs: list[dict] = [{}]
        self._seq = 0
        self._emit_lock = threading.Lock()

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        """Record ``value`` into the named fixed-bucket histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(edges)
        histogram.observe(value)

    # -- tracing -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a phase; nests under the innermost open span.

        Wall-clock lands only in the in-memory tree; the span-exit event
        carries just the deterministic fields (path, attrs, virtual).
        """
        node = self._stack[-1].child(name)
        handle = SpanHandle(node)
        self._stack.append(node)
        self._span_attrs.append(attrs)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            node.wall += time.perf_counter() - start
            self._span_attrs.pop()
            self._stack.pop()
            node.count += 1
            node.virtual += handle.virtual
            if self.sinks:
                event: dict = {"type": "span", "path": node.path}
                if handle.virtual:
                    event["virtual"] = handle.virtual
                if attrs:
                    event.update(attrs)
                if handle.attrs:
                    event.update(handle.attrs)
                self.emit_event(event)

    def current_span(self) -> tuple[str, dict]:
        """The innermost open span's path and merged entry attributes.

        Inner spans override outer ones key-by-key, so a sampler asking
        for the active ``tga`` sees the cell currently executing.  Safe
        to call from another thread (the resource sampler does): a race
        against a concurrent push/pop degrades to the harmless
        neighbouring answer or, at worst, the empty one.
        """
        try:
            stack = self._stack
            path = stack[-1].path
            merged: dict = {}
            for attrs in self._span_attrs[: len(stack)]:
                merged.update(attrs)
            return path, merged
        except (IndexError, RuntimeError):  # pragma: no cover - thread race
            return "", {}

    # -- events ------------------------------------------------------------

    def emit(self, event_type: str, **fields) -> None:
        """Send one structured event to every sink."""
        self.emit_event({"type": event_type, **fields})

    def emit_event(self, event: dict) -> None:
        """Send a pre-built event dict (``seq`` is (re)assigned here).

        Serialised under a lock: the resource sampler thread emits
        concurrently with the main thread, and both the sequence
        numbering and the sinks' line-oriented output need events to
        land whole and in one order.
        """
        if not self.sinks:
            return
        with self._emit_lock:
            self._seq += 1
            event["seq"] = self._seq
            for sink in self.sinks:
                sink.handle(event)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, include_wall: bool = False) -> dict:
        """Plain-dict state dump.

        Deterministic for a fixed seed unless ``include_wall`` is set
        (wall-clock is the only non-deterministic figure tracked).
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)
            },
            "spans": self.root.snapshot(include_wall),
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add; gauges overwrite (callers merge in
        a deterministic order), except peak gauges — names containing
        ``.peak_`` merge by maximum, so a worker's ``resource.peak_rss_mb``
        never clobbers a larger parent or sibling figure; the incoming
        span tree grafts onto the *currently open* span, so telemetry
        merged back from a worker process nests exactly where the work
        was dispatched — a parallel grid's cells land under the same
        ``grid`` span as a serial run's.
        """
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, value in snap.get("gauges", {}).items():
            if ".peak_" in name and name in self.gauges:
                value = max(value, self.gauges[name])
            self.gauge(name, value)
        for name, data in snap.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(tuple(data["edges"]))
            histogram.merge(data)
        spans = snap.get("spans")
        if spans:
            node = self._stack[-1]
            for child in spans.get("children", ()):
                node.child(child["name"]).merge(child)

    def close(self, aborted: bool = False) -> None:
        """Flush and close every sink (hands each the final snapshot).

        ``aborted`` marks an exceptional shutdown: sinks that persist
        traces (e.g. :class:`~repro.telemetry.JsonlSink`) record an
        ``{"type": "aborted"}`` footer instead of a final snapshot, so a
        truncated trace is distinguishable from a complete one.
        """
        for sink in self.sinks:
            sink.close(self, aborted=aborted)


class _NullTelemetry(Telemetry):
    """Shared disabled registry: every operation is a no-op."""

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        pass

    def span(self, name: str, **attrs):  # type: ignore[override]
        return _NULL_SPAN

    def emit(self, event_type: str, **fields) -> None:
        pass

    def emit_event(self, event: dict) -> None:
        pass


#: The shared disabled registry returned while nothing is activated.
NULL_TELEMETRY = _NullTelemetry()

_ACTIVE: Telemetry | None = None

#: Per-thread activation override.  ``use_telemetry`` records the
#: registry on the calling thread, so concurrent threads (the
#: observatory service runs one study per worker thread) each see their
#: own registry; ``_ACTIVE`` remains the process-wide fallback for
#: threads that never activated one — which preserves the historical
#: single-threaded behaviour exactly (the activating thread both sets
#: and reads the same slot).
_THREAD_ACTIVE = threading.local()


def get_telemetry() -> Telemetry:
    """The active registry, or the shared no-op one.

    Thread-scoped: a registry activated with :func:`use_telemetry` on
    this thread wins; otherwise the most recent activation from any
    thread (the process-wide fallback) applies.
    """
    local = getattr(_THREAD_ACTIVE, "value", None)
    if local is not None:
        return local
    return _ACTIVE if _ACTIVE is not None else NULL_TELEMETRY


@contextmanager
def use_telemetry(telemetry: Telemetry | None):
    """Activate ``telemetry`` for the dynamic extent of the block.

    ``use_telemetry(None)`` is a no-op pass-through (the previously
    active registry, if any, stays active) so call sites can wire an
    optional ``telemetry=`` parameter without branching.

    Activation is scoped to the calling thread *and* recorded as the
    process-wide fallback for threads that never activate their own —
    single-threaded callers see the historical behaviour, while
    concurrent activations on different threads stay isolated from one
    another.
    """
    global _ACTIVE
    if telemetry is None:
        yield get_telemetry()
        return
    previous_local = getattr(_THREAD_ACTIVE, "value", None)
    previous_global = _ACTIVE
    _THREAD_ACTIVE.value = telemetry
    if previous_local is None:
        # Only the outermost thread activation publishes the fallback:
        # nested scopes on one thread restore cleanly either way, and a
        # service worker thread never clobbers another thread's view.
        _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _THREAD_ACTIVE.value = previous_local
        if previous_local is None and _ACTIVE is telemetry:
            _ACTIVE = previous_global
