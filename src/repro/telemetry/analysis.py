"""Trace analysis: load, attribute, diff and gate telemetry traces.

The producer side of :mod:`repro.telemetry` writes deterministic JSONL
event traces; this module is the consumer side:

* :func:`load_trace` reads a trace back (plain ``.jsonl``, gzipped
  ``.jsonl.gz``, or the ``{"events": ..., "snapshot": ...}`` JSON payload
  format used by the golden fixture) into a typed :class:`Trace` with
  the manifest, event stream, final snapshot and a reconstructed span
  tree;
* :func:`attribute` computes where a run's *virtual* time (deterministic
  rate-limiter seconds) and counters went, per pipeline namespace
  (``tga`` / ``scan`` / ``dealias`` / ``meta``) and per TGA, plus the
  top-k hottest spans;
* :func:`diff_traces` produces a structured delta of counters, gauges,
  histograms and spans between two traces, and
  :meth:`TraceDiff.regressions` applies relative/absolute thresholds —
  the engine behind ``repro trace check --baseline`` (the CI
  perf-regression gate);
* :func:`to_prometheus_text` renders a snapshot in the Prometheus text
  exposition format for scrape integration.

Everything consumes the *deterministic* snapshot (no wall-clock), so a
diff of two fixed-seed runs of the same workload is empty by
construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .core import SANCTIONED_VARIANT_PREFIXES, SpanNode

__all__ = [
    "Trace",
    "load_trace",
    "Attribution",
    "attribute",
    "PHASE_NAMESPACES",
    "VARIANT_EVENT_TYPES",
    "NONDETERMINISTIC_PREFIXES",
    "strip_variant_events",
    "DiffEntry",
    "TraceDiff",
    "diff_traces",
    "ResourceTimeline",
    "trace_peak_rss_mb",
    "StragglerReport",
    "straggler_report",
    "to_prometheus_text",
]

#: Event types that record execution weather (injected faults, retries,
#: checkpoint traffic, resource samples, worker heartbeats, per-cell
#: wall-time observations) rather than workload results — the
#: event-stream counterpart of
#: :data:`~repro.telemetry.SANCTIONED_VARIANT_PREFIXES`.
VARIANT_EVENT_TYPES: tuple[str, ...] = (
    "fault",
    "checkpoint",
    "resource",
    "heartbeat",
    "sched",
)

#: Metric-name prefixes that are wall-clock-dependent *by design*
#: (RSS, CPU, sample counts, heartbeat counts) and therefore never
#: comparable between any two runs — not even two runs of the same
#: strategy on the same machine.  :meth:`TraceDiff.regressions` drops
#: them unconditionally; peak RSS gets its own ratio-based gate
#: (``repro trace check --rss-tol``) instead of the zero-tolerance
#: drift gate.
NONDETERMINISTIC_PREFIXES: tuple[str, ...] = ("resource.", "heartbeat.")


def strip_variant_events(events: list[dict]) -> list[dict]:
    """Drop execution-variant events and renumber ``seq`` contiguously.

    Fault, checkpoint, resource-sample and heartbeat events consume
    sequence numbers, so a fault-recovered (or resource-sampled) trace
    differs from a fault-free (unsampled) one even where the workload
    events are identical.  Stripping the
    :data:`VARIANT_EVENT_TYPES`, dropping the sanctioned ``cached``
    span attribute (prepared-model cache hits depend on worker-pool
    scheduling and survive pool rebuilds differently), and reassigning
    ``seq`` from 1 yields the comparable core: a fault-recovered run's
    stripped events must equal an uninterrupted run's under the same
    execution strategy.  Input events are not mutated.
    """
    stripped = []
    for event in events:
        if event.get("type") in VARIANT_EVENT_TYPES:
            continue
        clean = dict(event)
        clean.pop("cached", None)
        clean["seq"] = len(stripped) + 1
        stripped.append(clean)
    return stripped

#: Span (phase) name → pipeline namespace for virtual-time attribution.
#: ``prepare`` is pure TGA work, ``generate`` spends its virtual seconds
#: probing candidates, ``dealias`` on verification probes; everything
#: else (grid/cell framing, rq wrappers) is harness bookkeeping.
PHASE_NAMESPACES: dict[str, str] = {
    "prepare": "tga",
    "generate": "scan",
    "dealias": "dealias",
}

#: The canonical namespaces attribution reports over.
NAMESPACES: tuple[str, ...] = ("tga", "scan", "dealias", "meta")


@dataclass
class Trace:
    """A parsed telemetry trace."""

    path: Path | None
    events: list[dict]
    snapshot: dict | None = None
    manifest: dict | None = None
    aborted: bool = False

    @property
    def complete(self) -> bool:
        """True when the trace ended with a final snapshot."""
        return self.snapshot is not None and not self.aborted

    @property
    def counters(self) -> dict[str, int]:
        return dict((self.snapshot or {}).get("counters", {}))

    @property
    def gauges(self) -> dict[str, float]:
        return dict((self.snapshot or {}).get("gauges", {}))

    @property
    def histograms(self) -> dict[str, dict]:
        return dict((self.snapshot or {}).get("histograms", {}))

    def span_tree(self) -> SpanNode:
        """The span tree: from the snapshot when complete, otherwise
        reconstructed by aggregating ``span`` exit events."""
        if self.snapshot is not None:
            root = SpanNode("", "")
            spans = self.snapshot.get("spans")
            if spans:
                for child in spans.get("children", ()):
                    root.child(child["name"]).merge(child)
            return root
        return self.spans_from_events()

    def spans_from_events(self) -> SpanNode:
        """Rebuild a span tree purely from the event stream (the only
        option for aborted traces)."""
        root = SpanNode("", "")
        for event in self.events:
            if event.get("type") != "span" or "path" not in event:
                continue
            node = root
            for part in event["path"].split("/"):
                node = node.child(part)
            node.count += 1
            node.virtual += float(event.get("virtual", 0.0))
        return root

    def events_of(self, event_type: str) -> list[dict]:
        return [event for event in self.events if event.get("type") == event_type]


def _iter_jsonl(path: Path):
    if path.suffix == ".gz":
        import gzip

        with gzip.open(path, "rt", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)
    else:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)


def load_trace(path: str | Path) -> Trace:
    """Parse a trace file into a :class:`Trace`.

    Accepts JSONL traces written by
    :class:`~repro.telemetry.JsonlSink` (``.jsonl`` / ``.jsonl.gz``) and
    the ``{"events": [...], "snapshot": {...}}`` JSON payload format of
    the golden fixture.
    """
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "events" not in payload:
            raise ValueError(f"{path}: not a telemetry trace payload")
        return Trace(
            path=path,
            events=list(payload.get("events", ())),
            snapshot=payload.get("snapshot"),
            manifest=payload.get("manifest"),
        )
    events: list[dict] = []
    snapshot: dict | None = None
    manifest: dict | None = None
    aborted = False
    for record in _iter_jsonl(path):
        kind = record.get("type")
        if kind == "manifest":
            manifest = {k: v for k, v in record.items() if k not in ("type", "seq")}
        elif kind == "snapshot":
            snapshot = {k: v for k, v in record.items() if k != "type"}
        elif kind == "aborted":
            aborted = True
        else:
            events.append(record)
    return Trace(
        path=path, events=events, snapshot=snapshot, manifest=manifest, aborted=aborted
    )


# -- attribution -----------------------------------------------------------


@dataclass
class Attribution:
    """Where a run's budget went."""

    #: Total virtual seconds across the whole span tree.
    total_virtual: float
    #: Virtual seconds per namespace; values sum to ``total_virtual``.
    virtual: dict[str, float]
    #: Counter totals per namespace (first dotted segment).
    counters: dict[str, int]
    #: Per-TGA rollup: cells, virtual seconds, hits, probes, rounds.
    by_tga: dict[str, dict]
    #: The hottest spans: (path, count, virtual), sorted by virtual desc.
    hot_spans: list[tuple[str, int, float]]

    def shares(self) -> dict[str, float]:
        """Virtual-time share per namespace (fractions summing to 1)."""
        if self.total_virtual <= 0.0:
            return {name: 0.0 for name in self.virtual}
        return {
            name: value / self.total_virtual for name, value in self.virtual.items()
        }


def _self_virtual(node: SpanNode) -> float:
    # Clamped at zero: a parent span that does not roll its children's
    # virtual time into its own total would otherwise go negative and
    # cancel the children's contribution out of the namespace sums.
    own = node.virtual - sum(child.virtual for child in node.children.values())
    return max(0.0, own)


def attribute(trace: Trace, top: int = 10) -> Attribution:
    """Per-namespace / per-TGA attribution of one trace."""
    root = trace.span_tree()
    virtual = {name: 0.0 for name in NAMESPACES}
    hot: list[tuple[str, int, float]] = []
    for _depth, node in root.walk():
        namespace = PHASE_NAMESPACES.get(node.name, "meta")
        virtual[namespace] += _self_virtual(node)
        hot.append((node.path, node.count, node.virtual))
    hot.sort(key=lambda item: (-item[2], item[0]))

    counters: dict[str, int] = {}
    for name, value in trace.counters.items():
        namespace = name.split(".", 1)[0]
        counters[namespace] = counters.get(namespace, 0) + int(value)

    by_tga: dict[str, dict] = {}
    for event in trace.events_of("cell"):
        tga = event.get("tga")
        if tga is None:
            continue
        entry = by_tga.setdefault(
            tga, {"cells": 0, "virtual": 0.0, "hits": 0, "probes": 0, "rounds": 0}
        )
        entry["cells"] += 1
        entry["hits"] += int(event.get("hits", 0))
        entry["probes"] += int(event.get("probes_sent", 0))
        entry["rounds"] += int(event.get("rounds", 0))
    for event in trace.events_of("span"):
        tga = event.get("tga")
        path = event.get("path", "")
        if tga is None or not path.endswith("cell"):
            continue
        if tga in by_tga:
            by_tga[tga]["virtual"] += float(event.get("virtual", 0.0))

    return Attribution(
        total_virtual=sum(virtual.values()),
        virtual=virtual,
        counters=counters,
        by_tga=dict(sorted(by_tga.items())),
        hot_spans=hot[:top],
    )


# -- diffing and the regression gate ---------------------------------------


@dataclass(frozen=True)
class DiffEntry:
    """One changed figure between two traces."""

    kind: str  # counter | gauge | histogram | span
    name: str
    baseline: float
    current: float

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def relative(self) -> float:
        """Relative change vs the baseline (``inf`` for new figures)."""
        if self.baseline == 0:
            return float("inf") if self.delta else 0.0
        return self.delta / self.baseline

    def describe(self) -> str:
        rel = self.relative
        rel_text = "new" if rel == float("inf") else f"{rel:+.1%}"
        return (
            f"{self.kind} {self.name}: {self.baseline:g} -> {self.current:g} "
            f"({rel_text})"
        )


@dataclass
class TraceDiff:
    """Structured delta between a current trace and a baseline."""

    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def regressions(
        self,
        rel_tol: float = 0.0,
        abs_tol: float = 0.0,
        ignore_meta: bool = False,
    ) -> list[DiffEntry]:
        """Entries exceeding the thresholds.

        With both tolerances at 0 (the default, and what CI uses against
        the golden baseline) *any* drift is a regression.  ``rel_tol``
        admits changes within ±``rel_tol`` of the baseline value;
        ``abs_tol`` admits small absolute drifts regardless of the
        relative size; ``ignore_meta`` drops the sanctioned
        execution-variant namespaces
        (:data:`~repro.telemetry.SANCTIONED_VARIANT_PREFIXES`:
        ``meta.*`` run-cache bookkeeping and ``tga.model_cache.*``
        traffic), which legitimately differ between serial/parallel or
        cold/warm-cache executions.

        :data:`NONDETERMINISTIC_PREFIXES` (``resource.*`` /
        ``heartbeat.*``) are dropped *unconditionally*: RSS and CPU
        samples are wall-clock-dependent by design and would otherwise
        make every sampled run "regress" against every baseline.  Peak
        RSS is gated separately (``repro trace check --rss-tol``).
        """
        out = []
        for entry in self.entries:
            if entry.name.startswith(NONDETERMINISTIC_PREFIXES):
                continue
            if ignore_meta and entry.name.startswith(SANCTIONED_VARIANT_PREFIXES):
                continue
            if abs(entry.delta) <= abs_tol:
                continue
            if entry.baseline != 0 and abs(entry.relative) <= rel_tol:
                continue
            out.append(entry)
        return out


def _flatten_spans(root: SpanNode) -> dict[str, tuple[int, float]]:
    return {node.path: (node.count, node.virtual) for _d, node in root.walk()}


def diff_traces(current: Trace, baseline: Trace) -> TraceDiff:
    """Every counter/gauge/histogram/span figure that differs.

    Both traces must be complete (carry a final snapshot); aborted
    traces cannot be meaningfully compared.
    """
    for trace, label in ((current, "current"), (baseline, "baseline")):
        if trace.snapshot is None:
            raise ValueError(
                f"{label} trace {trace.path} has no final snapshot"
                + (" (aborted)" if trace.aborted else "")
            )
    entries: list[DiffEntry] = []

    def compare(kind: str, current_map: dict, baseline_map: dict) -> None:
        for name in sorted(set(current_map) | set(baseline_map)):
            a = float(baseline_map.get(name, 0))
            b = float(current_map.get(name, 0))
            if a != b:
                entries.append(DiffEntry(kind=kind, name=name, baseline=a, current=b))

    compare("counter", current.counters, baseline.counters)
    compare("gauge", current.gauges, baseline.gauges)

    current_hists = current.histograms
    baseline_hists = baseline.histograms
    for name in sorted(set(current_hists) | set(baseline_hists)):
        a = baseline_hists.get(name, {})
        b = current_hists.get(name, {})
        for figure in ("count", "total"):
            a_val = float(a.get(figure, 0))
            b_val = float(b.get(figure, 0))
            if a_val != b_val:
                entries.append(
                    DiffEntry(
                        kind="histogram",
                        name=f"{name}.{figure}",
                        baseline=a_val,
                        current=b_val,
                    )
                )
        if a.get("count") == b.get("count") and a.get("buckets") != b.get("buckets"):
            entries.append(
                DiffEntry(kind="histogram", name=f"{name}.buckets", baseline=0, current=1)
            )

    current_spans = _flatten_spans(current.span_tree())
    baseline_spans = _flatten_spans(baseline.span_tree())
    for path in sorted(set(current_spans) | set(baseline_spans)):
        a_count, a_virtual = baseline_spans.get(path, (0, 0.0))
        b_count, b_virtual = current_spans.get(path, (0, 0.0))
        if a_count != b_count:
            entries.append(
                DiffEntry(
                    kind="span",
                    name=f"{path}.count",
                    baseline=float(a_count),
                    current=float(b_count),
                )
            )
        if a_virtual != b_virtual:
            entries.append(
                DiffEntry(
                    kind="span",
                    name=f"{path}.virtual",
                    baseline=a_virtual,
                    current=b_virtual,
                )
            )
    return TraceDiff(entries=entries)


# -- resource timelines ----------------------------------------------------


@dataclass
class ResourceTimeline:
    """Per-worker resource series decoded from a trace's flight recorder.

    Built from the ``resource`` / ``heartbeat`` events emitted by
    :class:`~repro.telemetry.ResourceSampler`.  Mirrors the virtual-time
    attribution of :func:`attribute`: peak RSS rolls up per phase (the
    innermost span segment each sample was taken under) and per TGA, so
    memory cost attributes to pipeline stages the same way time does.
    """

    #: ``kind == "sample"`` resource events, trace order.
    samples: list[dict] = field(default_factory=list)
    #: ``kind == "watermark"`` budget-crossing events, trace order.
    watermarks: list[dict] = field(default_factory=list)
    #: ``heartbeat`` events, trace order.
    heartbeats: list[dict] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: Trace) -> "ResourceTimeline":
        resources = trace.events_of("resource")
        return cls(
            samples=[e for e in resources if e.get("kind") == "sample"],
            watermarks=[e for e in resources if e.get("kind") == "watermark"],
            heartbeats=trace.events_of("heartbeat"),
        )

    def __bool__(self) -> bool:
        return bool(self.samples)

    @property
    def ranks(self) -> list[str]:
        """Sampler ranks in first-seen order (``parent`` first when present)."""
        seen: list[str] = []
        for event in self.samples:
            rank = str(event.get("rank", "?"))
            if rank not in seen:
                seen.append(rank)
        if "parent" in seen:
            seen.remove("parent")
            seen.insert(0, "parent")
        return seen

    def series(self, rank: str) -> list[dict]:
        """One rank's samples in trace order."""
        return [e for e in self.samples if str(e.get("rank", "?")) == rank]

    @property
    def peak_rss_mb(self) -> float:
        """Largest RSS seen by any sampler, in MiB."""
        return max((float(e.get("rss_mb", 0.0)) for e in self.samples), default=0.0)

    def peak_by_phase(self) -> dict[str, float]:
        """Peak RSS per phase (innermost span segment), sorted by peak desc."""
        peaks: dict[str, float] = {}
        for event in self.samples:
            span = event.get("span")
            phase = span.rsplit("/", 1)[-1] if span else "(idle)"
            rss = float(event.get("rss_mb", 0.0))
            if rss > peaks.get(phase, 0.0):
                peaks[phase] = rss
        return dict(sorted(peaks.items(), key=lambda item: (-item[1], item[0])))

    def peak_by_tga(self) -> dict[str, float]:
        """Peak RSS per TGA (samples taken inside a tagged cell span)."""
        peaks: dict[str, float] = {}
        for event in self.samples:
            tga = event.get("tga")
            if tga is None:
                continue
            rss = float(event.get("rss_mb", 0.0))
            if rss > peaks.get(tga, 0.0):
                peaks[tga] = rss
        return dict(sorted(peaks.items(), key=lambda item: (-item[1], item[0])))

    def summary(self) -> dict:
        """Roll-up figures for rendering and artifacts."""
        return {
            "samples": len(self.samples),
            "ranks": self.ranks,
            "peak_rss_mb": self.peak_rss_mb,
            "watermarks": [
                {k: e.get(k) for k in ("level", "rank", "rss_mb", "budget_mb", "ratio")}
                for e in self.watermarks
            ],
            "heartbeats": len(self.heartbeats),
            "peak_by_phase": self.peak_by_phase(),
            "peak_by_tga": self.peak_by_tga(),
        }


def trace_peak_rss_mb(trace: Trace) -> float:
    """Peak RSS of a trace in MiB, preferring the merged gauge.

    The ``resource.peak_rss_mb`` gauge survives snapshot merging with
    max semantics, so it covers workers whose individual samples were
    all below the parent's; falls back to scanning sample events for
    aborted traces, and to 0.0 when the run was not sampled.
    """
    gauge = trace.gauges.get("resource.peak_rss_mb")
    if gauge is not None:
        return float(gauge)
    return ResourceTimeline.from_trace(trace).peak_rss_mb


# -- straggler analysis ----------------------------------------------------


@dataclass
class StragglerReport:
    """Per-cell wall-time ranking reconstructed from ``sched`` events.

    The executor emits one ``sched``/``kind="cell"`` event per executed
    cell (measured wall seconds) and a ``kind="summary"`` event per grid
    (workers, elapsed).  This report ranks the cells longest-first and
    compares the achieved makespan against the ``total_wall / workers``
    lower bound — the gap is what better chunking (or fewer stragglers)
    could recover.  Other ``sched`` kinds, such as the ``plan`` events
    of older traces, are ignored.
    """

    #: ``(tga, dataset, port, budget, wall_s)`` rows, longest first.
    cells: list[tuple[str, str, str, int, float]] = field(default_factory=list)
    #: Worker processes the grid ran with (1 when unrecorded).
    workers: int = 1
    #: Wall seconds the missing-cell execution actually took (the
    #: achieved makespan); 0.0 when no summary event was recorded.
    elapsed_s: float = 0.0
    #: Sum of per-cell wall seconds (serial-equivalent work).
    total_wall_s: float = 0.0

    @property
    def ideal_makespan_s(self) -> float:
        """The ``total_wall / workers`` lower bound on the makespan."""
        if self.workers < 1:
            return self.total_wall_s
        return self.total_wall_s / self.workers

    @property
    def efficiency(self) -> float:
        """``ideal / achieved`` makespan ratio in (0, 1]; 0.0 unknown.

        1.0 means the run was perfectly packed (no worker idled while a
        straggler finished); lower values quantify schedule slack.
        """
        if self.elapsed_s <= 0.0 or self.total_wall_s <= 0.0:
            return 0.0
        return min(1.0, self.ideal_makespan_s / self.elapsed_s)

    def top(self, k: int = 10) -> list[tuple[str, str, str, int, float]]:
        """The ``k`` longest-running cells."""
        return self.cells[: max(0, k)]

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "cells": len(self.cells),
            "elapsed_s": round(self.elapsed_s, 6),
            "total_wall_s": round(self.total_wall_s, 6),
            "ideal_makespan_s": round(self.ideal_makespan_s, 6),
            "efficiency": round(self.efficiency, 4),
        }


def straggler_report(trace: Trace) -> StragglerReport:
    """Rank a trace's cells by wall time and score the schedule.

    Consumes the ``sched`` execution-weather events (absent from stripped
    traces and from serial unsampled runs that never routed through the
    executor); a trace without them yields an empty report rather than
    an error, so the CLI can say "no scheduling data" cleanly.
    """
    report = StragglerReport()
    cells: list[tuple[str, str, str, int, float]] = []
    for event in trace.events_of("sched"):
        kind = event.get("kind")
        if kind == "cell":
            cells.append(
                (
                    str(event.get("tga", "?")),
                    str(event.get("dataset", "?")),
                    str(event.get("port", "?")),
                    int(event.get("budget", 0) or 0),
                    float(event.get("wall_s", 0.0) or 0.0),
                )
            )
        elif kind == "summary":
            report.workers = max(1, int(event.get("workers", 1) or 1))
            report.elapsed_s = float(event.get("elapsed_s", 0.0) or 0.0)
    cells.sort(key=lambda row: (-row[4], row[0], row[1], row[2], row[3]))
    report.cells = cells
    report.total_wall_s = sum(row[4] for row in cells)
    return report


# -- prometheus export -----------------------------------------------------

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: ``# HELP`` text per metric family.  Exact names first, then dotted
#: prefixes; families without an entry get a generic line so every
#: family is still HELP-documented (scrape-readiness for `repro serve`).
_HELP_TEXTS: dict[str, str] = {
    "resource.rss_mb": "Most recent sampled resident set size in MiB.",
    "resource.peak_rss_mb": "Peak sampled resident set size in MiB (max-merged across workers).",
    "resource.samples": "Resource flight-recorder samples taken.",
    "resource.watermark.warn": "Budget watermark warnings raised (RSS >= 80% of memory_budget_mb).",
    "resource.watermark.degrade": "Budget degrade signals raised (RSS >= 100% of memory_budget_mb).",
    "heartbeat.beats": "Worker liveness heartbeats written.",
}
_HELP_PREFIXES: tuple[tuple[str, str], ...] = (
    ("scan.", "Scanner probe pipeline figure."),
    ("tga.model_cache.", "Prepared-model cache traffic."),
    ("tga.", "Target generation algorithm figure."),
    ("dealias.", "Dealiasing verification figure."),
    ("meta.", "Harness bookkeeping figure."),
    ("fault.", "Injected-fault / recovery bookkeeping."),
    ("checkpoint.", "Checkpoint store traffic."),
    ("internet.", "Simulated-internet topology figure."),
    ("resource.", "Resource flight-recorder figure."),
    ("heartbeat.", "Worker heartbeat figure."),
)


def _metric_name(prefix: str, name: str) -> str:
    return _INVALID_METRIC_CHARS.sub("_", f"{prefix}_{name}")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _help_text(name: str) -> str:
    text = _HELP_TEXTS.get(name)
    if text is not None:
        return text
    for dotted_prefix, prefix_text in _HELP_PREFIXES:
        if name.startswith(dotted_prefix):
            return prefix_text
    return f"Telemetry figure {name}."


def to_prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a telemetry snapshot in Prometheus text exposition format.

    Counters become ``counter`` metrics, gauges ``gauge`` (including the
    ``resource.*`` flight-recorder gauges), histograms classic
    Prometheus histograms (cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``), and the span tree two families labelled by
    span path (``<prefix>_span_count`` and
    ``<prefix>_span_virtual_seconds``).  Every family carries ``# HELP``
    and ``# TYPE`` lines and label values are escaped, so the output is
    directly scrapeable.  Order is sorted — deterministic text for a
    deterministic snapshot.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(prefix, name) + "_total"
        lines.append(f"# HELP {metric} {_help_text(name)}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _metric_name(prefix, name)
        lines.append(f"# HELP {metric} {_help_text(name)}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]:g}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = _metric_name(prefix, name)
        lines.append(f"# HELP {metric} {_help_text(name)}")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, bucket in zip(data["edges"], data["buckets"]):
            cumulative += bucket
            lines.append(f'{metric}_bucket{{le="{edge:g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['total']:g}")
        lines.append(f"{metric}_count {data['count']}")
    spans = snapshot.get("spans")
    if spans and spans.get("children"):
        root = SpanNode("", "")
        for child in spans["children"]:
            root.child(child["name"]).merge(child)
        flat = _flatten_spans(root)
        count_metric = f"{prefix}_span_count"
        virtual_metric = f"{prefix}_span_virtual_seconds"
        lines.append(f"# HELP {count_metric} Completed span executions per phase path.")
        lines.append(f"# TYPE {count_metric} gauge")
        for path in sorted(flat):
            label = _escape_label_value(path)
            lines.append(f'{count_metric}{{path="{label}"}} {flat[path][0]}')
        lines.append(
            f"# HELP {virtual_metric} Virtual (rate-limiter) seconds per phase path."
        )
        lines.append(f"# TYPE {virtual_metric} gauge")
        for path in sorted(flat):
            label = _escape_label_value(path)
            lines.append(f'{virtual_metric}{{path="{label}"}} {flat[path][1]:g}')
    return "\n".join(lines) + "\n"
