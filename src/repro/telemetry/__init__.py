"""Telemetry & tracing for scans, TGAs and experiment runs.

Usage::

    from repro.experiments import ExecutionPolicy, run_grid
    from repro.telemetry import Telemetry, JsonlSink, use_telemetry

    tel = Telemetry(sinks=[JsonlSink("trace.jsonl")])
    with use_telemetry(tel):
        run_grid(study, spec, policy=ExecutionPolicy(workers=2))
    tel.close()

Everything the subsystem records — counters, histograms, span virtual
times, JSONL event logs — is deterministic for a fixed master seed;
only wall-clock durations (kept in the in-memory span tree for console
summaries) vary between runs.  Counters under the sanctioned variant
namespaces (:data:`SANCTIONED_VARIANT_PREFIXES`: ``meta.*`` run-cache
bookkeeping, ``tga.model_cache.*`` prepared-model cache traffic,
``tga.model_store.*`` persistent-store traffic, ``fault.*``
retry/recovery weather, ``checkpoint.*`` RunStore traffic,
``resource.*`` / ``heartbeat.*`` flight-recorder samples, ``sched.*``
per-cell wall times) are
additionally allowed to depend on the execution strategy (serial vs
parallel, cold vs warm cache, fault-free vs fault-recovered, sampled
vs unsampled); all other names must not.  :func:`strip_variant_events`
removes the matching event types from a trace for cross-strategy
comparison.  See ``docs/architecture.md`` for the event schema.

The consumption layer lives alongside the producer:

* :mod:`repro.telemetry.analysis` — load traces back, attribute
  virtual time and counters per pipeline namespace / TGA, diff two
  traces, gate regressions (including the peak-RSS gate over
  :class:`ResourceTimeline`), export Prometheus text;
* :mod:`repro.telemetry.provenance` — :class:`RunManifest` run
  fingerprints emitted as the first trace event and written beside
  every exported artifact;
* :mod:`repro.telemetry.progress` — :class:`ProgressSink`, a live
  stderr progress display that leaves traces byte-identical, and
  :class:`TopSink`, the per-rank resource table behind ``repro top``;
* :mod:`repro.telemetry.resources` — the resource flight recorder:
  :class:`ResourceSampler` background RSS/CPU/cache sampling with
  budget watermarks, plus the worker heartbeat files whose CPU
  progress the executor judges for fast stall detection.

All of it is scriptable via ``repro trace {summary,attribution,diff,
check,timeline,stragglers}``, ``repro top`` and ``--progress`` /
``--sample-resources`` on the CLI.
"""

from .analysis import (
    NONDETERMINISTIC_PREFIXES,
    VARIANT_EVENT_TYPES,
    Attribution,
    DiffEntry,
    ResourceTimeline,
    StragglerReport,
    Trace,
    TraceDiff,
    attribute,
    diff_traces,
    load_trace,
    straggler_report,
    strip_variant_events,
    to_prometheus_text,
    trace_peak_rss_mb,
)
from .core import (
    DEFAULT_EDGES,
    SANCTIONED_VARIANT_PREFIXES,
    Histogram,
    SpanHandle,
    SpanNode,
    Telemetry,
    get_telemetry,
    quantile_from_buckets,
    use_telemetry,
)
from .progress import ProgressSink, TopSink
from .provenance import (
    RunManifest,
    config_digest,
    manifest_sidecar_path,
    snapshot_digest,
    write_manifest,
)
from .resources import (
    ResourceSampler,
    ResourceSpec,
    default_providers,
    gc_collections,
    read_cpu_seconds,
    read_rss_bytes,
)
from .sinks import (
    ConsoleSink,
    JsonlSink,
    MemorySink,
    Sink,
    histogram_columns,
    render_summary,
)

__all__ = [
    "DEFAULT_EDGES",
    "SANCTIONED_VARIANT_PREFIXES",
    "Histogram",
    "SpanHandle",
    "SpanNode",
    "Telemetry",
    "get_telemetry",
    "quantile_from_buckets",
    "use_telemetry",
    "Sink",
    "JsonlSink",
    "ConsoleSink",
    "MemorySink",
    "ProgressSink",
    "TopSink",
    "histogram_columns",
    "render_summary",
    "Trace",
    "load_trace",
    "Attribution",
    "attribute",
    "DiffEntry",
    "TraceDiff",
    "diff_traces",
    "ResourceTimeline",
    "trace_peak_rss_mb",
    "StragglerReport",
    "straggler_report",
    "to_prometheus_text",
    "VARIANT_EVENT_TYPES",
    "NONDETERMINISTIC_PREFIXES",
    "strip_variant_events",
    "ResourceSampler",
    "ResourceSpec",
    "default_providers",
    "gc_collections",
    "read_cpu_seconds",
    "read_rss_bytes",
    "RunManifest",
    "config_digest",
    "snapshot_digest",
    "manifest_sidecar_path",
    "write_manifest",
]
