"""Command-line interface for the reproduction.

``python -m repro <noun> <verb>`` drives the study from a shell:

* ``world describe``  — summarise the simulated world
* ``world sources``   — Table 3: seed source composition
* ``world overlap``   — Figure 1 source-overlap heatmap
* ``study run``       — one TGA × dataset × port cell
* ``study grid``      — a TGA × port grid with checkpoint support
* ``study resume``    — continue a grid from a RunStore checkpoint
* ``study rq1a`` / ``rq1b`` / ``rq2`` / ``rq3`` / ``rq4`` — pipelines
* ``study convergence`` — discovery-curve summary for one TGA
* ``study recommend`` — the RQ5 best-practice ensemble pipeline
* ``study report``    — full markdown study report
* ``serve``           — the scan-observatory HTTP service (multi-tenant
  study submissions with dedup and streaming telemetry; the protocol
  is :mod:`repro.api`'s versioned surface)
* ``trace``           — analyse recorded telemetry traces
  (``summary`` / ``attribution`` / ``diff`` / ``check`` / ``timeline`` /
  ``stragglers``)
* ``top``             — live per-rank resource table over a trace file

Common options: ``--scale {tiny,bench,small,internet}``, ``--seed``,
``--budget``, ``--port``, ``--workers``, ``--export file.csv|file.json``.
``--scale internet`` is the ~1M-AS streaming world: regions derive
lazily from the seed under a resident-AS budget, so even ``describe``
streams rather than materialising everything.

``--workers N`` spreads uncached experiment cells across N worker
processes (``--workers auto`` picks ``min(cpu_count, cells)``); results
are bit-identical to a serial run.  Forked workers inherit the parent's
warmed world instead of rebuilding it.  ``--no-model-cache`` disables
the prepared-model cache (see ``repro.tga.modelcache``) — an escape
hatch for debugging; results are bit-identical with it on or off.

Fault tolerance (``repro.experiments.ExecutionPolicy``):
``--checkpoint PATH`` appends every completed cell to a RunStore the
moment it finishes; ``--resume`` restores completed cells from that
checkpoint (after verifying its config digest) so an interrupted
campaign never recomputes finished work.  ``--cell-timeout SECONDS``
reaps cells stuck in a worker process (it cannot reap a cell run
in-process, as every cell is with ``--workers 1`` or when only one
cell is missing), ``--max-retries N`` bounds how often a
crashing/timing-out cell is retried before it is reported as failed
(``grid`` exits 3 on a partial result), and ``--inject-fault
KIND[:TGA][:PORT][:FIRES]`` injects a deterministic fault (crash/stall/
exception/busy) for testing recovery paths.

``--telemetry trace.jsonl`` writes a deterministic JSONL event trace of
the whole command (byte-identical across runs for a fixed seed, even
with ``--workers``; a ``.gz`` suffix compresses it), starting with a
``{"type": "manifest"}`` provenance line.  ``--telemetry-summary``
prints a counters + span-tree summary to stderr when the command
finishes, and ``--progress`` renders live cell/round progress with an
ETA to stderr (wall-clock stays out of the trace, which remains
byte-identical with the flag on or off).

``--sample-resources SECONDS`` starts the resource flight recorder
(:mod:`repro.telemetry.resources`): a background sampler in the parent
and in every worker emits ``resource.*`` gauge events (RSS, CPU, GC,
model-cache footprint, resident ASes) into the trace, and budget
watermarks fire against the scale's ``memory_budget_mb``.  With
``--cell-timeout`` also set, workers piggyback heartbeats recording
their CPU seconds, and a worker whose CPU stops advancing for twice
the interval is reaped as stalled instead of waiting out the timeout.
``resource.*`` / ``heartbeat.*`` are sanctioned variant namespaces, so
the rest of the trace stays byte-identical with sampling on or off.
Analyse afterwards with ``repro trace timeline`` (per-rank series +
peak attribution), ``repro top`` (a ``top(1)``-style live view while a
run writes its trace), and ``repro trace check --rss-tol`` (peak-RSS
regression gate).

``--export`` artifacts additionally get a ``<stem>.manifest.json``
sidecar recording the run's provenance (seed, scale, budget, config
hash, versions) so every row set is traceable to the run that made it.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from .dealias import DealiasMode
from .analysis import summarize_convergence
from .experiments import (
    FAULT_KINDS,
    ExecutionPolicy,
    FaultPlan,
    GridSpec,
    Study,
    run_grid,
    run_recommended_pipeline,
    run_rq1a,
    run_rq1b,
    run_rq2,
    run_rq3,
    run_rq4,
    table5,
)
from .internet import ALL_PORTS, InternetConfig, Port
from .reporting import format_ratio, render_table, write_rows
from .telemetry import (
    ConsoleSink,
    JsonlSink,
    ProgressSink,
    ResourceTimeline,
    RunManifest,
    Telemetry,
    TopSink,
    attribute,
    diff_traces,
    get_telemetry,
    histogram_columns,
    load_trace,
    straggler_report,
    trace_peak_rss_mb,
    use_telemetry,
    write_manifest,
)
from .telemetry.provenance import config_digest
from .tga import ALL_TGA_NAMES, canonical_tga_name, get_model_cache

__all__ = ["main", "build_parser"]

_SCALES = {
    "tiny": InternetConfig.tiny,
    "bench": InternetConfig.bench,
    "small": InternetConfig.small,
    "internet": InternetConfig.internet,
}


def _workers_arg(value: str) -> int | str:
    """``--workers`` accepts a positive integer or the string ``auto``."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("workers must be at least 1")
    return count


def _positive_float_arg(value: str) -> float:
    """A finite number above zero (``--cell-timeout``, ``--sample-resources``)."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not 0 < number < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value!r}")
    return number


def _nonnegative_int_arg(value: str) -> int:
    """An integer of zero or more (``--max-retries``)."""
    try:
        count = int(value)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return count


def _tga_arg(value: str) -> str:
    """A TGA name or documented alias, resolved to the canonical name."""
    try:
        return canonical_tga_name(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0]) from None


def _fault_arg(value: str) -> FaultPlan:
    """``--inject-fault KIND[:TGA][:PORT][:FIRES]`` → a FaultPlan."""
    try:
        return FaultPlan.parse(value)
    except (ValueError, KeyError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None


# -- argument groups shared by several verbs ----------------------------------


def _add_port_arg(parser: argparse.ArgumentParser, default: str = "icmp") -> None:
    parser.add_argument(
        "--port", choices=[port.value for port in ALL_PORTS], default=default
    )


def _add_dataset_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=["full", "offline", "online", "joint", "active"],
        default="active",
    )


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tgas",
        default=",".join(ALL_TGA_NAMES),
        help="comma-separated generator names (aliases accepted)",
    )
    parser.add_argument(
        "--ports",
        default="icmp",
        help="comma-separated ports to scan "
        f"({', '.join(port.value for port in ALL_PORTS)})",
    )
    _add_dataset_arg(parser)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Seeds of Scanning' (IMC 2024).",
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    parser.add_argument("--seed", type=int, default=42, help="world master seed")
    parser.add_argument("--budget", type=int, default=2_500)
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N|auto",
        help="worker processes for experiment cells (1 = serial; 'auto' = "
        "min(CPU count, cells); parallel results are bit-identical to serial)",
    )
    parser.add_argument(
        "--no-model-cache",
        action="store_true",
        help="disable the prepared-model cache (debugging escape hatch; "
        "results are bit-identical either way, prepares just get slower)",
    )
    parser.add_argument(
        "--model-store",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="persist prepared TGA models on disk so later processes warm-"
        "start instead of rebuilding (no PATH = $REPRO_MODEL_STORE or "
        "~/.cache/repro/models; entries are digest-verified, so results "
        "are bit-identical with the store hot, cold or off)",
    )
    parser.add_argument(
        "--no-model-store",
        action="store_true",
        help="force the persistent model store off, even if one is active "
        "in the process",
    )
    parser.add_argument(
        "--export", default="", help="write result rows to a .csv or .json file"
    )
    parser.add_argument(
        "--checkpoint",
        default="",
        metavar="PATH",
        help="append every completed experiment cell to this RunStore "
        "checkpoint (JSONL, crash-safe) as it finishes",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore completed cells from --checkpoint before running "
        "(the checkpoint's config digest must match this run)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=_positive_float_arg,
        default=None,
        metavar="SECONDS",
        help="reap and retry a cell stuck in a worker process longer than "
        "this (cells run in-process with --workers 1, or when only one "
        "cell is missing, cannot be reaped)",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int_arg,
        default=2,
        metavar="N",
        help="retries per crashing/timing-out cell before it is reported "
        "as failed (default: 2)",
    )
    parser.add_argument(
        "--inject-fault",
        type=_fault_arg,
        default=None,
        metavar="SPEC",
        help="deterministically inject a fault: KIND[:TGA][:PORT][:FIRES] "
        f"with KIND one of {'/'.join(FAULT_KINDS)} (recovery testing)",
    )
    parser.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="write a deterministic JSONL telemetry trace to PATH",
    )
    parser.add_argument(
        "--telemetry-summary",
        action="store_true",
        help="print a telemetry summary (counters + span tree) to stderr",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live cell/round progress with an ETA to stderr "
        "(never touches the telemetry trace)",
    )
    parser.add_argument(
        "--sample-resources",
        type=_positive_float_arg,
        default=None,
        metavar="SECONDS",
        help="sample RSS/CPU/cache gauges into the trace every SECONDS "
        "(parent and workers; with --cell-timeout also set, a worker "
        "whose CPU does not advance for 2x SECONDS is reaped as stalled; "
        "resource.* events are a sanctioned variant namespace, so "
        "results stay bit-identical)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    world = sub.add_parser(
        "world", help="inspect the simulated world (describe / sources / overlap)"
    )
    world_sub = world.add_subparsers(dest="verb", required=True, metavar="VERB")
    p = world_sub.add_parser("describe", help="summarise the simulated world")
    p.set_defaults(func=_cmd_describe, command_name="world describe")
    p = world_sub.add_parser("sources", help="seed source composition (Table 3)")
    p.set_defaults(func=_cmd_sources, command_name="world sources")
    p = world_sub.add_parser("overlap", help="source overlap heatmap (Figure 1)")
    p.add_argument("--by", choices=["ip", "as"], default="ip")
    p.set_defaults(func=_cmd_overlap, command_name="world overlap")

    study = sub.add_parser(
        "study",
        help="run studies (run / grid / resume / rq1a..rq4 / convergence / "
        "recommend / report)",
    )
    study_sub = study.add_subparsers(dest="verb", required=True, metavar="VERB")
    p = study_sub.add_parser("run", help="run one TGA cell")
    p.add_argument("tga", type=_tga_arg, choices=ALL_TGA_NAMES)
    _add_port_arg(p)
    _add_dataset_arg(p)
    p.set_defaults(func=_cmd_run, command_name="study run")
    p = study_sub.add_parser(
        "grid", help="run a TGA × port grid (checkpointable and resumable)"
    )
    _add_grid_args(p)
    p.set_defaults(func=_cmd_grid, command_name="study grid")
    p = study_sub.add_parser(
        "resume",
        help="continue a grid from a RunStore checkpoint (shorthand for "
        "'study grid' with --checkpoint PATH --resume)",
    )
    p.add_argument(
        "checkpoint",
        help="the RunStore checkpoint to restore completed cells from "
        "(and keep appending to)",
    )
    _add_grid_args(p)
    p.set_defaults(func=_cmd_study_resume, command_name="study resume")
    for name, func, help_text in (
        ("rq1a", _cmd_rq1a, "dealiasing treatments (Table 4 / Figure 3)"),
        ("rq1b", _cmd_rq1b, "active-only seeds (Figure 4)"),
        ("rq2", _cmd_rq2, "port-specific seeds (Figure 5)"),
        ("rq4", _cmd_rq4, "generator ensemble overlap (Figure 6)"),
    ):
        p = study_sub.add_parser(name, help=help_text)
        _add_port_arg(p)
        p.set_defaults(func=func, command_name=f"study {name}")
    p = study_sub.add_parser("rq3", help="source-specific seeds (Table 5)")
    p.add_argument(
        "--sources",
        default="censys,scamper,hitlist",
        help="comma-separated source names",
    )
    p.set_defaults(func=_cmd_rq3, command_name="study rq3")
    p = study_sub.add_parser(
        "convergence", help="discovery-curve summary for one TGA"
    )
    p.add_argument("tga", type=_tga_arg, choices=ALL_TGA_NAMES)
    _add_port_arg(p)
    p.set_defaults(func=_cmd_convergence, command_name="study convergence")
    p = study_sub.add_parser("recommend", help="RQ5 best-practice pipeline")
    _add_port_arg(p, default="tcp443")
    p.set_defaults(func=_cmd_recommend, command_name="study recommend")
    p = study_sub.add_parser("report", help="full markdown study report")
    p.add_argument("--out", default="", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report, command_name="study report")

    serve_parser = sub.add_parser(
        "serve",
        help="start the scan-observatory HTTP service (multi-tenant study "
        "submissions with digest dedup and streaming NDJSON telemetry)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8674,
        dest="http_port",
        help="TCP port to listen on (default: 8674; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--pool",
        type=int,
        default=2,
        metavar="N",
        help="worker threads executing studies concurrently (default: 2; "
        "the global --workers still controls per-study worker processes)",
    )
    serve_parser.add_argument(
        "--state-dir",
        default="",
        metavar="DIR",
        help="directory for per-digest RunStore checkpoints — the dedup "
        "tier that survives restarts (empty: in-memory dedup only)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="global cap on queued-or-running studies (default: 64)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="PER_S",
        help="per-tenant sustained submissions per second (default: 50)",
    )
    serve_parser.add_argument(
        "--burst",
        type=float,
        default=100.0,
        metavar="N",
        help="per-tenant submission burst size (default: 100)",
    )
    serve_parser.add_argument(
        "--max-active",
        type=int,
        default=16,
        metavar="N",
        help="per-tenant cap on concurrently queued/running studies "
        "(default: 16)",
    )
    serve_parser.set_defaults(func=_cmd_serve, command_name="serve")

    trace_parser = sub.add_parser(
        "trace",
        help="analyse telemetry traces "
        "(summary/attribution/diff/check/timeline/stragglers)",
    )
    trace_parser.set_defaults(func=_cmd_trace, command_name="trace")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="counters, histograms (p50/p90/max) and span tree"
    )
    trace_summary.add_argument("trace", help="trace file (.jsonl, .jsonl.gz or .json)")

    trace_attr = trace_sub.add_parser(
        "attribution",
        help="virtual-time and counter attribution per namespace / TGA",
    )
    trace_attr.add_argument("trace", help="trace file")
    trace_attr.add_argument("--top", type=int, default=10, help="hot spans to list")

    trace_diff = trace_sub.add_parser(
        "diff", help="structured delta between two traces (exit 1 when non-empty)"
    )
    trace_diff.add_argument("trace", help="current trace file")
    trace_diff.add_argument("baseline", help="baseline trace file")
    trace_diff.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="ignore relative drifts up to this fraction (default 0: exact)",
    )

    trace_check = trace_sub.add_parser(
        "check",
        help="regression gate: compare against a baseline, exit non-zero on drift",
    )
    trace_check.add_argument("trace", help="fresh trace file")
    trace_check.add_argument("--baseline", required=True, help="baseline trace file")
    trace_check.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="allowed relative drift per figure (default 0: zero tolerance)",
    )
    trace_check.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        help="allowed absolute drift per figure",
    )
    trace_check.add_argument(
        "--ignore-meta",
        action="store_true",
        help="ignore the sanctioned variant namespaces (meta.*, "
        "tga.model_cache.*, tga.model_store.*, fault.*, checkpoint.*, "
        "sched.*: differ legitimately between serial/parallel, "
        "cold/warm-cache and fault-free/fault-recovered executions)",
    )
    trace_check.add_argument(
        "--rss-tol",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="allowed peak-RSS growth over the baseline as a fraction "
        "(default 1.0 = current may be up to 2x baseline; only active "
        "when both traces carry resource samples)",
    )

    trace_stragglers = trace_sub.add_parser(
        "stragglers",
        help="rank cells by measured wall time and score the schedule "
        "against the total/workers makespan lower bound",
    )
    trace_stragglers.add_argument("trace", help="trace file with sched.* events")
    trace_stragglers.add_argument(
        "--top", type=int, default=10, help="slowest cells to list (default: 10)"
    )

    trace_timeline = trace_sub.add_parser(
        "timeline",
        help="per-rank resource timeline: RSS sparklines, peak "
        "attribution by phase/TGA, watermarks and heartbeats",
    )
    trace_timeline.add_argument("trace", help="trace file with resource.* events")

    top_parser = sub.add_parser(
        "top",
        help="top(1)-style per-rank resource table from a trace file "
        "(follow a live run's --telemetry output, or --once for a "
        "finished trace)",
    )
    top_parser.add_argument("trace", help="trace file (.jsonl or .jsonl.gz)")
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="render the final state once and exit (no follow loop)",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="redraw cadence while following (default: 1.0)",
    )
    top_parser.set_defaults(func=_cmd_top, command_name="top")

    return parser


def _make_study(args: argparse.Namespace) -> Study:
    config = _SCALES[args.scale](master_seed=args.seed)
    return Study(config=config, budget=args.budget, round_size=max(200, args.budget // 5))


def _make_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The ExecutionPolicy described by the global CLI flags.

    Telemetry stays out of the policy: :func:`main` activates the
    requested registry around the whole command, so pipelines inherit
    it.
    """
    return ExecutionPolicy(
        workers=args.workers,
        checkpoint=args.checkpoint or None,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
        fault_plan=args.inject_fault,
        resource_interval=args.sample_resources,
        model_store=False if args.no_model_store else args.model_store,
    )


def _dataset_for(study: Study, name: str):
    if name == "active":
        return study.constructions.all_active
    if name == "full":
        return study.constructions.full
    return study.constructions.dealias_variant(DealiasMode(name))


def _make_manifest(args: argparse.Namespace) -> RunManifest:
    """Provenance for the command described by ``args``."""
    from . import __version__

    config = _SCALES[args.scale](master_seed=args.seed)
    return RunManifest(
        master_seed=args.seed,
        scale=args.scale,
        budget=args.budget,
        config_hash=config_digest(config),
        ports=(getattr(args, "port", ""),) if getattr(args, "port", "") else (),
        workers=args.workers,
        command=getattr(args, "command_name", args.command),
        version=__version__,
    )


def _maybe_export(args: argparse.Namespace, rows: list[dict]) -> None:
    if args.export:
        write_rows(args.export, rows)
        manifest = _make_manifest(args)
        tel = get_telemetry()
        if tel.enabled:
            manifest = manifest.with_snapshot(tel.snapshot())
        sidecar = write_manifest(args.export, manifest)
        print(f"wrote {len(rows)} rows to {args.export} (manifest: {sidecar})")


def _cmd_describe(args: argparse.Namespace) -> int:
    study = _make_study(args)
    info = study.internet.describe()
    print(render_table(["property", "value"], [[k, f"{v:,}"] for k, v in info.items()]))
    return 0


def _cmd_sources(args: argparse.Namespace) -> int:
    study = _make_study(args)
    registry = study.internet.registry
    rows = []
    export_rows = []
    for dataset in study.collection:
        ases = len(dataset.ases(registry))
        rows.append([dataset.name, dataset.kind.table_tag, f"{len(dataset):,}", f"{ases:,}"])
        export_rows.append(
            {"source": dataset.name, "kind": dataset.kind.value, "unique": len(dataset), "ases": ases}
        )
    print(render_table(["Source", "Type", "Unique", "ASes"], rows, title="Seed sources"))
    _maybe_export(args, export_rows)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    dataset = _dataset_for(study, args.dataset)
    result = study.run(args.tga, dataset, port)
    row = result.as_dict()
    print(render_table(["field", "value"], [[k, str(v)] for k, v in row.items()]))
    _maybe_export(args, [row])
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    study = _make_study(args)
    try:
        ports = tuple(Port(p.strip()) for p in args.ports.split(",") if p.strip())
        tgas = tuple(
            canonical_tga_name(t.strip()) for t in args.tgas.split(",") if t.strip()
        )
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dataset = _dataset_for(study, args.dataset)
    spec = GridSpec(datasets=(dataset,), tga_names=tgas, ports=ports)
    results = run_grid(study, spec, policy=_make_policy(args))
    rows = [
        [
            run.tga_name,
            run.port.value,
            f"{run.metrics.hits:,}",
            f"{run.metrics.ases:,}",
            f"{run.metrics.aliases:,}",
        ]
        for run in results.runs.values()
    ]
    print(
        render_table(
            ["TGA", "port", "hits", "ASes", "aliases"],
            rows,
            title=(
                f"Grid on {dataset.name}: {len(results.runs)}/{spec.size} "
                "cells completed"
            ),
        )
    )
    for failure in results.failed_cells:
        print(f"FAILED: {failure.describe()}", file=sys.stderr)
    _maybe_export(args, results.to_rows())
    return 0 if results.complete else 3


def _cmd_rq1a(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = run_rq1a(study, ports=(port,), policy=_make_policy(args))
    table = result.table4(port)
    rows = [
        [tga] + [f"{table[tga][mode]:,}" for mode in DealiasMode]
        for tga in study.tga_names
    ]
    print(
        render_table(
            ["TGA", "all", "offline", "online", "joint"],
            rows,
            title=f"Aliases generated per treatment ({port.value})",
        )
    )
    _maybe_export(
        args,
        [
            {"tga": tga, **{mode.value: table[tga][mode] for mode in DealiasMode}}
            for tga in study.tga_names
        ],
    )
    return 0


def _ratio_table(title: str, ratios: dict[str, dict[str, float]], keys: Sequence[str]) -> list[dict]:
    rows = [[tga] + [format_ratio(ratios[tga][key]) for key in keys] for tga in ratios]
    print(render_table(["TGA", *keys], rows, title=title))
    return [{"tga": tga, **ratios[tga]} for tga in ratios]


def _cmd_rq1b(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = run_rq1b(study, ports=(port,), policy=_make_policy(args))
    rows = _ratio_table(
        f"Active-only vs dealiased seeds ({port.value})",
        result.figure4(port),
        ("hits", "ases"),
    )
    _maybe_export(args, rows)
    return 0


def _cmd_rq2(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = run_rq2(study, ports=(port,), policy=_make_policy(args))
    rows = _ratio_table(
        f"Port-specific vs All Active seeds ({port.value})",
        result.figure5(port),
        ("hits", "ases"),
    )
    _maybe_export(args, rows)
    return 0


def _cmd_rq4(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = run_rq4(study, ports=(port,), policy=_make_policy(args))
    steps = result.figure6_hits(port)
    rows = [
        [step.name, f"{step.new_items:,}", f"{step.cumulative:,}", f"{step.cumulative_fraction:.0%}"]
        for step in steps
    ]
    print(
        render_table(
            ["TGA", "new hits", "cumulative", "share"],
            rows,
            title=f"Cumulative unique contributions ({port.value})",
        )
    )
    _maybe_export(
        args,
        [
            {"tga": s.name, "new": s.new_items, "cumulative": s.cumulative}
            for s in steps
        ],
    )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = run_recommended_pipeline(study, port)
    rows = [
        [name, f"{run.metrics.hits:,}", f"{run.metrics.ases:,}"]
        for name, run in result.runs.items()
    ]
    rows.append(
        ["ENSEMBLE", f"{len(result.ensemble_hits):,}", f"{len(result.ensemble_ases):,}"]
    )
    print(
        render_table(
            ["TGA", "hits", "ASes"],
            rows,
            title=f"RQ5 recommended pipeline on {port.value} "
            f"(seeds: {result.seeds.name}, {len(result.seeds):,} addresses)",
        )
    )
    print(f"ensemble gain over best single: {result.ensemble_gain():.2f}x")
    _maybe_export(args, [run.as_dict() for run in result.runs.values()])
    return 0


def _cmd_rq3(args: argparse.Namespace) -> int:
    study = _make_study(args)
    sources = tuple(name.strip() for name in args.sources.split(",") if name.strip())
    result = run_rq3(
        study,
        ports=(Port.ICMP,),
        sources=sources,
        budget=max(200, args.budget // 3),
        policy=_make_policy(args),
    )
    rows = [
        [
            row.tga,
            f"{row.combined_hits:,}",
            f"{row.pooled_hits:,}",
            f"{row.combined_ases:,}",
            f"{row.pooled_ases:,}",
        ]
        for row in table5(result)
    ]
    print(
        render_table(
            ["TGA", "hits combined", "hits pooled", "ASes combined", "ASes pooled"],
            rows,
            title=f"Per-source vs pooled budget (ICMP, sources: {', '.join(sources)})",
        )
    )
    _maybe_export(
        args,
        [
            {
                "tga": row.tga,
                "combined_hits": row.combined_hits,
                "pooled_hits": row.pooled_hits,
                "combined_ases": row.combined_ases,
                "pooled_ases": row.pooled_ases,
            }
            for row in table5(result)
        ],
    )
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    from .datasets import overlap_by_as, overlap_by_ip
    from .reporting import render_heatmap

    study = _make_study(args)
    if args.by == "ip":
        matrix = overlap_by_ip(study.collection)
    else:
        matrix = overlap_by_as(study.collection, study.internet.registry)
    print(render_heatmap(matrix.cells, title=f"Source overlap by {args.by.upper()} (%)"))
    _maybe_export(
        args,
        [
            {"source": name, "overlap_with_any_other": matrix.any_other[name]}
            for name in matrix.names
        ],
    )
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    study = _make_study(args)
    port = Port(args.port)
    result = study.run(args.tga, study.constructions.all_active, port)
    summary = summarize_convergence(result)
    rows = [
        ["rounds", f"{summary.rounds:,}"],
        ["generated", f"{summary.final_generated:,}"],
        ["raw hits", f"{summary.final_raw_hits:,}"],
        ["budget to 50% yield", f"{summary.budget_to_half_yield:,}"],
        ["budget to 90% yield", f"{summary.budget_to_90pct_yield:,}"],
        ["first-round share", f"{summary.first_round_share:.0%}"],
        ["tail efficiency", f"{summary.tail_efficiency:.1%}"],
        ["saturating", "yes" if summary.is_saturating else "no"],
    ]
    print(
        render_table(
            ["property", "value"],
            rows,
            title=f"Convergence: {args.tga} on {port.value}",
        )
    )
    _maybe_export(args, [result.as_dict()])
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting import generate_report

    study = _make_study(args)
    text = generate_report(study)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _print_manifest(trace) -> None:
    if trace.manifest:
        fields = ", ".join(
            f"{key}={trace.manifest[key]}"
            for key in ("scale", "master_seed", "budget", "workers", "command")
            if key in trace.manifest
        )
        print(f"manifest: {fields}")
        if trace.manifest.get("config_hash"):
            print(f"  config: {trace.manifest['config_hash']}")
        if trace.manifest.get("snapshot_digest"):
            print(f"  snapshot: {trace.manifest['snapshot_digest']}")


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    _print_manifest(trace)
    if trace.aborted:
        print("trace: ABORTED (no final snapshot; figures reconstructed from events)")
    by_type: dict[str, int] = {}
    for event in trace.events:
        by_type[event.get("type", "?")] = by_type.get(event.get("type", "?"), 0) + 1
    print(
        f"events: {len(trace.events)} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(by_type.items()))})"
    )
    counters = trace.counters
    if counters:
        print(
            render_table(
                ["counter", "value"],
                [[name, f"{counters[name]:,}"] for name in sorted(counters)],
                title="Counters",
            )
        )
    histograms = trace.histograms
    if histograms:
        print(
            render_table(
                ["histogram", "stats"],
                [[name, histogram_columns(histograms[name])] for name in sorted(histograms)],
                title="Histograms",
            )
        )
    entries = list(trace.span_tree().walk())
    if entries:
        print("spans (count / virtual s):")
        for depth, node in entries:
            print(f"  {'  ' * depth}{node.name:<24} {node.count:>6,} {node.virtual:>10.4f}")
    return 0


def _cmd_trace_attribution(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    _print_manifest(trace)
    result = attribute(trace, top=args.top)
    shares = result.shares()
    print(
        render_table(
            ["namespace", "virtual s", "share", "counter total"],
            [
                [
                    name,
                    f"{result.virtual[name]:.4f}",
                    f"{shares[name]:.1%}",
                    f"{result.counters.get(name, 0):,}",
                ]
                for name in result.virtual
            ],
            title=f"Attribution (total virtual {result.total_virtual:.4f}s)",
        )
    )
    if result.by_tga:
        print(
            render_table(
                ["TGA", "cells", "virtual s", "hits", "probes", "rounds"],
                [
                    [
                        tga,
                        f"{entry['cells']:,}",
                        f"{entry['virtual']:.4f}",
                        f"{entry['hits']:,}",
                        f"{entry['probes']:,}",
                        f"{entry['rounds']:,}",
                    ]
                    for tga, entry in result.by_tga.items()
                ],
                title="Per-TGA",
            )
        )
    if result.hot_spans:
        print(
            render_table(
                ["span", "count", "virtual s"],
                [
                    [path, f"{count:,}", f"{virtual:.4f}"]
                    for path, count, virtual in result.hot_spans
                ],
                title=f"Hot spans (top {args.top})",
            )
        )
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    diff = diff_traces(load_trace(args.trace), load_trace(args.baseline))
    drift = diff.regressions(rel_tol=args.rel_tol)
    if not drift:
        print("traces are identical" + (" within tolerance" if args.rel_tol else ""))
        return 0
    for entry in drift:
        print(entry.describe())
    print(f"{len(drift)} figures differ")
    return 1


def _cmd_trace_check(args: argparse.Namespace) -> int:
    current = load_trace(args.trace)
    baseline = load_trace(args.baseline)
    diff = diff_traces(current, baseline)
    regressions = diff.regressions(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, ignore_meta=args.ignore_meta
    )
    failures = [f"  {entry.describe()}" for entry in regressions]
    # Peak RSS gets its own ratio gate: the figures are wall-clock-
    # dependent (excluded from the deterministic diff above), so they
    # compare as a bounded growth ratio, not exactly.  Active only when
    # both traces were recorded with --sample-resources.
    current_rss = trace_peak_rss_mb(current)
    baseline_rss = trace_peak_rss_mb(baseline)
    if current_rss > 0.0 and baseline_rss > 0.0:
        limit = baseline_rss * (1.0 + args.rss_tol)
        if current_rss > limit:
            failures.append(
                f"  peak RSS {current_rss:.1f} MiB exceeds "
                f"{limit:.1f} MiB (baseline {baseline_rss:.1f} MiB "
                f"+ {args.rss_tol:.0%} tolerance)"
            )
        else:
            print(
                f"peak RSS {current_rss:.1f} MiB within "
                f"{limit:.1f} MiB (baseline {baseline_rss:.1f} MiB)"
            )
    if not failures:
        print(f"OK: {args.trace} matches baseline {args.baseline}")
        return 0
    print(f"REGRESSION: {args.trace} drifted from baseline {args.baseline}:")
    for line in failures:
        print(line)
    return 1


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int = 40) -> str:
    """A unicode block-glyph sketch of a series, max-pooled to ``width``."""
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [
            max(values[int(i * step) : max(int((i + 1) * step), int(i * step) + 1)])
            for i in range(width)
        ]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        _SPARK_GLYPHS[min(int((v - low) / span * 8), 7)] for v in values
    )


def _cmd_trace_timeline(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    _print_manifest(trace)
    timeline = ResourceTimeline.from_trace(trace)
    if not timeline:
        print(
            "no resource samples in trace "
            "(record one with --sample-resources SECONDS)"
        )
        return 1
    print(
        f"samples: {len(timeline.samples)}  ranks: {len(timeline.ranks)}  "
        f"heartbeats: {len(timeline.heartbeats)}  "
        f"peak RSS: {timeline.peak_rss_mb:.1f} MiB"
    )
    rows = []
    for rank in timeline.ranks:
        series = timeline.series(rank)
        rss = [float(s.get("rss_mb", 0.0)) for s in series]
        cpu = max((float(s.get("cpu_s", 0.0)) for s in series), default=0.0)
        rows.append(
            [
                rank,
                f"{len(series):,}",
                f"{max(rss, default=0.0):.1f}",
                f"{cpu:.2f}",
                _sparkline(rss),
            ]
        )
    print(
        render_table(
            ["rank", "samples", "peak MiB", "CPU s", "RSS over time"],
            rows,
            title="Per-rank resource series",
        )
    )
    phases = timeline.peak_by_phase()
    if phases:
        print(
            render_table(
                ["phase", "peak MiB"],
                [[name, f"{peak:.1f}"] for name, peak in phases.items()],
                title="Peak RSS by phase",
            )
        )
    tgas = timeline.peak_by_tga()
    if tgas:
        print(
            render_table(
                ["TGA", "peak MiB"],
                [[name, f"{peak:.1f}"] for name, peak in tgas.items()],
                title="Peak RSS by TGA",
            )
        )
    for mark in timeline.watermarks:
        print(
            f"WATERMARK {mark.get('level', '?')}: rank={mark.get('rank', '?')} "
            f"rss={mark.get('rss_mb', 0)} MiB "
            f"budget={mark.get('budget_mb', 0)} MiB "
            f"ratio={mark.get('ratio', 0)}"
        )
    return 0


def _cmd_trace_stragglers(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    _print_manifest(trace)
    report = straggler_report(trace)
    if not report.cells:
        print(
            "no scheduling data in trace (sched.* events are recorded by "
            "grid runs routed through the executor: --workers > 1, "
            "--checkpoint, --cell-timeout or --inject-fault)"
        )
        return 1
    print(f"cells: {len(report.cells)}  workers: {report.workers}")
    print(
        f"total work: {report.total_wall_s:.3f}s  "
        f"ideal makespan (total/workers): {report.ideal_makespan_s:.3f}s  "
        f"achieved: {report.elapsed_s:.3f}s"
        + (
            f"  efficiency: {report.efficiency:.1%}"
            if report.efficiency
            else ""
        )
    )
    total = report.total_wall_s or 1.0
    print(
        render_table(
            ["TGA", "dataset", "port", "budget", "wall s", "share"],
            [
                [tga, dataset, port, f"{budget:,}", f"{wall:.4f}", f"{wall / total:.1%}"]
                for tga, dataset, port, budget, wall in report.top(args.top)
            ],
            title=f"Stragglers (top {min(args.top, len(report.cells))})",
        )
    )
    return 0


_TRACE_COMMANDS = {
    "summary": _cmd_trace_summary,
    "attribution": _cmd_trace_attribution,
    "diff": _cmd_trace_diff,
    "check": _cmd_trace_check,
    "timeline": _cmd_trace_timeline,
    "stragglers": _cmd_trace_stragglers,
}


def _cmd_trace(args: argparse.Namespace) -> int:
    return _TRACE_COMMANDS[args.trace_command](args)


def _cmd_top(args: argparse.Namespace) -> int:
    """``top(1)`` over a trace file's resource events.

    ``--once`` replays a finished trace and prints the final table.
    Without it the command *follows* the file like ``tail -f``, feeding
    each complete JSONL line to a :class:`TopSink` and redrawing every
    ``--interval`` seconds until the trace's final ``snapshot`` /
    ``aborted`` line arrives (note: :class:`JsonlSink` buffers, so a
    live view lags the run by the sink's flush cadence).
    """
    import json
    import time as _time

    sink = TopSink()
    if args.once:
        trace = load_trace(args.trace)
        for event in trace.events:
            sink.handle(event)
        table = sink.render()
        print(table or "no resource samples in trace")
        return 0 if table else 1
    if args.trace.endswith(".gz"):
        print("error: cannot follow a compressed trace; use --once", file=sys.stderr)
        return 2
    done = False
    partial = ""
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            while not done:
                deadline = _time.monotonic() + args.interval
                while _time.monotonic() < deadline:
                    line = partial + handle.readline()
                    if not line.endswith("\n"):
                        partial = line  # incomplete write: retry later
                        _time.sleep(min(0.05, args.interval))
                        continue
                    partial = ""
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    sink.handle(event)
                    if event.get("type") in ("snapshot", "aborted"):
                        done = True
                        break
                table = sink.render()
                if table:
                    print(f"\x1b[2J\x1b[H{table}", flush=True)
    except KeyboardInterrupt:
        pass
    table = sink.render()
    print(table or "no resource samples in trace")
    return 0 if table else 1


def _cmd_study_resume(args: argparse.Namespace) -> int:
    """``study resume CHECKPOINT``: a grid with restore-then-append."""
    args.resume = True
    return _cmd_grid(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the scan-observatory HTTP service."""
    from .service import ServiceConfig, TenantPolicy
    from .service import serve as _serve

    config = ServiceConfig(
        host=args.host,
        port=args.http_port,
        workers=args.pool,
        max_queue=args.max_queue,
        state_dir=args.state_dir or None,
        policy=_make_policy(args),
        tenant_policy=TenantPolicy(
            rate=args.rate, burst=args.burst, max_active=args.max_active
        ),
    )
    return _serve(config)


def _make_telemetry(args: argparse.Namespace) -> Telemetry | None:
    """The registry requested by --telemetry/--telemetry-summary/--progress."""
    sinks: list = []
    if args.telemetry:
        sinks.append(JsonlSink(args.telemetry))
    if args.telemetry_summary:
        sinks.append(ConsoleSink(stream=sys.stderr))
    if args.progress:
        sinks.append(ProgressSink())
    if not sinks:
        return None
    return Telemetry(sinks=sinks)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.no_model_cache:
        # Reaches worker processes too: WorkerSpec captures the setting.
        get_model_cache().enabled = False
    command = args.func
    # Trace analysis reads telemetry rather than producing it, and the
    # service owns a registry per submitted study.
    telemetry = (
        None
        if command in (_cmd_trace, _cmd_top, _cmd_serve)
        else _make_telemetry(args)
    )
    if telemetry is None:
        return command(args)
    aborted = False
    try:
        with use_telemetry(telemetry):
            # Provenance first: every trace opens with its manifest.
            telemetry.emit_event(_make_manifest(args).event())
            status = command(args)
    except BaseException:
        aborted = True
        raise
    finally:
        telemetry.close(aborted=aborted)
    if args.telemetry:
        print(f"wrote telemetry trace to {args.telemetry}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
