"""Declarative experiment grids.

The RQ pipelines hard-code the paper's specific comparisons; this
module provides the general form for users running their own studies: a
:class:`GridSpec` names the datasets, generators, ports and budget, and
:func:`run_grid` executes every cell through a Study (sharing its run
cache), reporting progress and returning an indexable result set that
can be persisted with :mod:`repro.experiments.store`.  Execution
mechanics — workers, checkpointing, retries, fault injection — are
governed by an :class:`~repro.experiments.ExecutionPolicy`.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from ..datasets import SeedDataset
from ..errors import EmptyResultsError, UnknownCellError, UnknownMetricError
from ..internet import ALL_PORTS, Port
from ..metrics import MetricSet
from ..telemetry import get_telemetry, use_telemetry
from ..tga import (
    ALL_TGA_NAMES,
    canonical_tga_name,
    resolve_model_store,
    use_model_store,
)
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult

__all__ = ["GridSpec", "GridResults", "run_grid"]


@dataclass(frozen=True)
class GridSpec:
    """A TGA × dataset × port experiment grid."""

    datasets: tuple[SeedDataset, ...]
    tga_names: tuple[str, ...] = ALL_TGA_NAMES
    ports: tuple[Port, ...] = ALL_PORTS
    budget: int | None = None  # None = the Study default

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("a grid needs at least one dataset")
        if not self.tga_names:
            raise ValueError("a grid needs at least one generator")
        if not self.ports:
            raise ValueError("a grid needs at least one port")
        names = [dataset.name for dataset in self.datasets]
        if len(names) != len(set(names)):
            raise ValueError("dataset names must be unique within a grid")

    @property
    def size(self) -> int:
        """Number of cells in the grid."""
        return len(self.datasets) * len(self.tga_names) * len(self.ports)

    def cells(self) -> Iterator[tuple[str, SeedDataset, Port]]:
        """Iterate (tga, dataset, port) cells in a stable order."""
        for dataset in self.datasets:
            for port in self.ports:
                for tga in self.tga_names:
                    yield tga, dataset, port


@dataclass
class GridResults:
    """Results of a grid run, indexable along every axis.

    Runs are keyed by the generator's **canonical** registry name;
    :meth:`get` accepts aliases (``entropy_ip`` → ``eip``) so callers
    can use whichever spelling the spec did.  A fault-tolerant run that
    gave up on some cells records them in :attr:`failed_cells`; those
    cells are simply absent from :attr:`runs`.
    """

    spec: GridSpec
    runs: dict[tuple[str, str, Port], RunResult] = field(default_factory=dict)
    #: Cells that exhausted their retries (``CellFailure`` records) —
    #: empty for a fully successful run.
    failed_cells: tuple = ()
    #: Measured wall-clock seconds per executed cell, keyed like
    #: :attr:`runs`.  Observation, not result: cells served from the
    #: run cache (or a resumed checkpoint) are absent, and the values
    #: never participate in result identity — they feed post-hoc
    #: straggler analysis.
    wall_seconds: dict[tuple[str, str, Port], float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Did every cell of the spec produce a result?"""
        return not self.failed_cells and len(self.runs) >= self.spec.size

    def get(self, tga: str, dataset_name: str, port: Port) -> RunResult:
        """The run for one cell; raises :class:`UnknownCellError` (a
        ``KeyError`` subclass) naming the cell with structured detail.

        ``tga`` may be an alias; it is resolved to the canonical
        registry name before lookup.
        """
        requested = tga
        try:
            tga = canonical_tga_name(tga)
        except KeyError as error:
            raise UnknownCellError(
                f"no run for cell ({tga!r}, {dataset_name!r}, "
                f"{port.value!r}): {error.args[0]}",
                detail={
                    "tga": requested,
                    "dataset": dataset_name,
                    "port": port.value,
                    "reason": "unknown_tga",
                },
            ) from None
        key = (tga, dataset_name, port)
        try:
            return self.runs[key]
        except KeyError:
            known = sorted(f"{t}×{d}×{p.value}" for t, d, p in self.runs)
            raise UnknownCellError(
                f"no run for cell ({tga!r}, {dataset_name!r}, {port.value!r});"
                f" grid holds: {', '.join(known) or '(nothing)'}",
                detail={
                    "tga": tga,
                    "dataset": dataset_name,
                    "port": port.value,
                    "reason": "missing_cell",
                    "known_cells": known,
                },
            ) from None

    def by_tga(self, tga: str) -> list[RunResult]:
        tga = canonical_tga_name(tga)
        return [run for (name, _, _), run in self.runs.items() if name == tga]

    def by_dataset(self, dataset_name: str) -> list[RunResult]:
        return [
            run for (_, name, _), run in self.runs.items() if name == dataset_name
        ]

    def by_port(self, port: Port) -> list[RunResult]:
        return [run for (_, _, p), run in self.runs.items() if p == port]

    def best(self, metric: str = "hits", port: Port | None = None) -> RunResult:
        """The single best cell by a metric (optionally on one port)."""
        if metric not in MetricSet.METRIC_NAMES:
            raise UnknownMetricError(
                f"unknown metric {metric!r}; valid metrics: "
                f"{', '.join(MetricSet.METRIC_NAMES)}",
                detail={"metric": metric, "valid": list(MetricSet.METRIC_NAMES)},
            )
        candidates = self.by_port(port) if port else list(self.runs.values())
        if not candidates:
            raise EmptyResultsError(
                "empty grid results",
                detail={"port": port.value if port else None, "metric": metric},
            )
        return max(candidates, key=lambda run: run.metrics.metric(metric))

    def to_rows(self) -> list[dict]:
        """Flat summary rows (for CSV/JSON export)."""
        return [run.as_dict() for run in self.runs.values()]


def run_grid(
    study: Study,
    spec: GridSpec,
    progress: Callable[[int, int, RunResult], None] | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> GridResults:
    """Execute every cell of a grid through the study's memoised runner.

    ``policy`` governs execution mechanics — worker processes,
    checkpoint/resume, per-cell timeout, retry budget and fault
    injection; see :class:`~repro.experiments.ExecutionPolicy`.

    ``progress(done, total, last_result)`` is invoked after each cell —
    in cell order when running serially, in completion order when
    workers spread uncached cells across processes.  Parallel results
    are bit-identical to serial ones, and worker-process telemetry is
    merged back in canonical cell order, so a fixed-seed grid
    writes a byte-identical JSONL event log no matter how cells were
    scheduled.

    With ``policy.checkpoint`` set, completed cells stream into a
    :class:`~repro.experiments.RunStore` as they finish and
    ``policy.resume`` skips every cell the checkpoint already holds.  A
    cell that keeps failing past ``policy.max_retries`` lands in
    ``GridResults.failed_cells`` instead of sinking the grid.
    """
    from .parallel import ParallelExecutor, resolve_workers

    policy = policy or ExecutionPolicy()
    if progress is None:
        progress = policy.progress
    with use_telemetry(policy.telemetry):
        results = GridResults(spec=spec)
        total = spec.size
        workers_n = resolve_workers(policy.workers, total)
        tel = get_telemetry()
        if tel.enabled:
            # Deterministic start-of-grid event: totals for progress
            # displays (``pending`` excludes already-cached cells).
            pending = sum(
                1
                for tga, dataset, port in spec.cells()
                if (
                    canonical_tga_name(tga),
                    dataset.name,
                    port,
                    spec.budget or study.budget,
                )
                not in study._run_cache
            )
            tel.emit("grid", cells=total, pending=pending)
        sampler = None
        if tel.enabled and policy.resource_interval is not None:
            from ..telemetry.resources import ResourceSampler, default_providers

            sampler = ResourceSampler(
                telemetry=tel,
                interval=policy.resource_interval,
                rank="parent",
                providers=default_providers(study.internet),
                budget_mb=study.internet.config.memory_budget_mb,
            ).start()
        # ``policy.model_store`` of None inherits whatever persistent
        # store is already active; any other value (False/True/path)
        # installs that setting for the duration of the grid so the
        # serial fast path warms the same disk tier as the executor.
        if policy.model_store is None:
            store_scope = contextlib.nullcontext()
        else:
            store_scope = use_model_store(resolve_model_store(policy.model_store))
        try:
            with store_scope, tel.span("grid", cells=total):
                if workers_n > 1 or policy.resilient:
                    executor = ParallelExecutor(
                        study, max_workers=workers_n, policy=policy
                    )
                    run_map = executor.run_cells(
                        [
                            (tga, dataset, port, spec.budget)
                            for tga, dataset, port in spec.cells()
                        ],
                        progress=progress,
                    )
                    budget = spec.budget or study.budget
                    for tga, dataset, port in spec.cells():
                        key = (canonical_tga_name(tga), dataset.name, port, budget)
                        run = run_map.get(key)
                        if run is not None:
                            results.runs[key[:3]] = run
                        wall = executor.wall_seconds.get(key)
                        if wall is not None:
                            results.wall_seconds[key[:3]] = wall
                    results.failed_cells = tuple(executor.failed_cells)
                    return results
                budget = spec.budget or study.budget
                for index, (tga, dataset, port) in enumerate(spec.cells(), start=1):
                    key = (canonical_tga_name(tga), dataset.name, port, budget)
                    fresh = key not in study._run_cache
                    start = time.perf_counter()
                    run = study.run(tga, dataset, port, budget=spec.budget)
                    wall = time.perf_counter() - start
                    results.runs[key[:3]] = run
                    if fresh:
                        # Only genuinely-executed cells are observations
                        # (a run-cache hit would look free).
                        results.wall_seconds[key[:3]] = wall
                    if progress is not None:
                        progress(index, total, run)
                return results
        finally:
            if sampler is not None:
                # Stopped before the registry is snapshotted/closed by
                # the caller; the final synchronous sample still lands
                # inside the active sink.
                sampler.stop()
