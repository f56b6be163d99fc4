"""Deterministic, fault-tolerant multiprocess execution of experiment grids.

The paper's study is embarrassingly parallel: every (TGA, dataset, port,
budget) cell is an independent generate-and-scan run.  This module
spreads cells across a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping results **bit-identical** to serial execution — every
stochastic decision in the system is a splitmix64 hash of
``(master_seed, ...)``, so a cell computes the same ``RunResult`` no
matter which process runs it, how often it is retried, or whether it
was restored from a checkpoint.

Key design points:

* A :class:`WorkerSpec` captures everything needed to rebuild a
  Study-equivalent world (config, budget, round size, blocklist, rate,
  generator roster).  Specs are frozen/hashable; they double as the
  fingerprint for the worker-side memo.
* Each worker process obtains the world **once** per distinct spec
  (module-global memo keyed on the spec), then runs every cell chunk it
  receives against the memoised Study.  A forked worker adopts the
  parent's warmed study as copy-on-write pages (the fork donor); a
  worker the start method did not fork rebuilds it from the spec.  The
  simulated Internet and the 12 collected sources are never
  constructed per cell.
* Completed :class:`RunResult`\\ s are merged back into the parent
  study's run cache, so downstream RQ pipelines (which overlap heavily)
  reuse them exactly as they would after a serial run.
* Execution is governed by an :class:`~repro.experiments.ExecutionPolicy`:
  a worker crash rebuilds the pool and retries the lost cells, a cell
  overrunning ``cell_timeout`` (or, with heartbeats on, whose worker's
  CPU stops advancing) has its pool reaped and is retried, and a cell
  still failing after ``max_retries`` degrades gracefully into a
  :class:`CellFailure` record instead of sinking the whole grid.  With
  ``policy.checkpoint`` set, every completed cell is appended to a
  :class:`~repro.experiments.RunStore` the moment it finishes, and
  ``policy.resume`` restores completed cells from it (digest-verified)
  so an interrupted campaign never recomputes finished work.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import tempfile
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from ..addr import Prefix
from ..internet import InternetConfig, Port
from ..scanner import Blocklist
from ..telemetry import MemorySink, Telemetry, get_telemetry, use_telemetry
from ..telemetry.resources import (
    ResourceSampler,
    ResourceSpec,
    default_providers,
    read_heartbeat,
)
from ..tga import canonical_tga_name, get_model_cache
from ..tga.modelstore import (
    ModelStore,
    get_model_store,
    resolve_model_store,
    set_model_store,
    use_model_store,
)
from .faults import FaultInjected, FaultPlan
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult
from .store import RunStore, study_digest

__all__ = [
    "Cell",
    "RunKey",
    "CellFailure",
    "WorkerSpec",
    "ParallelExecutor",
    "resolve_workers",
]

#: One grid cell: (tga name, dataset, port, budget-or-None).
Cell = tuple  # (str, SeedDataset, Port, int | None)
#: A resolved run-cache key: (tga name, dataset name, port, budget).
RunKey = tuple  # (str, str, Port, int)


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retries — the structured post-mortem
    carried by ``GridResults.failed_cells``."""

    tga: str
    dataset: str
    port: Port
    budget: int
    #: ``crash`` (worker death), ``timeout``, ``stall`` or ``exception``.
    reason: str
    #: Attempts consumed (1 + retries).
    attempts: int
    detail: str = ""

    @property
    def key(self) -> RunKey:
        """The run-cache key of the failed cell."""
        return (self.tga, self.dataset, self.port, self.budget)

    def describe(self) -> str:
        return (
            f"{self.tga} × {self.dataset} × {self.port.value} "
            f"(budget {self.budget}): {self.reason} after "
            f"{self.attempts} attempt(s)"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild a Study-equivalent world.

    Frozen and hashable: the spec itself is the fingerprint keying the
    worker-global Study memo.
    """

    config: InternetConfig
    budget: int
    round_size: int
    tga_names: tuple[str, ...]
    #: Blocklist entries as plain (value, length) pairs — cheap to pickle.
    blocklist_prefixes: tuple[tuple[int, int], ...]
    packets_per_second: float
    #: Collect telemetry in the worker and ship it back to the parent.
    telemetry: bool = False
    #: Enable the prepared-model cache in the worker (mirrors the
    #: parent's :func:`repro.tga.get_model_cache` setting, so
    #: ``--no-model-cache`` reaches every process).
    model_cache: bool = True
    #: Deterministic fault injection, threaded to every worker so crash
    #: recovery is reproducible (None in production runs).
    fault_plan: FaultPlan | None = None
    #: Resource flight-recorder configuration (``None`` = no sampler in
    #: the worker).  Execution-only — sampling observes a run, it never
    #: changes one — so it never keys the world memo.
    resources: ResourceSpec | None = None
    #: Root of the persistent prepared-model store the worker should
    #: read/write (``None`` = persistence off).  Execution-only — every
    #: stored artifact is digest-verified and bit-identical to a fresh
    #: build — so it never keys the world memo.
    model_store: str | None = None

    @classmethod
    def from_study(
        cls,
        study: Study,
        telemetry: bool = False,
        fault_plan: FaultPlan | None = None,
        resources: ResourceSpec | None = None,
        model_store: str | None = None,
    ) -> "WorkerSpec":
        """Capture a study's world-defining parameters.

        The worker's model cache mirrors the parent's
        :func:`repro.tga.get_model_cache` setting.
        """
        return cls(
            config=study.internet.config,
            budget=study.budget,
            round_size=study.round_size,
            tga_names=tuple(study.tga_names),
            blocklist_prefixes=tuple(
                (prefix.value, prefix.length)
                for prefix in study.blocklist.prefixes()
            ),
            packets_per_second=study.packets_per_second,
            telemetry=telemetry,
            model_cache=get_model_cache().enabled,
            fault_plan=fault_plan,
            resources=resources,
            model_store=model_store,
        )

    def build_study(self) -> Study:
        """Reconstruct an equivalent Study (in a worker process)."""
        return Study(
            config=self.config,
            budget=self.budget,
            round_size=self.round_size,
            tga_names=self.tga_names,
            blocklist=Blocklist(
                Prefix(value, length) for value, length in self.blocklist_prefixes
            ),
            packets_per_second=self.packets_per_second,
        )


# -- worker side -----------------------------------------------------------

#: Worker-global memo: one rebuilt Study per distinct spec per process.
_WORKER_STUDIES: dict[WorkerSpec, Study] = {}

#: Fork-inheritance donor: the parent parks its fully-warmed study here
#: (keyed by the world memo key) just before creating a pool, and forked
#: workers adopt it as copy-on-write pages instead of rebuilding the
#: world.  Spawned workers re-import the module and see ``None`` — the
#: mechanism degrades to a rebuild, never to wrong answers.
_FORK_DONOR: tuple[WorkerSpec, Study] | None = None


def _memo_key(spec: WorkerSpec) -> WorkerSpec:
    """The world identity of a spec: execution-only fields nulled out."""
    return replace(
        spec,
        telemetry=False,
        model_cache=True,
        fault_plan=None,
        resources=None,
        model_store=None,
    )


def resolve_workers(workers: int | str | None, cells: int) -> int:
    """Resolve a worker-count request against the machine and grid size.

    ``None`` means serial (1).  Integers pass through unchanged.  The
    string ``"auto"`` picks ``min(cpu_count, cells)`` — enough processes
    to cover the grid without oversubscribing the machine — and falls
    back to the serial path on single-CPU hosts, where process spawn
    overhead can only lose.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            )
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            return 1
        return max(1, min(cpus, cells))
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return workers


def _worker_study(spec: WorkerSpec) -> Study:
    # One world per *world* spec: neither telemetry capture, the
    # model-cache toggle, an attached fault plan, the resource sampler
    # nor the model store changes what gets built.
    key = _memo_key(spec)
    study = _WORKER_STUDIES.get(key)
    if study is None:
        donor = _FORK_DONOR
        if donor is not None and donor[0] == key:
            # Forked worker: adopt the parent's warmed study wholesale.
            # Its internet, datasets and probe tables are copy-on-write
            # pages of the parent's — nothing is rebuilt or pickled.
            study = donor[1]
        else:
            study = spec.build_study()
        _WORKER_STUDIES[key] = study
    return study


def _run_cell_chunk(
    spec: WorkerSpec,
    chunk: Sequence[Cell],
    attempt: int = 0,
    beat: str | None = None,
) -> list[tuple[RunKey, RunResult, float, tuple[dict, list[dict]] | None]]:
    """Run a chunk of cells in a worker.

    Returns one record per cell: ``(key, result, wall_s, capture)``.
    ``wall_s`` is the measured wall-clock seconds of the cell (straggler
    analysis).  ``capture`` is ``(telemetry_snapshot, telemetry_events)``
    when the spec requests telemetry, else ``None`` — one registry per
    *cell*, not per chunk, so the parent can merge captures in canonical
    cell order and the trace stays byte-identical to serial no matter
    how the cells were chunked.  World construction (simulated
    Internet, seed collection, the known-address pool) is warmed
    *before* the first cell registry activates, so worker telemetry
    measures exactly the cell work — matching the parent, where those
    structures are built before (or outside) the runs.

    ``attempt`` is the retry generation (0 = first try): the fault plan
    keys on it, and a retried chunk evicts its cells from the worker's
    memoised run cache first so the re-execution emits the same
    telemetry a first run would.

    ``beat`` is this dispatch's heartbeat file (``None`` = no beats);
    the sampler starts *before* world construction so the parent sees
    honest CPU progress during a CPU-heavy build, and its events attach
    to each cell's telemetry registry only once that registry exists.
    """
    get_model_cache().enabled = spec.model_cache
    set_model_store(ModelStore(spec.model_store) if spec.model_store else None)
    sampler: ResourceSampler | None = None
    res = spec.resources
    if res is not None:
        sampler = ResourceSampler(
            interval=res.interval,
            rank=f"w{os.getpid()}",
            budget_mb=res.budget_mb,
            heartbeat_path=beat,
        ).start()
    try:
        study = _worker_study(spec)
        if sampler is not None:
            sampler.providers.update(default_providers(study.internet))
        if attempt:
            # A surviving worker may have cached cells a failed attempt
            # completed before faulting mid-chunk; evict them so the retry
            # re-runs (bit-identically) with full telemetry.
            for tga_name, dataset, port, budget in chunk:
                study._run_cache.pop((tga_name, dataset.name, port, budget), None)
        plan = spec.fault_plan
        if spec.telemetry:
            study._known_addresses  # noqa: B018 — warm the world uninstrumented
        out: list[tuple[RunKey, RunResult, float, tuple[dict, list[dict]] | None]] = []
        for tga_name, dataset, port, budget in chunk:
            if plan is not None:
                plan.fire(
                    (tga_name, dataset.name, port, budget),
                    attempt,
                    allow_exit=True,
                )
            sink = MemorySink()
            telemetry = Telemetry(sinks=[sink]) if spec.telemetry else None
            if sampler is not None:
                sampler.telemetry = telemetry
            with use_telemetry(telemetry):
                start = time.perf_counter()
                result = study.run(tga_name, dataset, port, budget=budget)
                wall = time.perf_counter() - start
            capture = None
            if telemetry is not None:
                if sampler is not None:
                    # Detach before snapshotting: the registry must be
                    # quiescent while its dicts are sorted (late resource
                    # samples between cells are variant noise and dropped).
                    sampler.telemetry = None
                capture = (telemetry.snapshot(include_wall=True), list(sink.events))
            out.append(
                ((tga_name, dataset.name, port, result.budget), result, wall, capture)
            )
        return out
    finally:
        if sampler is not None:
            sampler.stop()


# -- parent side -----------------------------------------------------------

#: A worker whose CPU advances by less than this fraction of the time
#: since its last progress is idle: its sampler thread alone keeps
#: beating, but the cell's main thread is stuck.
_CPU_IDLE_FRACTION = 0.1


@dataclass(frozen=True)
class _Dispatch:
    """One chunk in flight in a worker, as the parent judges it."""

    index: int
    #: This dispatch's heartbeat file (``None`` = heartbeats off).
    beat: str | None
    #: ``time.monotonic()`` at submission, where ``cell_timeout`` counts
    #: from.
    submitted: float
    #: The worker's CPU seconds and the ``time.monotonic()`` of its last
    #: progress (``None`` until its first beat is read).
    cpu: float | None = None
    progressed: float | None = None


def _overdue(
    dispatch: _Dispatch,
    now: float,
    cpu: float | None,
    cell_timeout: float | None,
    grace: float | None,
) -> tuple[_Dispatch, tuple[str, str] | None]:
    """Judge one in-flight dispatch at ``now``.

    ``cpu`` is the CPU seconds of the dispatch's latest beat (``None``
    before its first beat, and always with heartbeats off).  Returns
    the dispatch — re-anchored at ``now`` when its CPU advanced by at
    least :data:`_CPU_IDLE_FRACTION` of the time since its last
    progress — and ``None`` or the ``(reason, detail)`` to reap it for:

    * ``timeout`` — ``cell_timeout`` has passed since submission;
    * ``stall`` — ``grace`` has passed since the last CPU progress.  A
      sleeping main thread under a live sampler thread and a frozen
      process that writes no more beats look alike here: the CPU its
      beat records stops advancing.
    """
    if cell_timeout is not None and now - dispatch.submitted >= cell_timeout:
        return dispatch, ("timeout", f"exceeded cell_timeout={cell_timeout}s")
    if cpu is None:
        return dispatch, None
    if dispatch.cpu is None:
        return replace(dispatch, cpu=cpu, progressed=now), None
    idle = now - dispatch.progressed
    advance = cpu - dispatch.cpu
    if advance >= _CPU_IDLE_FRACTION * idle:
        return replace(dispatch, cpu=cpu, progressed=now), None
    if idle >= grace:
        return dispatch, ("stall", f"CPU idle (+{advance:.3f}s over {idle:.1f}s)")
    return dispatch, None


class ParallelExecutor:
    """Runs grid cells across processes, merging into a study's run cache.

    ``max_workers`` defaults to the machine's CPU count.  Cells travel
    in contiguous grid-order chunks of ⌈cells ÷ (4 × workers)⌉ — one
    cell per chunk under ``policy.cell_timeout``, since per-cell
    timeouts need per-cell dispatch — and at most one chunk per worker
    is in flight at a time.  ``policy`` also supplies the
    fault-tolerance knobs: checkpoint/resume, retry budget, timeout and
    fault injection.  The timeout and heartbeats govern only cells run
    in worker processes: with one worker, or one missing cell,
    :meth:`_run_serial` runs cells in-process, where nothing can be
    reaped.
    """

    def __init__(
        self,
        study: Study,
        max_workers: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.study = study
        self.policy = policy or ExecutionPolicy()
        self.max_workers = max_workers or os.cpu_count() or 1
        #: Cells that exhausted their retries in the last ``run_cells``.
        self.failed_cells: list[CellFailure] = []
        #: Measured wall seconds per run key from the last ``run_cells``
        #: (executed cells only — cached/restored cells cost nothing).
        self.wall_seconds: dict[RunKey, float] = {}
        self._last_workers = 1

    def worker_spec(self) -> WorkerSpec:
        """The spec shipped to (and memoised by) worker processes."""
        resources = None
        if self.policy.resource_interval is not None:
            resources = ResourceSpec(
                interval=self.policy.resource_interval,
                budget_mb=self.study.internet.config.memory_budget_mb,
            )
        active_store = get_model_store()
        return WorkerSpec.from_study(
            self.study,
            telemetry=get_telemetry().enabled,
            fault_plan=self.policy.fault_plan,
            resources=resources,
            model_store=str(active_store.root) if active_store is not None else None,
        )

    def _chunks(self, cells: list[Cell]) -> list[list[Cell]]:
        """Split cells, in grid order, into contiguous dispatch chunks."""
        if self.policy.cell_timeout is not None:
            # Per-cell timeout semantics require per-cell dispatch: the
            # parent can only observe task completion, so a task must be
            # exactly one cell.
            return [[cell] for cell in cells]
        size = max(1, -(-len(cells) // (self.max_workers * 4)))
        return [cells[i : i + size] for i in range(0, len(cells), size)]

    # -- checkpointing -----------------------------------------------------

    def _open_store(self, resolved: dict[RunKey, Cell], tel) -> RunStore | None:
        """Open the policy's checkpoint, restoring cells on resume.

        On ``resume``, the store's recorded world digest must match the
        study (a checkpoint from a different config/seed raises) and
        every stored cell lands in the run cache, so it is never
        re-executed.  Without ``resume`` an existing checkpoint file is
        overwritten.
        """
        if self.policy.checkpoint is None:
            return None
        store = RunStore(self.policy.checkpoint)
        digest = study_digest(self.study)
        if self.policy.resume and store.path.exists():
            store.load()
            store.verify(digest)
            restored = 0
            for key in resolved:
                result = store.get(key)
                if result is not None and key not in self.study._run_cache:
                    self.study._run_cache[key] = result
                    restored += 1
            if tel.enabled:
                tel.count("checkpoint.cells_loaded", restored)
                tel.emit(
                    "checkpoint",
                    action="resume",
                    records=len(store),
                    restored=restored,
                )
        else:
            store.reset()
        store.begin(config=digest)
        return store

    def _checkpoint(
        self, store: RunStore | None, key: RunKey, run: RunResult, tel
    ) -> None:
        if store is None or key in store:
            return
        store.append(key, run)
        if tel.enabled:
            tel.count("checkpoint.cells_written")

    # -- failure bookkeeping -----------------------------------------------

    def _record_failure(
        self, cell: Cell, attempts: int, reason: str, detail: str, tel
    ) -> None:
        tga_name, dataset, port, budget = cell
        self.failed_cells.append(
            CellFailure(
                tga=tga_name,
                dataset=dataset.name,
                port=port,
                budget=budget,
                reason=reason,
                attempts=attempts,
                detail=detail,
            )
        )
        if tel.enabled:
            tel.count("fault.failed_cells")

    def _note_fault(self, reason: str, cells: int, attempt: int, tel, **extra) -> None:
        if tel.enabled:
            tel.count(f"fault.{reason}")
            tel.emit("fault", reason=reason, cells=cells, attempt=attempt, **extra)

    # -- wall-time observation ----------------------------------------------

    def _observe_cell(self, key: RunKey, wall_s: float, tel) -> None:
        """Record one executed cell's wall time in :attr:`wall_seconds`
        and the sanctioned ``sched`` event stream (the input of
        ``repro trace stragglers``)."""
        tga_name, dataset_name, port, budget = key
        self.wall_seconds[key] = wall_s
        if tel.enabled:
            tel.emit(
                "sched",
                kind="cell",
                tga=tga_name,
                dataset=dataset_name,
                port=port.value,
                budget=budget,
                wall_s=round(wall_s, 6),
            )

    # -- execution ---------------------------------------------------------

    def run_cells(
        self,
        cells: Sequence[Cell],
        progress: Callable[[int, int, RunResult], None] | None = None,
    ) -> dict[RunKey, RunResult]:
        """Run every cell, reusing and feeding the study's run cache.

        Already-cached (or checkpoint-restored) cells are returned
        immediately; missing cells are executed across the worker pool
        (serially when ``max_workers`` is 1 or only one cell is missing)
        and merged back into ``study._run_cache``.
        ``progress(done, total, result)`` fires once per cell, in
        completion order.

        Failures degrade gracefully: a cell that still fails after the
        policy's retry budget is recorded in :attr:`failed_cells` and
        simply absent from the returned mapping, which is keyed
        ``(tga, dataset_name, port, budget)`` with budgets resolved
        against the study default.
        """
        study = self.study
        policy = self.policy
        if progress is None:
            progress = policy.progress
        tel = get_telemetry()
        self.failed_cells = []
        self.wall_seconds = {}
        self._last_workers = 1
        resolved: dict[RunKey, Cell] = {}
        for tga_name, dataset, port, budget in cells:
            tga_name = canonical_tga_name(tga_name)
            budget = budget or study.budget
            resolved.setdefault(
                (tga_name, dataset.name, port, budget),
                (tga_name, dataset, port, budget),
            )
        total = len(resolved)
        # ``policy.model_store`` of None inherits whatever persistent
        # store is already active; any other value (False/True/path)
        # installs that setting for the duration of the run — parent
        # and workers alike (the worker spec carries the store root).
        if policy.model_store is None:
            store_scope = contextlib.nullcontext()
        else:
            store_scope = use_model_store(resolve_model_store(policy.model_store))
        with store_scope:
            store = self._open_store(resolved, tel)
            try:
                done = 0
                results: dict[RunKey, RunResult] = {}
                missing: list[Cell] = []
                for key, cell in resolved.items():
                    cached = study._run_cache.get(key)
                    if cached is not None:
                        results[key] = cached
                        self._checkpoint(store, key, cached, tel)
                        done += 1
                        if progress is not None:
                            progress(done, total, cached)
                    else:
                        missing.append(cell)
                if tel.enabled:
                    tel.count("meta.parallel.cells_cached", total - len(missing))
                    tel.count("meta.parallel.cells_executed", len(missing))
                if missing:
                    started = time.perf_counter()
                    if self.max_workers <= 1 or len(missing) == 1:
                        self._run_serial(
                            missing, results, store, progress, done, total, tel
                        )
                    else:
                        self._run_pool(
                            missing, results, store, progress, done, total, tel
                        )
                    if tel.enabled and self.wall_seconds:
                        # Achieved makespan vs the serial lower bound —
                        # the figure ``repro trace stragglers`` reports.
                        tel.emit(
                            "sched",
                            kind="summary",
                            cells=len(self.wall_seconds),
                            workers=self._last_workers,
                            elapsed_s=round(time.perf_counter() - started, 6),
                            total_wall_s=round(sum(self.wall_seconds.values()), 6),
                        )
            finally:
                if store is not None:
                    store.close()
        return results

    # -- serial (in-process) path ------------------------------------------

    def _run_serial(
        self, missing, results, store, progress, done, total, tel
    ) -> None:
        """Run cells in-process, with inline fault injection and retry.

        Inline execution converts every fault kind to
        :class:`FaultInjected` (a real ``os._exit`` would kill the
        caller; an un-reapable stall would hang it).  ``cell_timeout``
        does not apply here: nothing in-process can be reaped.  Genuine
        exceptions propagate — in-process failures are the caller's
        bugs, not infrastructure weather.
        """
        study = self.study
        policy = self.policy
        plan = policy.fault_plan
        self._last_workers = 1
        for cell in missing:
            tga_name, dataset, port, budget = cell
            key = (tga_name, dataset.name, port, budget)
            attempt = 0
            run = None
            wall = 0.0
            while True:
                try:
                    if plan is not None:
                        plan.fire(key, attempt, allow_exit=False)
                    start = time.perf_counter()
                    run = study.run(tga_name, dataset, port, budget=budget)
                    wall = time.perf_counter() - start
                    break
                except FaultInjected as fault:
                    self._note_fault(fault.kind, 1, attempt, tel)
                    attempt += 1
                    if attempt > policy.max_retries:
                        self._record_failure(
                            cell, attempt, fault.kind, str(fault), tel
                        )
                        break
                    if tel.enabled:
                        tel.count("fault.retries")
            if run is None:
                continue
            results[key] = run
            self._observe_cell(key, wall, tel)
            self._checkpoint(store, key, run, tel)
            done += 1
            if progress is not None:
                progress(done, total, run)

    # -- multiprocess path -------------------------------------------------

    def _run_pool(
        self, missing, results, store, progress, done, total, tel
    ) -> None:
        """Run cells across a worker pool, surviving crashes and stalls.

        Dispatch keeps at most one chunk per worker in flight and
        submits the next as one finishes, so a chunk's ``cell_timeout``
        deadline, which starts at submission, measures its own run and
        never time spent queued behind other chunks.

        Recovery model, per chunk of cells:

        * a normal exception from a chunk charges and retries just that
          chunk (the pool stays healthy, attribution is exact);
        * a dead worker (``BrokenProcessPool``) poisons the whole pool:
          the pool is rebuilt and every lost in-flight chunk moves to an
          *isolation queue* — re-run one at a time, so the next pool
          death identifies its culprit exactly.  Only the isolated
          culprit is charged; innocent bystanders retry for free, which
          keeps failure outcomes deterministic (independent of which
          chunks happened to be in flight when a worker died);
        * every in-flight dispatch is judged by :func:`_overdue` on
          every wake-up, whether or not another chunk just finished.
          One overrunning ``cell_timeout`` is charged a ``timeout``.
          With the resource sampler on (``policy.resource_interval``)
          alongside ``cell_timeout``, each dispatch also beats its CPU
          seconds into a parent-owned temp directory, and one whose CPU
          stops advancing for twice the sample interval is charged a
          ``stall`` without waiting out the ``cell_timeout`` — while
          slow-but-alive cells, still burning CPU, are left to the
          deadline.  A stuck worker cannot be cancelled, so the whole
          pool is terminated: the charged chunks are isolated, and the
          other in-flight chunks requeue for free.

        Chunks not yet submitted when a pool is reaped or breaks, and a
        chunk a broken pool refuses at submission, were never in a
        worker: they stay queued, uncharged and unisolated.
        A chunk charged more than ``max_retries`` times fails all its
        cells into :attr:`failed_cells`.  Worker telemetry is captured
        per *cell* and merged in canonical cell order — not completion,
        chunk or retry order — and a retried cell overwrites its
        capture slot, so serial, parallel and fault-recovered runs of
        the same grid all merge identical (variant-event-stripped)
        traces.
        """
        global _FORK_DONOR
        policy = self.policy
        spec = self.worker_spec()
        # Park the warmed study for forked workers to inherit; COW means
        # pool rebuilds after crashes re-inherit it for free.  Workers of
        # a spawn start method re-import this module, see no donor and
        # rebuild the world from the spec.
        _FORK_DONOR = (_memo_key(spec), self.study)
        # Heartbeats need both the sampler (the beat source) and a cell
        # timeout (per-cell dispatch, and the licence to reap): with
        # only one of the two, workers may still sample but the parent
        # never reaps on beats.
        hb_dir: str | None = None
        grace: float | None = None
        if spec.resources is not None and policy.cell_timeout is not None:
            hb_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
            grace = 2.0 * policy.resource_interval
        chunks = self._chunks(missing)
        workers = min(self.max_workers, len(chunks))
        self._last_workers = workers
        if tel.enabled:
            tel.count("meta.parallel.chunks", len(chunks))
            tel.gauge("meta.parallel.workers", workers)
        #: Worker telemetry, keyed by run key so the merge below is
        #: independent of completion, retry and chunk order.
        captured: dict[RunKey, tuple[dict, list[dict]]] = {}
        attempts = [0] * len(chunks)
        pending: deque[int] = deque(range(len(chunks)))
        suspects: deque[int] = deque()
        pool: ProcessPoolExecutor | None = None
        inflight: dict[Future, _Dispatch] = {}
        dispatches = itertools.count()

        def charge(index: int, reason: str, detail: str) -> None:
            """Bill a failure to a chunk: retry it, or fail its cells."""
            self._note_fault(reason, len(chunks[index]), attempts[index], tel)
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                for cell in chunks[index]:
                    self._record_failure(cell, attempts[index], reason, detail, tel)
                return
            if tel.enabled:
                tel.count("fault.retries")
            # Proven-dangerous chunks stay in isolation; plain
            # exceptions can rejoin the parallel queue.
            (suspects if reason in ("crash", "timeout", "stall") else pending).append(
                index
            )

        def harvest(index: int, payload) -> None:
            nonlocal done
            for key, run, wall, capture in payload:
                if capture is not None:
                    captured[key] = capture
                self._observe_cell(key, wall, tel)
                # First writer wins, matching serial memoisation.
                cached = self.study._run_cache.setdefault(key, run)
                results[key] = cached
                self._checkpoint(store, key, cached, tel)
                done += 1
                if progress is not None:
                    progress(done, total, cached)

        def submit(queue: deque[int], window: int) -> bool:
            """Dispatch chunks from ``queue`` until ``window`` are in flight.

            Returns False if the pool turned out to be broken: a worker
            died after ``wait`` last returned, and the executor refuses
            new work before it fails the lost futures.  The refused
            chunk never reached a worker, so it goes back to the head
            of ``queue`` uncharged.

            Every dispatch beats into a file of its own, so a chunk
            requeued after a reap is never judged by a dead
            predecessor's CPU counter.
            """
            while queue and len(inflight) < window:
                index = queue.popleft()
                beat = None
                if hb_dir is not None:
                    beat = os.path.join(hb_dir, f"{next(dispatches)}.hb")
                try:
                    future = pool.submit(
                        _run_cell_chunk, spec, chunks[index], attempts[index], beat
                    )
                except BrokenProcessPool:
                    queue.appendleft(index)
                    return False
                inflight[future] = _Dispatch(index, beat, time.monotonic())
            return True

        def wake_timeout() -> float | None:
            """How long ``wait`` may block before the next judgement."""
            if policy.cell_timeout is None:
                return None
            first = min(dispatch.submitted for dispatch in inflight.values())
            timeout = max(0.0, first + policy.cell_timeout - time.monotonic())
            if grace is not None:
                # Wake at least once per sample interval so a stall is
                # noticed in O(interval), not O(timeout).
                timeout = min(timeout, policy.resource_interval)
            return timeout

        def charge_overdue() -> bool:
            """Judge every in-flight dispatch; charge the overdue ones."""
            now = time.monotonic()
            overdue = []
            for future, dispatch in inflight.items():
                cpu = read_heartbeat(dispatch.beat) if dispatch.beat else None
                inflight[future], verdict = _overdue(
                    dispatch, now, cpu, policy.cell_timeout, grace
                )
                if verdict is not None:
                    overdue.append((future, verdict))
            for future, (reason, detail) in overdue:
                charge(inflight.pop(future).index, reason, detail)
            return bool(overdue)

        def reap(requeue: deque[int]) -> None:
            """Terminate the pool — a stuck worker cannot be cancelled,
            and a broken pool takes no more work — and move the
            uncharged in-flight chunks onto ``requeue``."""
            nonlocal pool
            requeue.extend(dispatch.index for dispatch in inflight.values())
            inflight.clear()
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()
            pool = None
            if tel.enabled:
                tel.count("fault.pool_rebuilds")

        try:
            while pending or suspects:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)
                # Suspects run one at a time so a pool death names its
                # culprit; otherwise the window draws on ``pending``,
                # where retried chunks rejoin it.
                isolated = bool(suspects)
                queue, window = (suspects, 1) if isolated else (pending, workers)
                broken = not submit(queue, window)
                while inflight and not broken:
                    finished, _ = wait(
                        set(inflight),
                        timeout=wake_timeout(),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        index = inflight.pop(future).index
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            # A worker died (an injected crash, the OOM
                            # killer): the pool is unusable and all
                            # in-flight work is lost.  Isolated, the
                            # culprit is known and charged; in a
                            # parallel batch it is indistinguishable
                            # from bystanders, so everything moves to
                            # the isolation queue uncharged.
                            broken = True
                            if isolated:
                                charge(index, "crash", "worker process died")
                            else:
                                suspects.append(index)
                        except Exception as error:  # noqa: BLE001 — worker-side failure
                            # Workers fire faults with ``allow_exit``,
                            # where a stall sleeps instead of raising: a
                            # stall is charged by ``_overdue``, never
                            # here.
                            charge(
                                index,
                                "exception",
                                f"{type(error).__name__}: {error}",
                            )
                        else:
                            harvest(index, payload)
                    if broken:
                        break
                    if charge_overdue():
                        # The overdue chunks are known, so the other
                        # in-flight chunks requeue with the parallel
                        # batch rather than in isolation.
                        reap(pending)
                        break
                    broken = not submit(queue, window)
                if broken:
                    if not isolated:
                        self._note_fault(
                            "crash",
                            sum(len(chunks[d.index]) for d in inflight.values()),
                            0,
                            tel,
                        )
                    reap(suspects)
        finally:
            if pool is not None:
                pool.shutdown()
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)
            _FORK_DONOR = None
        # Deterministic merge: canonical cell order — the order the
        # caller resolved the grid in, which is the order a serial run
        # executes — never completion, chunk or retry order.  Counters,
        # span trees and forwarded events (hence JSONL sinks) are
        # therefore byte-identical across runs and worker counts.
        for tga_name, dataset, port, budget in missing:
            capture = captured.get((tga_name, dataset.name, port, budget))
            if capture is None:
                continue
            snapshot, events = capture
            tel.merge_snapshot(snapshot)
            for event in events:
                tel.emit_event(event)
