"""The observatory's study queue: dedup, execution, event streaming.

A submitted :class:`~repro.api.StudySpec` becomes a :class:`StudyJob`
identified by the spec's content digest.  Three tiers answer a
submission:

1. **Memory** — an identical spec already known this process (queued,
   running, or done) is returned as-is; nothing is re-enqueued.
2. **Checkpoint** — a :class:`~repro.experiments.RunStore` under the
   service's state directory, written by an earlier run (possibly a
   previous process), already holds every cell; the job is born
   ``done`` without executing anything.
3. **Execute** — the spec is enqueued onto a bounded worker pool and
   run through :func:`~repro.experiments.run_grid` under the service's
   :class:`~repro.experiments.ExecutionPolicy`.  Completed cells stream
   into the per-digest RunStore as they finish, so a partial store
   primes (rather than restarts) the next identical submission.  A grid
   that gives up on some cells fails the job with the structured error
   code ``partial_results``, listing each failed cell.

Workers are threads: the simulation releases the GIL in its numpy core
and studies for *different* worlds run concurrently; per-run telemetry
is isolated per worker thread via ``use_telemetry``'s thread-local
activation.  Every job carries an :class:`EventLog` — an append-only,
thread-safe list of telemetry/progress events that HTTP handlers stream
as NDJSON while the run is still going.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..api.schema import StudySpec
from ..errors import (
    EmptyResultsError,
    NotFoundError,
    QueueFullError,
    ReproError,
    ShuttingDownError,
)
from ..experiments import ExecutionPolicy, RunStore, run_grid, study_digest
from ..experiments.store import result_to_dict
from ..internet import Port
from ..telemetry import Telemetry, use_telemetry
from ..telemetry.sinks import Sink
from ..tga import canonical_tga_name
from .tenants import TenantRegistry

__all__ = ["EventLog", "StudyJob", "StudyQueue"]


class EventLog:
    """Append-only event sequence, writable from worker threads and
    readable (with blocking waits) from anywhere.

    The log closes exactly once, when the producing run settles; readers
    iterating past the end then observe the close instead of waiting
    forever.
    """

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._closed = threading.Event()

    def append(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def since(self, index: int) -> list[dict]:
        """Events appended at or after ``index`` (a snapshot copy)."""
        with self._lock:
            return self._events[index:]


class _EventLogSink(Sink):
    """Telemetry sink forwarding every event into a job's EventLog."""

    def __init__(self, log: EventLog) -> None:
        self.log = log

    def handle(self, event: dict) -> None:
        self.log.append(event)


@dataclass
class StudyJob:
    """One submitted study and everything the API exposes about it."""

    id: str
    spec: StudySpec
    digest: str
    tenant: str
    seq: int
    state: str = "queued"  # queued | running | done | failed
    dedup: str = "none"  # none | memory | checkpoint
    error: dict | None = None
    #: Lossless result records in grid cell order (set when done).
    rows: list[dict] = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)

    def record(self) -> dict:
        """The study's wire representation (no result payload)."""
        data = {
            "id": self.id,
            "state": self.state,
            "digest": self.digest,
            "dedup": self.dedup,
            "tenant": self.tenant,
            "seq": self.seq,
            "spec": self.spec.to_dict(),
            "cells": self.spec.size,
        }
        if self.error is not None:
            data["error"] = self.error["error"]
        return data


def _job_id(digest: str) -> str:
    """Stable, digest-derived study id: identical specs share one."""
    return "st-" + digest.split(":", 1)[1][:16]


class StudyQueue:
    """Bounded, deduplicating scheduler in front of ``run_grid``."""

    def __init__(
        self,
        state_dir: str | Path | None = None,
        max_queue: int = 64,
        workers: int = 2,
        policy: ExecutionPolicy | None = None,
        telemetry: Telemetry | None = None,
        tenants: "TenantRegistry | None" = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        #: Admission control; ``submit`` charges it and the queue
        #: releases the tenant's slot when the study settles.
        self.tenants = tenants
        self.state_dir = Path(state_dir) if state_dir else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.max_queue = max_queue
        #: Execution mechanics for every run; checkpointing is the
        #: queue's own (per-digest stores), so the policy's checkpoint
        #: field is ignored here.
        self.policy = policy or ExecutionPolicy()
        #: Service-level counters (requests, dedup tiers, failures);
        #: exported by ``/metrics``.
        self.telemetry = telemetry or Telemetry()
        self._jobs: dict[str, StudyJob] = {}
        self._by_digest: dict[str, StudyJob] = {}
        self._lock = threading.Lock()
        self._pending = 0
        self._seq = 0
        self._shutting_down = False
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-study"
        )

    # -- submission ---------------------------------------------------------

    def submit(self, spec: StudySpec, tenant: str) -> tuple[StudyJob, bool]:
        """Admit one spec; returns ``(job, created)``.

        ``created`` is False for dedup hits (the existing or
        checkpoint-restored job is returned).  Raises
        :class:`ShuttingDownError` once :meth:`shutdown` has begun and
        :class:`QueueFullError` when the global backlog is at capacity.
        """
        if self.tenants is not None:
            self.tenants.admit(tenant)
        handed_off = False
        try:
            digest = spec.digest
            with self._lock:
                if self._shutting_down:
                    raise ShuttingDownError(
                        "service is shutting down; not accepting new studies"
                    )
                existing = self._by_digest.get(digest)
                if existing is not None and existing.state != "failed":
                    self.telemetry.count("service.dedup.memory")
                    return replace_dedup(existing, "memory"), False
                store_rows = self._restore_rows(spec, digest)
                self._seq += 1
                job = StudyJob(
                    id=_job_id(digest),
                    spec=spec,
                    digest=digest,
                    tenant=tenant,
                    seq=self._seq,
                )
                if store_rows is not None:
                    job.state = "done"
                    job.dedup = "checkpoint"
                    job.rows = store_rows
                    job.events.append(
                        {"type": "study", "id": job.id, "state": "done",
                         "dedup": "checkpoint", "cells": spec.size}
                    )
                    job.events.close()
                    self.telemetry.count("service.dedup.checkpoint")
                    self._register(job)
                    return job, True
                if self._pending >= self.max_queue:
                    self.telemetry.count("service.rejected.queue_full")
                    raise QueueFullError(
                        f"study queue is full ({self._pending}/"
                        f"{self.max_queue} pending)",
                        detail={
                            "pending": self._pending,
                            "max_queue": self.max_queue,
                        },
                    )
                self._pending += 1
                self.telemetry.count("service.submitted")
                self._register(job)
                job.events.append(
                    {"type": "study", "id": job.id, "state": "queued",
                     "cells": spec.size}
                )
            self._executor.submit(self._execute, job)
            handed_off = True
            return job, True
        finally:
            # The tenant's slot stays charged only while a study of
            # theirs is actually queued/running; dedup answers and
            # rejections release it immediately.
            if not handed_off and self.tenants is not None:
                self.tenants.release(tenant)

    def _register(self, job: StudyJob) -> None:
        self._jobs[job.id] = job
        self._by_digest[job.digest] = job

    # -- queries ------------------------------------------------------------

    def get(self, study_id: str) -> StudyJob:
        job = self._jobs.get(study_id)
        if job is None:
            raise NotFoundError(
                f"no study {study_id!r}", detail={"id": study_id}
            )
        return job

    def jobs(self) -> list[StudyJob]:
        """All jobs in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def results(self, study_id: str) -> list[dict]:
        """The finished study's lossless result records."""
        job = self.get(study_id)
        if job.state == "failed":
            raise EmptyResultsError(
                f"study {study_id} failed; no results",
                detail={"id": study_id, "state": job.state},
            )
        if job.state != "done":
            raise EmptyResultsError(
                f"study {study_id} is still {job.state}; results are not "
                "ready",
                detail={"id": study_id, "state": job.state},
            )
        return job.rows

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    # -- checkpoint tier ----------------------------------------------------

    def _store_path(self, digest: str) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / (digest.split(":", 1)[1] + ".jsonl")

    def _grid_keys(self, spec: StudySpec) -> list[tuple]:
        """RunStore keys for every cell of ``spec``, in grid order."""
        dataset_name = _DATASET_NAMES[spec.dataset]
        return [
            (canonical_tga_name(tga), dataset_name, Port(port), spec.budget)
            for port in spec.ports
            for tga in spec.tgas
        ]

    def _restore_rows(self, spec: StudySpec, digest: str) -> list[dict] | None:
        """Rows from a complete on-disk store for ``digest``, else None.

        The store header's spec digest must match — a hash-prefix
        collision or a foreign file under the same name is treated as a
        miss, not an error.
        """
        path = self._store_path(digest)
        if path is None or not path.exists():
            return None
        store = RunStore(path)
        try:
            store.load()
        except ValueError:
            return None
        if (store.header or {}).get("spec") != digest:
            return None
        keys = self._grid_keys(spec)
        if any(key not in store for key in keys):
            return None
        return [result_to_dict(store.get(key)) for key in keys]

    # -- execution ----------------------------------------------------------

    def _execute(self, job: StudyJob) -> None:
        job.state = "running"
        job.events.append({"type": "study", "id": job.id, "state": "running"})
        telemetry = Telemetry(sinks=[_EventLogSink(job.events)])
        try:
            spec = job.spec
            study = spec.build_study()
            grid = spec.grid_spec(study)

            store = self._open_store(job, study)

            def progress(done: int, total: int, run) -> None:
                job.events.append(
                    {
                        "type": "progress",
                        "done": done,
                        "total": total,
                        "tga": run.tga_name,
                        "port": run.port.value,
                        "hits": run.metrics.hits,
                    }
                )
                if store is not None:
                    key = (run.tga_name, run.dataset_name, run.port, run.budget)
                    if key not in store:
                        store.append(key, run)

            try:
                if store is not None:
                    # Partial checkpoint: prime the run cache so only
                    # missing cells execute (resume semantics).
                    for key, result in store:
                        study._run_cache[key] = result
                with use_telemetry(telemetry):
                    results = run_grid(study, grid, progress, policy=self.policy)
            finally:
                if store is not None:
                    store.close()
            if results.failed_cells:
                raise ReproError(
                    f"{len(results.failed_cells)} of {spec.size} cells failed; "
                    "the completed cells are saved for the next submission",
                    code="partial_results",
                    detail={
                        "failed": [
                            failure.describe() for failure in results.failed_cells
                        ]
                    },
                )
            job.rows = [
                result_to_dict(results.runs[key[:3]])
                for key in self._grid_keys(spec)
            ]
            job.state = "done"
            job.events.append(
                {"type": "study", "id": job.id, "state": "done",
                 "cells": len(job.rows)}
            )
            self.telemetry.count("service.completed")
        except ReproError as error:
            self._fail(job, error.to_dict())
        except Exception as error:  # noqa: BLE001 - the job is the boundary
            self._fail(
                job,
                {
                    "error": {
                        "code": "internal",
                        "message": f"{type(error).__name__}: {error}",
                        "detail": {},
                    }
                },
            )
        finally:
            job.events.close()
            with self._lock:
                self._pending -= 1
            if self.tenants is not None:
                self.tenants.release(job.tenant)

    def _fail(self, job: StudyJob, error: dict) -> None:
        job.state = "failed"
        job.error = error
        job.events.append(
            {"type": "study", "id": job.id, "state": "failed",
             "error": error["error"]}
        )
        self.telemetry.count("service.failed")

    def _open_store(self, job: StudyJob, study) -> RunStore | None:
        """The per-digest RunStore for ``job``, loaded and writable.

        The header carries both the spec digest (dedup identity) and
        the world digest (cache-priming safety); an existing store that
        fails either check is ignored rather than clobbered.
        """
        path = self._store_path(job.digest)
        if path is None:
            return None
        world = study_digest(study)
        store = RunStore(path)
        if path.exists():
            try:
                store.load()
            except ValueError:
                return None
            if (store.header or {}).get("spec") != job.digest:
                return None
            if store.config != world:
                return None
            store.begin()
            return store
        store.begin(config=world, spec=job.digest)
        return store

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and (optionally) drain workers.

        Queued and running studies complete; their checkpoints make the
        work durable for the next process.  Idempotent.
        """
        with self._lock:
            self._shutting_down = True
        self._executor.shutdown(wait=wait)
        for job in self._jobs.values():
            job.events.close()


def replace_dedup(job: StudyJob, tier: str) -> StudyJob:
    """A shallow view of ``job`` whose submission response reports the
    dedup tier that answered *this* submission (the stored job keeps
    the tier of its own birth).  Events and rows are shared, not
    copied."""
    view = replace(job)
    view.dedup = tier
    return view


#: Spec dataset choice → the SeedDataset.name recorded in run keys
#: (mirrors :class:`~repro.preprocess.DatasetConstructions` naming;
#: pinned by a service test so drift breaks loudly).
_DATASET_NAMES = {
    "active": "all-active",
    "full": "full",
    "offline": "full:dealias-offline",
    "online": "full:dealias-online",
    "joint": "full:dealias-joint",
}
