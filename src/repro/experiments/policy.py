"""The unified execution-control surface for experiment pipelines.

Grid execution grew knobs one at a time — ``workers=``, ``parallel=``,
``chunksize=``, ``telemetry=`` — scattered across ``run_grid``,
:meth:`Study.run_matrix`, :meth:`Study.precompute` and the RQ1–RQ4
pipelines.  Fault tolerance (checkpointing, retries, timeouts, fault
injection) would have doubled that sprawl, so every entry point takes
one frozen :class:`ExecutionPolicy` instead.  The legacy kwargs went
through a deprecation cycle and now **hard-error**:
:func:`coalesce_policy` raises ``TypeError`` naming the offending
argument and the ``policy=`` replacement.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from ..telemetry import Telemetry
from .faults import FaultPlan

__all__ = ["ExecutionPolicy", "coalesce_policy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything controlling *how* cells execute (never *what* runs).

    A policy is pure mechanism: two runs of the same cells under
    different policies produce bit-identical ``RunResult``\\ s (faults
    permitting) — only scheduling, persistence and observability change.
    """

    #: Worker processes: ``None``/1 = serial, ``"auto"`` = min(CPUs, cells).
    workers: int | str | None = None
    #: Cells per inter-process task (``None`` = ~4 chunks per worker).
    chunksize: int | None = None
    #: Prepared-model cache in workers (``None`` = inherit the global
    #: :func:`repro.tga.get_model_cache` setting).
    model_cache: bool | None = None
    #: Registry to activate for the duration of the run (``None`` =
    #: whatever is already active).
    telemetry: Telemetry | None = None
    #: ``progress(done, total, result)`` callback, fired per cell.
    progress: Callable | None = None
    #: Checkpoint path (:class:`~repro.experiments.RunStore`, format v3):
    #: every completed cell is appended as it finishes, with its
    #: measured wall seconds (cost-model training data on resume).
    checkpoint: str | Path | None = None
    #: Load the checkpoint first and skip every cell it already holds
    #: (the store's config digest must match the study).
    resume: bool = False
    #: Seconds a single cell may run in a worker before it is reaped
    #: and retried (``None`` = no timeout; implies one cell per task).
    cell_timeout: float | None = None
    #: How many times a failing cell is retried before it is reported
    #: in ``GridResults.failed_cells``.
    max_retries: int = 2
    #: Deterministic fault injection (tests / chaos drills).
    fault_plan: FaultPlan | None = None
    #: Seconds between resource flight-recorder samples (``None`` = the
    #: sampler is off).  When set, a background
    #: :class:`~repro.telemetry.ResourceSampler` runs in the parent and
    #: in every worker, emitting sanctioned ``resource.*`` /
    #: ``heartbeat.*`` telemetry; grid results and stripped traces are
    #: bit-identical with sampling on or off.
    resource_interval: float | None = None
    #: Seconds of heartbeat silence / CPU idleness before a worker cell
    #: is declared stalled and retried without waiting out the whole
    #: ``cell_timeout`` (``None`` = 2x ``resource_interval``).  Only
    #: meaningful when both ``resource_interval`` and ``cell_timeout``
    #: are set.
    heartbeat_grace: float | None = None
    #: Persistent prepared-model store (disk tier under the in-memory
    #: model cache): ``None`` = inherit whatever store is already active
    #: in the process, ``False`` = force persistence off, ``True`` = the
    #: default root (``$REPRO_MODEL_STORE`` or ``~/.cache/repro/models``),
    #: a path = a store rooted there.  Purely an execution knob — every
    #: stored artifact is digest-verified and rebuilt on mismatch, so
    #: results are bit-identical with the store hot, cold or off.
    model_store: str | Path | bool | None = None
    #: Cell-to-chunk scheduling strategy: ``"cost"`` (default) orders
    #: cells longest-predicted-first and splits the tail into
    #: single-cell chunks workers claim dynamically; ``"static"`` keeps
    #: the legacy contiguous ~4-chunks-per-worker split.  Results and
    #: stripped traces are bit-identical under either scheduler.
    scheduler: str = "cost"

    def __post_init__(self) -> None:
        if self.workers is not None and not isinstance(self.workers, int):
            if self.workers != "auto":
                raise ValueError(
                    f"workers must be a positive int or 'auto', got {self.workers!r}"
                )
        if isinstance(self.workers, int) and self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.resource_interval is not None and self.resource_interval <= 0:
            raise ValueError("resource_interval must be positive")
        if self.heartbeat_grace is not None:
            if self.resource_interval is None:
                raise ValueError("heartbeat_grace requires resource_interval")
            if self.heartbeat_grace <= 0:
                raise ValueError("heartbeat_grace must be positive")
        if self.scheduler not in ("cost", "static"):
            raise ValueError(
                f"scheduler must be 'cost' or 'static'; got {self.scheduler!r}"
            )

    @property
    def resolved_heartbeat_grace(self) -> float | None:
        """The effective stall-declaration window (``None`` = sampler off)."""
        if self.resource_interval is None:
            return None
        if self.heartbeat_grace is not None:
            return self.heartbeat_grace
        return 2.0 * self.resource_interval

    @property
    def resilient(self) -> bool:
        """Does this policy need the fault-tolerant executor path?

        Checkpointing, fault injection and timeouts all require routing
        through :class:`~repro.experiments.ParallelExecutor` even when
        the run is serial; a plain policy keeps the legacy fast path.
        """
        return (
            self.checkpoint is not None
            or self.fault_plan is not None
            or self.cell_timeout is not None
        )


#: Legacy kwarg → the policy field that replaced it (``parallel`` was
#: run_matrix's spelling).  Kept so the hard error can name the exact
#: migration instead of a generic "unexpected keyword argument".
_LEGACY_FIELDS = {
    "workers": "workers",
    "parallel": "workers",
    "chunksize": "chunksize",
    "telemetry": "telemetry",
}


def coalesce_policy(
    policy: ExecutionPolicy | None,
    api: str,
    progress: Callable | None = None,
    **legacy,
) -> ExecutionPolicy:
    """Resolve the effective :class:`ExecutionPolicy` for an entry point.

    The deprecation cycle for the scattered execution kwargs is over:
    passing any of the removed names (``workers``/``parallel``/
    ``chunksize``/``telemetry``) — or anything else unexpected — raises
    ``TypeError`` with the ``policy=`` migration spelled out.
    ``progress`` still folds silently (it is a per-call callback, not
    configuration).
    """
    if legacy:
        removed = sorted(name for name in legacy if name in _LEGACY_FIELDS)
        unknown = sorted(name for name in legacy if name not in _LEGACY_FIELDS)
        parts = []
        if removed:
            hint = ", ".join(
                f"{name}= → ExecutionPolicy({_LEGACY_FIELDS[name]}=...)"
                for name in removed
            )
            parts.append(
                f"the {', '.join(removed)} argument(s) were removed; "
                f"pass policy=ExecutionPolicy(...) instead ({hint})"
            )
        if unknown:
            parts.append(f"unexpected arguments {unknown}")
        raise TypeError(f"{api}: " + "; ".join(parts))
    merged = policy if policy is not None else ExecutionPolicy()
    if progress is not None:
        merged = replace(merged, progress=progress)
    return merged
