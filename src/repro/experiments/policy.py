"""The unified execution-control surface for experiment pipelines.

Every entry point that runs cells — ``run_grid``,
:meth:`Study.run_matrix`, :meth:`Study.precompute` and the RQ1–RQ4
pipelines — takes one frozen :class:`ExecutionPolicy` as ``policy=``
(``None`` means the default policy): workers, telemetry, progress,
checkpointing, retries, timeouts and fault injection all live there,
never in per-function keyword arguments.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..telemetry import Telemetry
from .faults import FaultPlan

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything controlling *how* cells execute (never *what* runs).

    A policy is pure mechanism: two runs of the same cells under
    different policies produce bit-identical ``RunResult``\\ s (faults
    permitting) — only scheduling, persistence and observability change.
    """

    #: Worker processes: ``None``/1 = serial, ``"auto"`` = min(CPUs, cells).
    workers: int | str | None = None
    #: Registry to activate for the duration of the run (``None`` =
    #: whatever is already active).
    telemetry: Telemetry | None = None
    #: ``progress(done, total, result)`` callback, fired per cell.
    progress: Callable | None = None
    #: Checkpoint path (:class:`~repro.experiments.RunStore`, format 3):
    #: every completed cell is appended as it finishes.
    checkpoint: str | Path | None = None
    #: Load the checkpoint first and skip every cell it already holds
    #: (the store's config digest must match the study).
    resume: bool = False
    #: Seconds a single cell may run in a worker before it is reaped
    #: and retried (``None`` = no timeout; implies one cell per task).
    #: Applies only to cells run in worker processes: with ``workers``
    #: 1, or one missing cell, cells run in-process, where nothing can
    #: be reaped.
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
    #: bit-identical with sampling on or off.  Together with
    #: ``cell_timeout`` it also arms heartbeats: a worker cell whose CPU
    #: does not advance for twice this interval is reaped as stalled
    #: and retried without waiting out the timeout.
    resource_interval: float | None = None
    #: Persistent prepared-model store (disk tier under the in-memory
    #: model cache): ``None`` = inherit whatever store is already active
    #: in the process, ``False`` = force persistence off, ``True`` = the
    #: default root (``$REPRO_MODEL_STORE`` or ``~/.cache/repro/models``),
    #: a path = a store rooted there.  Purely an execution knob — every
    #: stored artifact is digest-verified and rebuilt on mismatch, so
    #: results are bit-identical with the store hot, cold or off.
    model_store: str | Path | bool | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and not isinstance(self.workers, int):
            if self.workers != "auto":
                raise ValueError(
                    f"workers must be a positive int or 'auto', got {self.workers!r}"
                )
        if isinstance(self.workers, int) and self.workers < 1:
            raise ValueError("workers must be at least 1")
        # ``not 0 < x < inf`` also refuses nan, which no comparison passes.
        if self.cell_timeout is not None and not 0 < self.cell_timeout < math.inf:
            raise ValueError("cell_timeout must be positive and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.resource_interval is not None and not (
            0 < self.resource_interval < math.inf
        ):
            raise ValueError("resource_interval must be positive and finite")

    @property
    def resilient(self) -> bool:
        """Does this policy need the fault-tolerant executor path?

        Checkpointing, fault injection and timeouts all require routing
        through :class:`~repro.experiments.ParallelExecutor` even when
        the run is serial; a plain serial policy runs cells in-process
        through :meth:`Study.run`.
        """
        return (
            self.checkpoint is not None
            or self.fault_plan is not None
            or self.cell_timeout is not None
        )
