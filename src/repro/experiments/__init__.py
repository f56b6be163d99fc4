"""Experiment orchestration: the Study context and the RQ1–RQ4 pipelines."""

from .faults import FAULT_KINDS, FaultInjected, FaultPlan, FaultRule
from .grid import GridResults, GridSpec, run_grid
from .harness import Study
from .parallel import CellFailure, ParallelExecutor, WorkerSpec
from .policy import ExecutionPolicy
from .recommendations import (
    RECOMMENDED_ENSEMBLE,
    EnsembleResult,
    recommended_seeds,
    run_recommended_pipeline,
)
from .results import RunResult
from .targeting import TargetedResult, run_targeted, targeted_seeds
from .rq1 import DEALIAS_MODES, RQ1aResult, RQ1bResult, run_rq1a, run_rq1b
from .rq2 import CrossPortResult, RQ2Result, run_cross_port, run_rq2
from .rq3 import RQ3Result, Table5Row, run_rq3, table5, table6
from .rq4 import RQ4Result, run_rq4
from .runner import run_generation
from .replication import ReplicatedRatio, replicate_ratio
from .store import RunStore, dump_results, load_results, study_digest

__all__ = [
    "Study",
    "RunResult",
    "run_generation",
    "DEALIAS_MODES",
    "RQ1aResult",
    "RQ1bResult",
    "run_rq1a",
    "run_rq1b",
    "RQ2Result",
    "CrossPortResult",
    "run_rq2",
    "run_cross_port",
    "RQ3Result",
    "Table5Row",
    "run_rq3",
    "table5",
    "table6",
    "RQ4Result",
    "run_rq4",
    "EnsembleResult",
    "RECOMMENDED_ENSEMBLE",
    "recommended_seeds",
    "run_recommended_pipeline",
    "TargetedResult",
    "targeted_seeds",
    "run_targeted",
    "dump_results",
    "load_results",
    "RunStore",
    "study_digest",
    "ReplicatedRatio",
    "replicate_ratio",
    "GridSpec",
    "GridResults",
    "run_grid",
    "ParallelExecutor",
    "WorkerSpec",
    "ExecutionPolicy",
    "CellFailure",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultInjected",
]
