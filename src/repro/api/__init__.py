"""repro.api — the versioned public surface of the reproduction.

This facade is the single sanctioned entry point for programmatic use;
everything importable here follows semantic versioning (additions bump
the minor version, breaking changes the major), while the rest of the
package is internal and free to move between releases.  The surface:

* :class:`StudySpec` — a study as pure, digestable data; the unit of
  submission, deduplication and provenance.
* :func:`run_study` — execute a spec in-process through the existing
  :class:`~repro.experiments.Study` machinery; returns a
  :class:`StudyResult`.
* :func:`submit_study` — the same study through a running
  ``repro serve`` observatory daemon (dedup, admission control,
  streaming telemetry); bit-identical results to :func:`run_study`.
* :func:`load_results` — read any RunStore checkpoint back as
  :class:`~repro.experiments.RunResult` objects.
* :class:`ServiceClient` — the full HTTP client behind
  :func:`submit_study` (polling, NDJSON event streaming, metrics).
* :class:`ExecutionPolicy` — execution mechanics (workers, checkpoint/
  resume, timeouts, fault injection); never part of result identity.
* The :class:`~repro.errors.ReproError` hierarchy — structured errors
  with stable codes, shared by the library and the HTTP wire format.

Quickstart::

    from repro.api import StudySpec, run_study

    spec = StudySpec(scale="tiny", budget=1_000, tgas=("6tree", "6gen"))
    result = run_study(spec)
    print(result.best().metrics)

API version: ``1`` (semver ``1.x``); the service reports the same
version in ``GET /healthz`` as ``api_version``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    EmptyResultsError,
    InvalidSpecError,
    NotFoundError,
    QueueFullError,
    RateLimitedError,
    ReproError,
    ShuttingDownError,
    UnknownCellError,
    UnknownMetricError,
)
from ..experiments import (
    ExecutionPolicy,
    GridResults,
    RunResult,
    run_grid,
)
from ..experiments import load_results as _load_store_results
from ..internet import Port
from .client import ServiceClient
from .schema import DATASETS, SCALES, StudySpec

__all__ = [
    "API_VERSION",
    "StudySpec",
    "StudyResult",
    "run_study",
    "submit_study",
    "load_results",
    "ServiceClient",
    "ExecutionPolicy",
    "RunResult",
    "Port",
    "SCALES",
    "DATASETS",
    "ReproError",
    "InvalidSpecError",
    "UnknownMetricError",
    "UnknownCellError",
    "EmptyResultsError",
    "NotFoundError",
    "RateLimitedError",
    "QueueFullError",
    "ShuttingDownError",
]

#: The protocol/surface version; the service echoes it in ``/healthz``.
API_VERSION = "1"


@dataclass(frozen=True)
class StudyResult:
    """A completed study: the spec that defined it, its digest, and the
    grid of runs it produced.

    ``results`` is the library's full :class:`GridResults` — every
    access pattern (``get``/``best``/``by_tga``/``to_rows``) works the
    same whether the study ran in-process or came back from the
    observatory service.
    """

    spec: StudySpec
    digest: str
    results: GridResults

    @property
    def runs(self) -> dict:
        return self.results.runs

    def get(self, tga: str, port: Port | str) -> RunResult:
        """The run for one cell (the spec has exactly one dataset)."""
        if isinstance(port, str):
            port = Port(port)
        dataset_name = next(iter(self.results.spec.datasets)).name
        return self.results.get(tga, dataset_name, port)

    def best(self, metric: str = "hits", port: Port | None = None) -> RunResult:
        return self.results.best(metric, port=port)

    def to_rows(self) -> list[dict]:
        return self.results.to_rows()


def run_study(
    spec: StudySpec,
    *,
    policy: ExecutionPolicy | None = None,
) -> StudyResult:
    """Execute ``spec`` in-process and return its :class:`StudyResult`.

    ``policy`` tunes execution mechanics only; results are bit-identical
    for a given spec under any policy (that invariant is what makes the
    service's dedup-by-digest sound).
    """
    study = spec.build_study()
    grid = spec.grid_spec(study)
    results = run_grid(study, grid, policy=policy)
    return StudyResult(spec=spec, digest=spec.digest, results=results)


def submit_study(
    spec: StudySpec,
    base_url: str,
    *,
    tenant: str | None = None,
    wait: bool = True,
    timeout: float = 120.0,
) -> dict:
    """Submit ``spec`` to a running observatory service.

    Returns the study record (``id``, ``state``, ``digest``,
    ``dedup``, ...).  With ``wait=True`` (default) the call polls until
    the study completes and the record carries the terminal state; fetch
    rows with :meth:`ServiceClient.results` or stream live progress with
    :meth:`ServiceClient.events`.
    """
    with ServiceClient(base_url, tenant=tenant) as client:
        record = client.submit(spec)
        if wait and record["state"] not in ("done", "failed"):
            record = client.wait(record["id"], timeout=timeout)
        return record


def load_results(path) -> list[RunResult]:
    """Load a RunStore checkpoint (service-side or local) back into
    :class:`RunResult` objects (format 3; raises ``ValueError`` for any
    other format)."""
    return _load_store_results(path)
