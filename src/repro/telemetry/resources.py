"""The resource flight recorder: continuous RSS/CPU/cache sampling.

Long-running measurement campaigns die of resource drift, not logic
bugs — a model cache that grows past the memory budget, a worker stuck
in a syscall, a lazy topology that quietly stopped evicting.  This
module gives every run a background :class:`ResourceSampler` thread (one
in the parent, one per worker process, wired through
``WorkerSpec.resources``) that periodically records

* RSS and CPU time — read from ``/proc/self`` on Linux with a
  ``resource.getrusage`` fallback everywhere else (**no psutil
  dependency**);
* garbage-collector collections (``gc.get_stats``);
* pluggable *providers*: prepared-model cache entries/cost and the lazy
  topology's resident-AS count (see :func:`default_providers`).

Each sample lands in the trace stream as a ``{"type": "resource"}``
event tagged with the sampler's rank and the innermost open span (plus
its ``tga`` attribute when one is set), so resource cost attributes to
phases exactly like virtual time does.  Samples also maintain the
``resource.*`` gauges/counters in the live registry and raise
structured **budget watermark** events against the world's
``memory_budget_mb``: a ``warn`` at 80 % and a ``degrade`` signal at
100 % (the sampler's :attr:`~ResourceSampler.degraded` flag latches so
consumers can shed load).

**Determinism contract** — wall-clock and RSS are inherently
non-reproducible, so everything here lives in the sanctioned variant
namespaces ``resource.*`` / ``heartbeat.*`` and the matching event
types: :func:`~repro.telemetry.strip_variant_events` removes the
events, and every execution-strategy-independence comparison filters
the metric names.  Grid *results* are bit-identical with the sampler on
or off; stripped traces are byte-identical too.

**Heartbeats** — a worker sampler with a ``heartbeat_path`` piggybacks
a beat on every sample: an atomically-replaced file holding the
process's cumulative CPU seconds.  The parallel executor reads each
in-flight dispatch's beat on every wake-up and reaps a worker whose
CPU stops advancing for twice the sample interval (see
:mod:`repro.experiments.parallel`); a slow-but-alive worker keeps
burning CPU and is left to ``cell_timeout``.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MB",
    "WATERMARK_WARN",
    "WATERMARK_DEGRADE",
    "ResourceSpec",
    "ResourceSampler",
    "read_rss_bytes",
    "read_cpu_seconds",
    "gc_collections",
    "write_heartbeat",
    "read_heartbeat",
    "default_providers",
]

MB = 1024 * 1024

#: Budget fractions at which watermark events fire.
WATERMARK_WARN = 0.8
WATERMARK_DEGRADE = 1.0


def _sysconf(name: str, default: int) -> int:
    try:
        value = os.sysconf(name)
    except (AttributeError, ValueError, OSError):  # pragma: no cover - platform
        return default
    return value if value > 0 else default


_CLK_TCK = _sysconf("SC_CLK_TCK", 100)
_PAGE_SIZE = _sysconf("SC_PAGE_SIZE", 4096)


def read_rss_bytes() -> int:
    """Current resident set size in bytes.

    Reads ``/proc/self/statm`` (field 2, pages) where available; falls
    back to ``resource.getrusage`` — whose ``ru_maxrss`` is the *peak*
    RSS, the best portable approximation of the current value.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # Linux reports KiB, macOS bytes.
        return int(usage.ru_maxrss) * (1 if sys.platform == "darwin" else 1024)


def read_cpu_seconds() -> float:
    """Cumulative process CPU time (user + system, all threads).

    Reads ``/proc/self/stat`` fields 14/15 (clock ticks) where
    available, ``resource.getrusage`` elsewhere.  Monotone
    non-decreasing — the heartbeat protocol's progress signal.
    """
    try:
        with open("/proc/self/stat", "rb") as handle:
            data = handle.read()
        # The comm field may contain spaces/parens: split after the
        # *last* ')', leaving state as field 0, utime/stime as 11/12.
        rest = data.rsplit(b")", 1)[1].split()
        return (int(rest[11]) + int(rest[12])) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime


def gc_collections() -> int:
    """Total garbage collections across all generations."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


# -- heartbeat protocol ------------------------------------------------------


def write_heartbeat(path: Path | str, cpu_seconds: float) -> None:
    """Atomically (write + rename) record a beat at ``path``."""
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(f"{cpu_seconds:.6f}", encoding="ascii")
    os.replace(tmp, path)


def read_heartbeat(path: Path | str) -> float | None:
    """The CPU seconds of the beat at ``path``; ``None`` when absent or torn."""
    try:
        return float(Path(path).read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None


# -- sampler configuration ---------------------------------------------------


@dataclass(frozen=True)
class ResourceSpec:
    """Picklable sampler configuration shipped to workers.

    Rides inside ``WorkerSpec`` as an execution-only field (like
    ``model_store``): it never keys the worker's world memo, because
    sampling cannot change what a cell computes.
    """

    #: Seconds between samples.
    interval: float
    #: Budget the watermark events are raised against (``None`` = none).
    budget_mb: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.interval < math.inf:
            raise ValueError("resource sample interval must be positive and finite")
        if self.budget_mb is not None and self.budget_mb < 1:
            raise ValueError("budget_mb must be at least 1")


def default_providers(internet=None) -> dict[str, Callable[[], float]]:
    """The standard gauge providers for a study process.

    Every provider is a zero-argument callable returning a float;
    failures are swallowed per sample (observability must never take a
    run down).  Imports are deferred — this module sits below the tga /
    experiments layers it observes.
    """

    def cache_entries() -> float:
        from ..tga import get_model_cache

        return float(len(get_model_cache()))

    def cache_cost() -> float:
        from ..tga import get_model_cache

        return float(get_model_cache().total_cost)

    providers: dict[str, Callable[[], float]] = {
        "cache_entries": cache_entries,
        "cache_cost": cache_cost,
    }
    if internet is not None:
        providers["resident_ases"] = lambda: float(
            internet.lazy_stats()["resident_ases"]
        )
    return providers


# -- the sampler -------------------------------------------------------------


class ResourceSampler:
    """Background thread sampling process resources into a trace.

    ``telemetry`` may be ``None`` (heartbeat-only operation) and may be
    attached after :meth:`start` — workers start the sampler before
    their telemetry registry exists so heartbeats cover world
    construction.  :meth:`stop` takes one final synchronous sample so
    even sub-interval chunks leave a record, then joins the thread.

    All emitted names live under ``resource.*`` / ``heartbeat.*`` (see
    the module docstring for the determinism contract).
    """

    def __init__(
        self,
        telemetry=None,
        interval: float = 0.25,
        rank: str = "parent",
        providers: Mapping[str, Callable[[], float]] | None = None,
        budget_mb: int | None = None,
        heartbeat_path: Path | str | None = None,
        rss_reader: Callable[[], int] = read_rss_bytes,
        cpu_reader: Callable[[], float] = read_cpu_seconds,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0 < interval < math.inf:
            raise ValueError("resource sample interval must be positive and finite")
        self.telemetry = telemetry
        self.interval = interval
        self.rank = rank
        self.providers: dict[str, Callable[[], float]] = dict(providers or {})
        self.budget_mb = budget_mb
        self.heartbeat_path = Path(heartbeat_path) if heartbeat_path else None
        self._rss = rss_reader
        self._cpu = cpu_reader
        self._clock = clock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._start_time: float | None = None
        self.samples = 0
        self.peak_rss_bytes = 0
        self._warned = False
        #: Latched once RSS crosses 100 % of ``budget_mb`` — the degrade
        #: signal consumers (schedulers, caches) can shed load on.
        self.degraded = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Start the sampler thread (idempotent); samples immediately."""
        if self._thread is not None:
            return self
        self._start_time = self._clock()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the thread, taking one final sample (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        self._stop.set()
        thread.join(timeout=max(5.0, 4 * self.interval))
        self.sample_now()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        self.sample_now()
        while not self._stop.wait(self.interval):
            self.sample_now()

    # -- one sample --------------------------------------------------------

    def sample_now(self) -> dict:
        """Take one sample synchronously; returns the sample fields."""
        if self._start_time is None:
            self._start_time = self._clock()
        now = self._clock()
        rss = self._rss()
        cpu = self._cpu()
        self.samples += 1
        if rss > self.peak_rss_bytes:
            self.peak_rss_bytes = rss
        if self.heartbeat_path is not None:
            try:
                write_heartbeat(self.heartbeat_path, cpu)
            except OSError:  # pragma: no cover - disk weather
                pass
        sample: dict = {
            "rank": self.rank,
            "t": round(now - self._start_time, 3),
            "rss_mb": round(rss / MB, 2),
            "cpu_s": round(cpu, 3),
            "gc": gc_collections(),
        }
        for name, provider in self.providers.items():
            try:
                sample[name] = round(float(provider()), 3)
            except Exception:  # noqa: BLE001 — observability never takes a run down
                continue
        tel = self.telemetry
        if tel is not None and tel.enabled:
            span_path, span_attrs = tel.current_span()
            if span_path:
                sample["span"] = span_path
                tga = span_attrs.get("tga")
                if tga is not None:
                    sample["tga"] = tga
            tel.emit("resource", kind="sample", **sample)
            tel.count("resource.samples")
            tel.gauge("resource.rss_mb", sample["rss_mb"])
            tel.gauge("resource.peak_rss_mb", round(self.peak_rss_bytes / MB, 2))
            if self.heartbeat_path is not None:
                tel.emit(
                    "heartbeat", rank=self.rank, seq=self.samples, cpu_s=sample["cpu_s"]
                )
                tel.count("heartbeat.beats")
        self._watermarks(rss, tel)
        return sample

    def _watermarks(self, rss: int, tel) -> None:
        """Raise warn/degrade events as RSS crosses the budget marks."""
        if not self.budget_mb:
            return
        ratio = rss / (self.budget_mb * MB)
        if ratio >= WATERMARK_WARN and not self._warned:
            self._warned = True
            if tel is not None and tel.enabled:
                tel.count("resource.watermark.warn")
                tel.emit(
                    "resource",
                    kind="watermark",
                    level="warn",
                    rank=self.rank,
                    rss_mb=round(rss / MB, 2),
                    budget_mb=self.budget_mb,
                    ratio=round(ratio, 3),
                )
        if ratio >= WATERMARK_DEGRADE and not self.degraded:
            self.degraded = True
            if tel is not None and tel.enabled:
                tel.count("resource.watermark.degrade")
                tel.emit(
                    "resource",
                    kind="watermark",
                    level="degrade",
                    rank=self.rank,
                    rss_mb=round(rss / MB, 2),
                    budget_mb=self.budget_mb,
                    ratio=round(ratio, 3),
                )
