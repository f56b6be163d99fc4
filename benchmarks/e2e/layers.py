"""Outside-in layer tracer: self time and counts per named layer.

The tracer wraps public callees of the program's entry points and keeps
a call stack, so a layer's busy time is its *self* time: the wall time of
its calls minus the time spent in nested named layers.  Only traced
repetitions import this module; untraced ones run the program unwrapped.

Worker processes forked while the wrappers are installed inherit them,
but their counters stay in the worker: a parallel grid's trace holds
only the parent's layers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from repro.dealias import OfflineDealiaser, OnlineDealiaser
from repro.experiments import harness, runner
from repro.internet import topology
from repro.preprocess import SeedPreprocessor
from repro.reporting import report
from repro.scanner import Scanner
from repro.tga import ALL_TGA_NAMES, ModelStore, TargetGenerator, get_model_cache

#: Self-time layers, in the order the output lists them.
LAYERS = (
    "internet.derive",
    "datasets.collect",
    "preprocess.dealias",
    "preprocess.activity",
    "scanner.scan",
    "scanner.retry",
    "dealias.online",
    "dealias.offline",
    *(f"tga.prepare.{name}" for name in ALL_TGA_NAMES),
    "tga.propose",
    "tga.feedback",
    "modelstore.load",
    "metrics.evaluate",
    "experiments.cell",
    "reporting",
)


class Tracer:
    """Accumulates per-layer self time and counts while installed."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # One frame per open call: [layer, start, seconds spent in children].
        self._stack: list[list] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[1]
            self.busy[layer] += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    def _wrap(self, original, layer, count=None):
        """``original`` timed as ``layer``; ``count(args, result)`` adds counts.

        ``layer`` may be a function of the call's arguments.
        """

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callee for the duration of the block."""
        counts = self.counts

        def derive(args, result):
            counts["internet.derive.calls"] += 1

        def scan(args, result):
            counts["scanner.scan.calls"] += 1
            counts["scanner.scan.addresses"] += result.stats.probes_sent
            counts["scanner.scan.hits"] += len(result.hits)

        def retry(args, result):
            counts["scanner.retry.calls"] += 1
            counts["scanner.retry.hits"] += bool(result)

        def propose(args, result):
            counts["tga.propose.candidates"] += len(result)

        def feedback(args, result):
            counts["tga.feedback.addresses"] += len(args[1])

        def store_load(args, result):
            counts["modelstore.misses" if result is None else "modelstore.hits"] += 1

        targets = [
            (topology, "derive_as", "internet.derive", derive),
            (topology, "mega_region", "internet.derive", derive),
            (harness, "collect_all", "datasets.collect", None),
            (SeedPreprocessor, "dealias", "preprocess.dealias", None),
            (SeedPreprocessor, "scan_activity", "preprocess.activity", None),
            (Scanner, "scan", "scanner.scan", scan),
            (Scanner, "probe_with_retries", "scanner.retry", retry),
            (OnlineDealiaser, "partition", "dealias.online", None),
            (OfflineDealiaser, "partition", "dealias.offline", None),
            (
                TargetGenerator,
                "prepare",
                lambda args: f"tga.prepare.{args[0].name}",
                None,
            ),
            (TargetGenerator, "propose_batch", "tga.propose", propose),
            (TargetGenerator, "feedback", "tga.feedback", feedback),
            (ModelStore, "load", "modelstore.load", store_load),
            (runner, "evaluate_metrics", "metrics.evaluate", None),
            (harness, "run_generation", "experiments.cell", None),
            (report, "generate_report", "reporting", None),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, layer, count in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), layer, count))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def metrics(self, total_s: float, lazy_stats: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics of one traced repetition of ``total_s`` seconds.

        Busy times are reported as shares of ``total_s``; ``other`` is the
        share no named layer covers.
        """
        counts = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_frac"] = self.busy[layer] / total_s
        out["tga.prepare.busy_frac"] = sum(
            out[f"tga.prepare.{name}.busy_frac"] for name in ALL_TGA_NAMES
        )
        covered = sum(self.busy[layer] for layer in LAYERS)
        out["trace.coverage"] = covered / total_s
        out["other.busy_frac"] = max(0.0, 1.0 - out["trace.coverage"])
        out["internet.derive.calls"] = counts["internet.derive.calls"]
        out["internet.materialized_ases"] = lazy_stats.get("materialized_ases", 0)
        out["internet.evicted_ases"] = lazy_stats.get("evicted_ases", 0)
        out["scanner.scan.calls"] = counts["scanner.scan.calls"]
        out["scanner.scan.addresses"] = counts["scanner.scan.addresses"]
        out["scanner.scan.hit_ratio"] = _ratio(
            counts["scanner.scan.hits"], counts["scanner.scan.addresses"]
        )
        out["scanner.retry.calls"] = counts["scanner.retry.calls"]
        out["scanner.retry.hit_ratio"] = _ratio(
            counts["scanner.retry.hits"], counts["scanner.retry.calls"]
        )
        out["tga.propose.candidates"] = counts["tga.propose.candidates"]
        out["tga.fresh_ratio"] = _ratio(
            counts["tga.feedback.addresses"], counts["tga.propose.candidates"]
        )
        cache = get_model_cache().stats
        out["modelcache.hits"] = cache.hits
        out["modelcache.misses"] = cache.misses
        out["modelstore.hits"] = counts["modelstore.hits"]
        out["modelstore.misses"] = counts["modelstore.misses"]
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
