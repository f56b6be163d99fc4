"""The Study: one fully wired, memoised reproduction context.

A :class:`Study` owns a simulated Internet, the 12 collected seed
sources, the preprocessed dataset constructions, and a cache of
generation runs so that research questions sharing cells (e.g. RQ1.b's
All Active baseline and RQ2's comparison point) never recompute them.
"""

from __future__ import annotations

from functools import cached_property

from ..datasets import DatasetCollection, SeedDataset, collect_all
from ..internet import ALL_PORTS, InternetConfig, Port, SimulatedInternet
from ..preprocess import DatasetConstructions
from ..scanner import Blocklist, Scanner
from ..telemetry import get_telemetry, use_telemetry
from ..tga import ALL_TGA_NAMES, canonical_tga_name
from .results import RunResult
from .runner import run_generation

__all__ = ["Study"]


class Study:
    """Memoised end-to-end reproduction context."""

    def __init__(
        self,
        config: InternetConfig | None = None,
        budget: int = 20_000,
        round_size: int = 2_000,
        internet: SimulatedInternet | None = None,
        tga_names: tuple[str, ...] = ALL_TGA_NAMES,
        blocklist: Blocklist | None = None,
        packets_per_second: float = 10_000.0,
    ) -> None:
        if internet is not None and config is not None:
            raise ValueError("pass either config or internet, not both")
        self._internet = internet
        self._config = config
        self.budget = budget
        self.round_size = round_size
        self.tga_names = tga_names
        #: Never-probe prefixes honoured by every scanner this study
        #: creates — the paper's Appendix A opt-out mechanism.
        self.blocklist = blocklist or Blocklist()
        #: Virtual scan rate (the paper rate-limits to 10 kpps).
        self.packets_per_second = packets_per_second
        self._run_cache: dict[tuple[str, str, Port, int], RunResult] = {}

    # -- lazily constructed world -----------------------------------------

    @cached_property
    def internet(self) -> SimulatedInternet:
        if self._internet is not None:
            return self._internet
        return SimulatedInternet(self._config or InternetConfig.small())

    @cached_property
    def collection(self) -> DatasetCollection:
        return collect_all(self.internet)

    @cached_property
    def constructions(self) -> DatasetConstructions:
        return DatasetConstructions(
            self.internet, self.collection, scanner=self.new_scanner()
        )

    def new_scanner(self) -> Scanner:
        """A fresh scanner bound to this study's world, blocklist and rate."""
        return Scanner(
            self.internet,
            blocklist=self.blocklist,
            packets_per_second=self.packets_per_second,
        )

    @cached_property
    def _known_addresses(self) -> frozenset[int]:
        """Every address any source contributed: rediscovering one is not
        a new hit, whichever (sub)dataset a run was seeded with."""
        return self.constructions.full.addresses

    # -- runs -------------------------------------------------------------

    def run(
        self,
        tga_name: str,
        dataset: SeedDataset,
        port: Port,
        budget: int | None = None,
    ) -> RunResult:
        """Run (or fetch from cache) one generation-and-scan cell.

        ``tga_name`` may be an alias (e.g. ``entropy_ip``); cache keys
        and results always carry the canonical registry name.
        """
        tga_name = canonical_tga_name(tga_name)
        budget = budget or self.budget
        key = (tga_name, dataset.name, port, budget)
        cached = self._run_cache.get(key)
        tel = get_telemetry()
        if cached is not None:
            if tel.enabled:
                tel.count("meta.cache_hits")
            return cached
        if tel.enabled:
            tel.count("meta.cache_misses")
        result = run_generation(
            self.internet,
            tga_name,
            dataset,
            port,
            budget=budget,
            round_size=self.round_size,
            scanner=self.new_scanner(),
            known_addresses=self._known_addresses,
        )
        self._run_cache[key] = result
        return result

    def precompute(
        self,
        cells: list[tuple[str, SeedDataset, Port, int | None]],
        *,
        policy: "ExecutionPolicy | None" = None,
        **_removed,
    ) -> int:
        """Fill the run cache for ``cells`` under an execution policy.

        With ``policy.workers`` unset (or 1) and no resilience features
        requested, this is a no-op — callers compute cells lazily
        through :meth:`run`, which is the same work in the same process.
        ``workers="auto"`` picks ``min(cpu_count, cells)`` (serial on
        single-CPU hosts).  Returns the number of cells that were
        missing from the cache when called.  Parallel results are
        bit-identical to serial ones (every stochastic draw is keyed on
        the master seed), so downstream consumers cannot tell the
        difference.  The legacy ``workers``/``chunksize`` kwargs were
        removed and raise ``TypeError``.
        """
        from .parallel import ParallelExecutor, resolve_workers
        from .policy import coalesce_policy

        policy = coalesce_policy(policy, "Study.precompute", **_removed)
        workers_n = resolve_workers(policy.workers, len(cells))
        missing = sum(
            1
            for tga_name, dataset, port, budget in cells
            if (canonical_tga_name(tga_name), dataset.name, port, budget or self.budget)
            not in self._run_cache
        )
        tel = get_telemetry()
        if tel.enabled:
            # Deterministic start-of-batch event: totals for progress
            # displays, emitted before any cell runs (serial or not).
            tel.emit("grid", cells=len(cells), pending=missing)
        if (workers_n <= 1 and not policy.resilient) or missing == 0:
            return missing

        ParallelExecutor(self, max_workers=workers_n, policy=policy).run_cells(
            cells
        )
        return missing

    def run_matrix(
        self,
        datasets: list[SeedDataset],
        ports: tuple[Port, ...] = ALL_PORTS,
        tga_names: tuple[str, ...] | None = None,
        budget: int | None = None,
        *,
        policy: "ExecutionPolicy | None" = None,
        **_removed,
    ) -> dict[tuple[str, str, Port], RunResult]:
        """Run the full TGA × dataset × port grid.

        ``policy`` governs execution mechanics (workers, checkpointing,
        retries, fault injection); results and the populated run cache
        are identical to a serial run (worker-process telemetry is
        merged back deterministically).  The legacy ``parallel``/
        ``chunksize``/``telemetry`` kwargs were removed and raise
        ``TypeError``.
        """
        from .policy import coalesce_policy

        policy = coalesce_policy(policy, "Study.run_matrix", **_removed)
        tga_names = tga_names or self.tga_names
        cells = [
            (tga_name, dataset, port, budget)
            for dataset in datasets
            for port in ports
            for tga_name in tga_names
        ]
        with use_telemetry(policy.telemetry):
            self.precompute(cells, policy=policy)
            results: dict[tuple[str, str, Port], RunResult] = {}
            for tga_name, dataset, port, _budget in cells:
                results[(tga_name, dataset.name, port)] = self.run(
                    tga_name, dataset, port, budget=budget
                )
        return results

    @property
    def cached_runs(self) -> int:
        """Number of memoised run cells (diagnostics)."""
        return len(self._run_cache)
