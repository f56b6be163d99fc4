"""RQ3: How do different seed data *sources* impact TGA performance?

Table 5: combined per-source runs vs one run with the pooled budget.
Table 6: AS characterisation of the population each source discovers.
Tables 13–15: the raw per-source grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import SOURCE_ORDER
from ..internet import ALL_PORTS, Port
from ..metrics import ASCharacterization, characterize_ases
from ..telemetry import use_telemetry
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult

__all__ = ["RQ3Result", "run_rq3", "Table5Row", "table5", "table6"]


@dataclass(frozen=True)
class RQ3Result:
    """Per-source runs plus the pooled-budget comparison runs."""

    source_runs: dict[tuple[str, str, Port], RunResult]  # (tga, source, port)
    pooled_runs: dict[tuple[str, Port], RunResult]  # (tga, port), pooled budget
    source_names: tuple[str, ...]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]
    per_source_budget: int
    #: The full All Active seed pool: re-"discovering" another source's
    #: seeds is not a new hit, so Table 5 accounting excludes it from the
    #: combined column (the pooled run excludes it by construction).
    seed_pool: frozenset[int] = frozenset()

    def combined_hits(self, tga: str, port: Port) -> set[int]:
        """Union of one TGA's *new* hits across all per-source runs."""
        combined: set[int] = set()
        for source in self.source_names:
            combined |= self.source_runs[(tga, source, port)].clean_hits
        return combined - self.seed_pool

    def combined_ases(self, tga: str, port: Port) -> set[int]:
        """Union of one TGA's active ASes across all per-source runs."""
        combined: set[int] = set()
        for source in self.source_names:
            combined |= self.source_runs[(tga, source, port)].active_ases
        return combined

    def source_population(self, source: str, port: Port) -> set[int]:
        """All 8 TGAs' combined hits from one source on one port (Table 6)."""
        combined: set[int] = set()
        for tga in self.tga_names:
            combined |= self.source_runs[(tga, source, port)].clean_hits
        return combined


@dataclass(frozen=True, slots=True)
class Table5Row:
    """One TGA's row of the Table 5 analogue."""

    tga: str
    combined_hits: int
    pooled_hits: int
    combined_ases: int
    pooled_ases: int


def run_rq3(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    sources: tuple[str, ...] = SOURCE_ORDER,
    budget: int | None = None,
    pooled_ports: tuple[Port, ...] = (Port.ICMP,),
    *,
    policy: ExecutionPolicy | None = None,
) -> RQ3Result:
    """Run the RQ3 grid plus the pooled-budget comparison.

    The pooled run (the paper's "600M" column) uses the All Active
    dataset with ``len(sources) ×`` the per-source budget; the paper
    reports it for ICMP, so that is the default.
    """
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("rq3"):
        per_source_budget = budget or study.budget
        source_datasets = {
            source: dataset
            for source in sources
            if (dataset := study.constructions.source_specific(source)).addresses
        }
        pooled_budget = per_source_budget * len(sources)
        all_active = study.constructions.all_active
        study.precompute(
            [
                (tga, dataset, port, per_source_budget)
                for dataset in source_datasets.values()
                for port in ports
                for tga in study.tga_names
            ]
            + [
                (tga, all_active, port, pooled_budget)
                for port in pooled_ports
                for tga in study.tga_names
            ],
            policy=policy,
        )
        source_runs: dict[tuple[str, str, Port], RunResult] = {}
        for source, dataset in source_datasets.items():
            for port in ports:
                for tga in study.tga_names:
                    source_runs[(tga, source, port)] = study.run(
                        tga, dataset, port, budget=per_source_budget
                    )
        pooled_runs: dict[tuple[str, Port], RunResult] = {}
        for port in pooled_ports:
            for tga in study.tga_names:
                pooled_runs[(tga, port)] = study.run(
                    tga, all_active, port, budget=pooled_budget
                )
        return RQ3Result(
            source_runs=source_runs,
            pooled_runs=pooled_runs,
            source_names=sources,
            tga_names=study.tga_names,
            ports=ports,
            per_source_budget=per_source_budget,
            seed_pool=all_active.addresses,
        )


def table5(result: RQ3Result, port: Port = Port.ICMP) -> list[Table5Row]:
    """The Table 5 analogue: combined source runs vs one pooled run."""
    rows = []
    for tga in result.tga_names:
        pooled = result.pooled_runs[(tga, port)]
        rows.append(
            Table5Row(
                tga=tga,
                combined_hits=len(result.combined_hits(tga, port)),
                pooled_hits=pooled.metrics.hits,
                combined_ases=len(result.combined_ases(tga, port)),
                pooled_ases=pooled.metrics.ases,
            )
        )
    return rows


def table6(
    result: RQ3Result, study: Study, top_n: int = 3
) -> dict[tuple[str, Port], ASCharacterization]:
    """The Table 6 analogue: top ASes per source per port."""
    registry = study.internet.registry
    characterizations: dict[tuple[str, Port], ASCharacterization] = {}
    for source in result.source_names:
        for port in result.ports:
            population = result.source_population(source, port)
            characterizations[(source, port)] = characterize_ases(
                population, registry, top_n=top_n
            )
    return characterizations
