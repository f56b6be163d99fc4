"""RQ4: generator overlap and ensemble behaviour (Figure 6).

Runs every generator on the All Active dataset per port and computes the
greedy cumulative-unique-contribution ordering for hits and for active
ASes — the paper's evidence that combining a handful of TGAs yields a
supermajority of total coverage while some tools (6Scan) add nearly
nothing on top of their relatives (6Tree).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..internet import ALL_PORTS, Port
from ..metrics import ContributionStep, cumulative_contributions, pairwise_jaccard
from ..telemetry import use_telemetry
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult

__all__ = ["RQ4Result", "run_rq4"]


@dataclass(frozen=True)
class RQ4Result:
    """All-active runs per port plus the Figure 6 orderings."""

    runs: dict[tuple[str, Port], RunResult]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]

    def hit_sets(self, port: Port) -> dict[str, set[int]]:
        """Per-generator dealiased hit sets on one port."""
        return {
            tga: set(self.runs[(tga, port)].clean_hits) for tga in self.tga_names
        }

    def as_sets(self, port: Port) -> dict[str, set[int]]:
        """Per-generator active-AS sets on one port."""
        return {
            tga: set(self.runs[(tga, port)].active_ases) for tga in self.tga_names
        }

    def figure6_hits(self, port: Port) -> list[ContributionStep]:
        """Cumulative unique hit contributions (Figure 6, hits panel)."""
        return cumulative_contributions(self.hit_sets(port))

    def figure6_ases(self, port: Port) -> list[ContributionStep]:
        """Cumulative unique AS contributions (Figure 6, AS panel)."""
        return cumulative_contributions(self.as_sets(port))

    def hit_overlap(self, port: Port) -> dict[tuple[str, str], float]:
        """Pairwise Jaccard similarity of hit sets (overlap diagnostics)."""
        return pairwise_jaccard(self.hit_sets(port))

    def ensemble_hits(self, port: Port) -> int:
        """Total unique hits when running all generators together."""
        union: set[int] = set()
        for tga in self.tga_names:
            union |= self.runs[(tga, port)].clean_hits
        return len(union)


def run_rq4(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    budget: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RQ4Result:
    """Run every generator on the All Active dataset for each port."""
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("rq4"):
        all_active = study.constructions.all_active
        study.precompute(
            [
                (tga, all_active, port, budget)
                for port in ports
                for tga in study.tga_names
            ],
            policy=policy,
        )
        runs: dict[tuple[str, Port], RunResult] = {}
        for port in ports:
            for tga in study.tga_names:
                runs[(tga, port)] = study.run(tga, all_active, port, budget=budget)
        return RQ4Result(runs=runs, tga_names=study.tga_names, ports=ports)
