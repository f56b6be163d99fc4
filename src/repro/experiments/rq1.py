"""RQ1: How should seed datasets be preprocessed?

RQ1.a (Figure 3, Table 4): how do aliases in the seeds — and the choice
of dealiasing treatment — change TGA output?

RQ1.b (Figure 4): does restricting seeds to currently responsive
addresses help?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dealias import DealiasMode
from ..internet import ALL_PORTS, Port
from ..metrics import metric_ratios
from ..telemetry import use_telemetry
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult

__all__ = ["RQ1aResult", "RQ1bResult", "run_rq1a", "run_rq1b"]

#: Table 4's column order.
DEALIAS_MODES: tuple[DealiasMode, ...] = (
    DealiasMode.NONE,
    DealiasMode.OFFLINE,
    DealiasMode.ONLINE,
    DealiasMode.JOINT,
)


@dataclass(frozen=True)
class RQ1aResult:
    """All RQ1.a cells plus derived artifacts."""

    runs: dict[tuple[str, DealiasMode, Port], RunResult]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]

    def table4(self, port: Port = Port.ICMP) -> dict[str, dict[DealiasMode, int]]:
        """Aliases discovered per TGA per treatment (the paper's Table 4).

        Covers whichever treatments were actually run (the full study runs
        all four; partial comparisons run a subset).
        """
        modes = [
            mode
            for mode in DEALIAS_MODES
            if (self.tga_names[0], mode, port) in self.runs
        ]
        return {
            tga: {
                mode: self.runs[(tga, mode, port)].metrics.aliases
                for mode in modes
            }
            for tga in self.tga_names
        }

    def figure3(self, port: Port) -> dict[str, dict[str, float]]:
        """Performance ratios, joint-dealiased vs full seeds (Figure 3)."""
        ratios: dict[str, dict[str, float]] = {}
        for tga in self.tga_names:
            original = self.runs[(tga, DealiasMode.NONE, port)].metrics
            changed = self.runs[(tga, DealiasMode.JOINT, port)].metrics
            ratios[tga] = metric_ratios(changed, original)
        return ratios


@dataclass(frozen=True)
class RQ1bResult:
    """All RQ1.b cells plus the Figure 4 ratios."""

    dealiased_runs: dict[tuple[str, Port], RunResult]
    active_runs: dict[tuple[str, Port], RunResult]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]

    def figure4(self, port: Port) -> dict[str, dict[str, float]]:
        """Performance ratios, active-only vs dealiased seeds (Figure 4)."""
        ratios: dict[str, dict[str, float]] = {}
        for tga in self.tga_names:
            original = self.dealiased_runs[(tga, port)].metrics
            changed = self.active_runs[(tga, port)].metrics
            ratios[tga] = metric_ratios(changed, original)
        return ratios


def run_rq1a(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    modes: tuple[DealiasMode, ...] = DEALIAS_MODES,
    budget: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RQ1aResult:
    """Run the RQ1.a grid: every TGA on every dealias treatment and port.

    ``policy`` governs execution mechanics (workers, checkpointing,
    retries); results are bit-identical to a serial run.
    """
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("rq1a"):
        datasets = {mode: study.constructions.dealias_variant(mode) for mode in modes}
        study.precompute(
            [
                (tga, datasets[mode], port, budget)
                for mode in modes
                for port in ports
                for tga in study.tga_names
            ],
            policy=policy,
        )
        runs: dict[tuple[str, DealiasMode, Port], RunResult] = {}
        for mode in modes:
            dataset = datasets[mode]
            for port in ports:
                for tga in study.tga_names:
                    runs[(tga, mode, port)] = study.run(tga, dataset, port, budget=budget)
        return RQ1aResult(runs=runs, tga_names=study.tga_names, ports=ports)


def run_rq1b(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    budget: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RQ1bResult:
    """Run the RQ1.b comparison: joint-dealiased vs active-only seeds."""
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("rq1b"):
        dealiased = study.constructions.joint_dealiased
        active = study.constructions.all_active
        study.precompute(
            [
                (tga, dataset, port, budget)
                for dataset in (dealiased, active)
                for port in ports
                for tga in study.tga_names
            ],
            policy=policy,
        )
        dealiased_runs: dict[tuple[str, Port], RunResult] = {}
        active_runs: dict[tuple[str, Port], RunResult] = {}
        for port in ports:
            for tga in study.tga_names:
                dealiased_runs[(tga, port)] = study.run(tga, dealiased, port, budget=budget)
                active_runs[(tga, port)] = study.run(tga, active, port, budget=budget)
        return RQ1bResult(
            dealiased_runs=dealiased_runs,
            active_runs=active_runs,
            tga_names=study.tga_names,
            ports=ports,
        )
