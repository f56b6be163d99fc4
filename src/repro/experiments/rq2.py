"""RQ2: How do port/protocol and port-specific seeds change performance?

Figure 5: performance ratios of port-specific vs All Active seeds.
Figure 7 / Appendix D: the cross-port matrix — scanning each target with
generators trained on each *other* target's active seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..internet import ALL_PORTS, Port
from ..metrics import metric_ratios
from ..telemetry import use_telemetry
from .harness import Study
from .policy import ExecutionPolicy
from .results import RunResult

__all__ = ["RQ2Result", "CrossPortResult", "run_rq2", "run_cross_port"]


@dataclass(frozen=True)
class RQ2Result:
    """Port-specific vs All Active comparison cells."""

    all_active_runs: dict[tuple[str, Port], RunResult]
    port_specific_runs: dict[tuple[str, Port], RunResult]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]

    def figure5(self, port: Port) -> dict[str, dict[str, float]]:
        """Performance ratios, port-specific vs All Active seeds."""
        ratios: dict[str, dict[str, float]] = {}
        for tga in self.tga_names:
            original = self.all_active_runs[(tga, port)].metrics
            changed = self.port_specific_runs[(tga, port)].metrics
            ratios[tga] = metric_ratios(changed, original)
        return ratios


@dataclass(frozen=True)
class CrossPortResult:
    """Figure 7: hits per (input dataset, scan port) cell, per TGA."""

    runs: dict[tuple[str, str, Port], RunResult]  # (tga, input_name, scan_port)
    input_names: tuple[str, ...]
    tga_names: tuple[str, ...]
    ports: tuple[Port, ...]

    def matrix(self, scan_port: Port) -> dict[str, dict[str, int]]:
        """hits[input_dataset][tga] for one scan target (one subfigure)."""
        return {
            input_name: {
                tga: self.runs[(tga, input_name, scan_port)].metrics.hits
                for tga in self.tga_names
            }
            for input_name in self.input_names
        }


def run_rq2(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    budget: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RQ2Result:
    """Run the RQ2 grid: each port scanned from its port-specific seeds."""
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("rq2"):
        all_active = study.constructions.all_active
        study.precompute(
            [
                (tga, dataset, port, budget)
                for port in ports
                for dataset in (all_active, study.constructions.port_specific(port))
                for tga in study.tga_names
            ],
            policy=policy,
        )
        all_active_runs: dict[tuple[str, Port], RunResult] = {}
        port_specific_runs: dict[tuple[str, Port], RunResult] = {}
        for port in ports:
            port_dataset = study.constructions.port_specific(port)
            for tga in study.tga_names:
                all_active_runs[(tga, port)] = study.run(tga, all_active, port, budget=budget)
                port_specific_runs[(tga, port)] = study.run(
                    tga, port_dataset, port, budget=budget
                )
        return RQ2Result(
            all_active_runs=all_active_runs,
            port_specific_runs=port_specific_runs,
            tga_names=study.tga_names,
            ports=ports,
        )


def run_cross_port(
    study: Study,
    ports: tuple[Port, ...] = ALL_PORTS,
    budget: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> CrossPortResult:
    """Run the Figure 7 grid: every input dataset scanned on every target.

    Inputs are the four port-specific datasets plus All Active; each is
    used to generate and scan on all four targets.
    """
    policy = policy or ExecutionPolicy()
    with use_telemetry(policy.telemetry) as tel, tel.span("cross_port"):
        inputs = [study.constructions.port_specific(port) for port in ports]
        inputs.append(study.constructions.all_active)
        study.precompute(
            [
                (tga, dataset, scan_port, budget)
                for dataset in inputs
                for scan_port in ports
                for tga in study.tga_names
            ],
            policy=policy,
        )
        runs: dict[tuple[str, str, Port], RunResult] = {}
        for dataset in inputs:
            for scan_port in ports:
                for tga in study.tga_names:
                    runs[(tga, dataset.name, scan_port)] = study.run(
                        tga, dataset, scan_port, budget=budget
                    )
        return CrossPortResult(
            runs=runs,
            input_names=tuple(dataset.name for dataset in inputs),
            tga_names=study.tga_names,
            ports=ports,
        )
