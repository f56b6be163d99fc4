"""One-shot markdown study report.

Assembles a complete, self-contained markdown report of a study —
world summary, seed composition, the RQ1/RQ2/RQ4 headline comparisons
and the RQ5 recommended-pipeline outcome — suitable for dropping into a
README, wiki or paper appendix.  Exposed on the CLI as
``python -m repro study report``.
"""

from __future__ import annotations

from ..dealias import DealiasMode
from ..experiments import (
    run_recommended_pipeline,
    run_rq1a,
    run_rq1b,
    run_rq2,
    run_rq4,
)
from ..experiments.harness import Study
from ..internet import Port
from .markdown import markdown_table
from .tables import format_ratio

__all__ = ["generate_report"]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n{body}\n"


def _world_section(study: Study) -> str:
    info = study.internet.describe()
    table = markdown_table(
        ["property", "value"],
        [[key, f"{value:,}"] for key, value in info.items()],
        align_right=[1],
    )
    return _section("Simulated world", table)


def _sources_section(study: Study) -> str:
    registry = study.internet.registry
    rows = [
        [
            dataset.name,
            dataset.kind.table_tag,
            f"{len(dataset):,}",
            f"{len(dataset.ases(registry)):,}",
        ]
        for dataset in study.collection
    ]
    return _section(
        "Seed sources (Table 3 extract)",
        markdown_table(["source", "type", "unique", "ASes"], rows, align_right=[2, 3]),
    )


def _rq1a_section(study: Study, port: Port) -> str:
    result = run_rq1a(study, ports=(port,), modes=(DealiasMode.NONE, DealiasMode.JOINT))
    table = result.table4(port)
    ratios = result.figure3(port)
    rows = [
        [
            tga,
            f"{table[tga][DealiasMode.NONE]:,}",
            f"{table[tga][DealiasMode.JOINT]:,}",
            format_ratio(ratios[tga]["hits"]),
        ]
        for tga in study.tga_names
    ]
    return _section(
        f"RQ1.a — seed dealiasing ({port.value})",
        markdown_table(
            ["TGA", "aliases (raw seeds)", "aliases (joint)", "hit ratio"],
            rows,
            align_right=[1, 2, 3],
        ),
    )


def _rq1b_section(study: Study, port: Port) -> str:
    result = run_rq1b(study, ports=(port,))
    ratios = result.figure4(port)
    rows = [
        [tga, format_ratio(ratios[tga]["hits"]), format_ratio(ratios[tga]["ases"])]
        for tga in study.tga_names
    ]
    return _section(
        f"RQ1.b — active-only seeds ({port.value})",
        markdown_table(["TGA", "hits ratio", "ASes ratio"], rows, align_right=[1, 2]),
    )


def _rq2_section(study: Study, port: Port) -> str:
    result = run_rq2(study, ports=(port,))
    ratios = result.figure5(port)
    rows = [
        [tga, format_ratio(ratios[tga]["hits"]), format_ratio(ratios[tga]["ases"])]
        for tga in study.tga_names
    ]
    return _section(
        f"RQ2 — port-specific seeds ({port.value})",
        markdown_table(["TGA", "hits ratio", "ASes ratio"], rows, align_right=[1, 2]),
    )


def _rq4_section(study: Study, port: Port) -> str:
    result = run_rq4(study, ports=(port,))
    rows = [
        [step.name, f"{step.new_items:,}", f"{step.cumulative:,}", f"{step.cumulative_fraction:.0%}"]
        for step in result.figure6_hits(port)
    ]
    return _section(
        f"RQ4 — cumulative unique contributions ({port.value})",
        markdown_table(
            ["TGA", "new hits", "cumulative", "share"], rows, align_right=[1, 2, 3]
        ),
    )


def _recommendation_section(study: Study, port: Port) -> str:
    result = run_recommended_pipeline(study, port)
    rows = [
        [name, f"{run.metrics.hits:,}", f"{run.metrics.ases:,}"]
        for name, run in result.runs.items()
    ]
    rows.append(
        [
            "**ensemble**",
            f"{len(result.ensemble_hits):,}",
            f"{len(result.ensemble_ases):,}",
        ]
    )
    body = markdown_table(["TGA", "hits", "ASes"], rows, align_right=[1, 2])
    body += (
        f"\n\nEnsemble gain over the best single generator: "
        f"{result.ensemble_gain():.2f}×."
    )
    return _section(f"RQ5 — recommended pipeline ({port.value})", body)


def generate_report(
    study: Study,
    port: Port = Port.ICMP,
    recommendation_port: Port = Port.TCP443,
    title: str = "Seeds of Scanning — study report",
) -> str:
    """Run the headline comparisons and render a full markdown report."""
    parts = [
        f"# {title}\n",
        f"Budget {study.budget:,} per cell; world seed "
        f"{study.internet.config.master_seed}.\n",
        _world_section(study),
        _sources_section(study),
        _rq1a_section(study, port),
        _rq1b_section(study, port),
        _rq2_section(study, recommendation_port),
        _rq4_section(study, port),
        _recommendation_section(study, recommendation_port),
    ]
    return "\n".join(parts)
