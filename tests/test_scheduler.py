"""Tests for per-cell wall times and the warm-start layers.

Covers the straggler report over ``sched`` trace events (including
traces recorded by older versions), per-cell wall times in grid
results, and the system-level property that a warm persistent model
store cannot change grid results or stripped traces.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid
from repro.internet import InternetConfig, Port
from repro.telemetry import (
    MemorySink,
    StragglerReport,
    Telemetry,
    Trace,
    straggler_report,
    strip_variant_events,
)
from repro.tga import ModelStore, use_model_cache, use_model_store, ModelCache

TGAS = ("6tree", "6gen", "eip")
PORTS = (Port.ICMP, Port.TCP80)
BUDGET = 400


def make_study() -> Study:
    return Study(config=InternetConfig.tiny(), budget=500, round_size=200)


def make_spec(study: Study) -> GridSpec:
    return GridSpec(
        datasets=(study.constructions.all_active,),
        tga_names=TGAS,
        ports=PORTS,
        budget=BUDGET,
    )


class TestStragglerReport:
    def events(self):
        return [
            {"type": "sched", "kind": "plan", "scheduler": "cost",
             "predicted_makespan_s": 2.5},
            {"type": "sched", "kind": "cell", "tga": "eip", "dataset": "ds",
             "port": "icmp", "budget": 500, "wall_s": 2.0},
            {"type": "sched", "kind": "cell", "tga": "6scan", "dataset": "ds",
             "port": "icmp", "budget": 500, "wall_s": 0.25},
            {"type": "sched", "kind": "cell", "tga": "6tree", "dataset": "ds",
             "port": "tcp80", "budget": 500, "wall_s": 0.75},
            {"type": "sched", "kind": "summary", "scheduler": "cost",
             "workers": 2, "elapsed_s": 2.0, "total_wall_s": 3.0},
        ]

    def test_ranks_cells_longest_first(self):
        report = straggler_report(Trace(path=None, events=self.events()))
        assert [row[0] for row in report.cells] == ["eip", "6tree", "6scan"]
        assert report.top(2) == report.cells[:2]

    def test_aggregates_and_bounds(self):
        report = straggler_report(Trace(path=None, events=self.events()))
        assert report.workers == 2
        assert report.total_wall_s == pytest.approx(3.0)
        assert report.ideal_makespan_s == pytest.approx(1.5)
        assert report.elapsed_s == pytest.approx(2.0)
        assert report.efficiency == pytest.approx(0.75)
        assert report.as_dict()["cells"] == 3

    def test_older_trace_loads_unchanged(self, tmp_path, capsys):
        """Traces recorded with the retired chunk planner carry a
        ``kind="plan"`` event and a ``scheduler`` summary field; the
        report ignores both, and the CLI still loads such a trace."""
        events = self.events()
        current = [
            {k: v for k, v in event.items() if k != "scheduler"}
            for event in events
            if event.get("kind") != "plan"
        ]
        old = straggler_report(Trace(path=None, events=events))
        new = straggler_report(Trace(path=None, events=current))
        assert old == new
        assert old.as_dict() == new.as_dict()
        assert "scheduler" not in old.as_dict()
        path = tmp_path / "old.jsonl"
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )
        assert main(["trace", "stragglers", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cells: 3  workers: 2" in out
        assert "scheduler" not in out and "predicted" not in out

    def test_trace_without_sched_events_is_empty(self):
        report = straggler_report(
            Trace(path=None, events=[{"type": "grid", "cells": 4}])
        )
        assert report.cells == []
        assert report.efficiency == 0.0
        assert isinstance(report, StragglerReport)

    def test_executor_trace_feeds_report(self, tmp_path):
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        study = make_study()
        policy = ExecutionPolicy(workers=2, telemetry=telemetry)
        run_grid(study, make_spec(study), policy=policy)
        report = straggler_report(Trace(path=None, events=list(sink.events)))
        assert len(report.cells) == len(TGAS) * len(PORTS)
        assert report.workers == 2
        assert report.total_wall_s > 0.0
        assert 0.0 < report.efficiency <= 1.0


def assert_identical_runs(a, b) -> None:
    assert a.clean_hits == b.clean_hits
    assert a.aliased_hits == b.aliased_hits
    assert a.active_ases == b.active_ases
    assert a.metrics == b.metrics
    assert a.round_history == b.round_history


class TestBitIdentity:
    """Store temperature is invisible in results and stripped traces."""

    def serial_reference(self):
        study = make_study()
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        results = run_grid(
            study,
            make_spec(study),
            policy=ExecutionPolicy(telemetry=telemetry),
        )
        return results, strip_variant_events(list(sink.events))

    def test_warm_model_store_bit_identical(self, tmp_path):
        reference, reference_events = self.serial_reference()
        store = ModelStore(tmp_path / "store")
        for temperature in ("cold", "warm"):
            study = make_study()
            sink = MemorySink()
            telemetry = Telemetry(sinks=[sink])
            with use_model_cache(ModelCache()), use_model_store(store):
                results = run_grid(
                    study,
                    make_spec(study),
                    policy=ExecutionPolicy(telemetry=telemetry),
                )
            assert set(results.runs) == set(reference.runs)
            for key, run in reference.runs.items():
                assert_identical_runs(run, results.runs[key])
            assert strip_variant_events(list(sink.events)) == reference_events
        assert store.stats.hits > 0  # the warm pass really hit the disk

    def test_policy_model_store_setting_routes_to_disk(self, tmp_path):
        study = make_study()
        root = tmp_path / "policy-store"
        with use_model_cache(ModelCache()):
            results = run_grid(
                study,
                make_spec(study),
                policy=ExecutionPolicy(model_store=root),
            )
        assert results.complete
        assert list(root.glob("*.model"))
        # Setting is scoped to the run: nothing stays active after.
        from repro.tga import get_model_store

        assert get_model_store() is None

    def test_executor_wall_seconds_surface_in_grid_results(self):
        study = make_study()
        results = run_grid(
            study, make_spec(study), policy=ExecutionPolicy(workers=2)
        )
        assert set(results.wall_seconds) == set(results.runs)
        assert all(wall > 0.0 for wall in results.wall_seconds.values())
