"""Tests for fault-tolerant, resumable grid execution.

Covers the RunStore checkpoint format (format-3 JSONL, torn lines,
digest verification, older formats rejected), the ExecutionPolicy
surface, deterministic fault injection, and the headline property: a
grid interrupted by worker crashes and resumed from its checkpoint
yields results bit-identical to an uninterrupted run, without ever
re-executing completed cells.
"""

import json
import math
import warnings

import pytest

from repro.experiments import (
    ExecutionPolicy,
    FaultInjected,
    FaultPlan,
    FaultRule,
    GridSpec,
    ParallelExecutor,
    RunStore,
    Study,
    dump_results,
    load_results,
    run_cross_port,
    run_grid,
    run_rq1a,
    run_rq1b,
    run_rq2,
    run_rq3,
    run_rq4,
    study_digest,
)
from repro.experiments.store import result_to_dict
from repro.internet import ALL_PORTS, InternetConfig, Port
from repro.telemetry import MemorySink, Telemetry, strip_variant_events, use_telemetry

TGAS = ("6tree", "6gen", "eip")
BUDGET = 400


def make_study() -> Study:
    return Study(config=InternetConfig.tiny(), budget=500, round_size=200)


def make_spec(study: Study, ports=(Port.ICMP,)) -> GridSpec:
    return GridSpec(
        datasets=(study.constructions.all_active,),
        tga_names=TGAS,
        ports=ports,
        budget=BUDGET,
    )


def run_one(study: Study) -> "tuple":
    """One computed cell (key, result) for store tests."""
    dataset = study.constructions.all_active
    result = study.run("6tree", dataset, Port.ICMP, budget=BUDGET)
    return ("6tree", dataset.name, Port.ICMP, BUDGET), result


# ---------------------------------------------------------------------------
# RunStore: the format-3 checkpoint
# ---------------------------------------------------------------------------


class TestRunStore:
    def test_append_and_reload_roundtrip(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "cp.jsonl"
        with RunStore(path) as store:
            store.begin(config=study_digest(study))
            store.append(key, result)
        reloaded = RunStore(path)
        assert reloaded.load() == 1
        assert reloaded.get(key) == result
        assert key in reloaded
        assert reloaded.config == study_digest(study)

    def test_header_written_once_and_verified(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "cp.jsonl"
        digest = study_digest(study)
        with RunStore(path) as store:
            store.begin(config=digest)
            store.append(key, result)
        # A second session appends without rewriting the header.
        again = RunStore(path)
        again.load()
        with again:
            again.begin(config=digest)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == 3
        assert sum(1 for line in lines if '"format"' in line) == 1
        again2 = RunStore(path)
        again2.load()
        again2.verify(digest)

    def test_verify_rejects_different_world(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "cp.jsonl"
        with RunStore(path) as store:
            store.begin(config=study_digest(study))
            store.append(key, result)
        other = Study(config=InternetConfig.tiny(master_seed=7), budget=500)
        reloaded = RunStore(path)
        reloaded.load()
        with pytest.raises(ValueError, match="different"):
            reloaded.verify(study_digest(other))

    def test_verify_rejects_missing_digest(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with RunStore(path) as store:
            store.begin()  # no config digest recorded
        reloaded = RunStore(path)
        reloaded.load()
        with pytest.raises(ValueError, match="no config digest"):
            reloaded.verify("sha256:anything")

    def test_torn_final_line_is_dropped(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "cp.jsonl"
        with RunStore(path) as store:
            store.begin(config=study_digest(study))
            store.append(key, result)
            store.append(key, result)
        # Simulate a crash mid-append: truncate the last record.
        text = path.read_text()
        path.write_text(text[: len(text) - 30])
        reloaded = RunStore(path)
        assert reloaded.load() == 1
        assert reloaded.dropped == 1

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "cp.jsonl"
        with RunStore(path) as store:
            store.begin(config=study_digest(study))
            store.append(key, result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt\n")
            handle.write(
                json.dumps({"key": list(key[:2]) + [key[2].value, key[3]],
                            "result": {}}) + "\n"
            )
        with pytest.raises(ValueError, match="corrupt"):
            RunStore(path).load()

    def test_v1_document_is_rejected_naming_the_path(self, tmp_path):
        study = make_study()
        _, result = run_one(study)
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"format": 1, "results": [result_to_dict(result)]})
        )
        with pytest.raises(ValueError, match="old.json"):
            RunStore(path).load()
        with pytest.raises(ValueError, match="old.json"):
            load_results(path)

    def test_format2_header_is_rejected_naming_the_path(self, tmp_path):
        study = make_study()
        key, result = run_one(study)
        path = tmp_path / "v2.jsonl"
        with RunStore(path) as store:
            store.begin(config=study_digest(study))
            store.append(key, result)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format"] = 2
        path.write_text(
            "\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="v2.jsonl"):
            RunStore(path).load()

    def test_records_carrying_wall_s_load_and_resume(self, tmp_path):
        """Format-3 checkpoints written when records carried a per-cell
        ``wall_s`` still load (the key is ignored) and still resume."""
        study = make_study()
        spec = make_spec(study)
        path = tmp_path / "cp.jsonl"
        baseline = run_grid(study, spec, policy=ExecutionPolicy(checkpoint=path))
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for wall, record in enumerate(records, start=1):
            record["wall_s"] = float(wall)
        path.write_text(
            "\n".join([lines[0], *map(json.dumps, records)]) + "\n",
            encoding="utf-8",
        )
        reread = RunStore(path)
        assert reread.load() == spec.size
        assert {key[:3]: reread.get(key) for key in reread.keys()} == baseline.runs

        resumed_study = make_study()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            resumed = run_grid(
                resumed_study,
                make_spec(resumed_study),
                policy=ExecutionPolicy(checkpoint=path, resume=True),
            )
        assert telemetry.counters["checkpoint.cells_loaded"] == spec.size
        assert telemetry.counters.get("meta.cache_misses", 0) == 0
        assert resumed.runs == baseline.runs

    def test_dump_and_load_are_runstore_wrappers(self, tmp_path):
        study = make_study()
        _, result = run_one(study)
        path = tmp_path / "results.jsonl"
        assert dump_results(path, [result, result]) == 2
        assert load_results(path) == [result, result]  # order and duplicates
        assert json.loads(path.read_text().splitlines()[0])["format"] == 3


# ---------------------------------------------------------------------------
# ExecutionPolicy: validation and the policy-only surface
# ---------------------------------------------------------------------------


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(workers="many")
        with pytest.raises(ValueError):
            ExecutionPolicy(cell_timeout=0.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ExecutionPolicy(cell_timeout=value)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        assert ExecutionPolicy(workers="auto").workers == "auto"

    def test_resilient_property(self):
        assert not ExecutionPolicy().resilient
        assert not ExecutionPolicy(workers=8).resilient
        assert ExecutionPolicy(checkpoint="cp.jsonl").resilient
        assert ExecutionPolicy(fault_plan=FaultPlan()).resilient
        assert ExecutionPolicy(cell_timeout=5.0).resilient

    def test_run_matrix_parallel_kwarg_raises(self):
        study = make_study()
        with pytest.raises(TypeError, match="unexpected keyword argument 'parallel'"):
            study.run_matrix(
                [study.constructions.all_active],
                ports=(Port.ICMP,),
                tga_names=("6tree",),
                budget=BUDGET,
                parallel=2,
            )

    def test_telemetry_kwarg_raises(self):
        study = make_study()
        spec = make_spec(study)
        with pytest.raises(TypeError, match="unexpected keyword argument 'telemetry'"):
            run_grid(study, spec, telemetry=Telemetry())

    def test_telemetry_via_policy_is_honoured(self):
        study = make_study()
        spec = make_spec(study)
        telemetry = Telemetry()
        run_grid(study, spec, policy=ExecutionPolicy(telemetry=telemetry))
        assert telemetry.counters.get("meta.cache_misses", 0) > 0

    def test_policy_path_emits_no_deprecation_warning(self):
        study = make_study()
        spec = make_spec(study)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_grid(study, spec, policy=ExecutionPolicy())

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda study, **kw: run_grid(study, make_spec(study), **kw),
            lambda study, **kw: study.precompute([], **kw),
            lambda study, **kw: study.run_matrix([], **kw),
            run_rq1a,
            run_rq1b,
            run_rq2,
            run_cross_port,
            run_rq3,
            run_rq4,
        ],
        ids=[
            "run_grid",
            "Study.precompute",
            "Study.run_matrix",
            "run_rq1a",
            "run_rq1b",
            "run_rq2",
            "run_cross_port",
            "run_rq3",
            "run_rq4",
        ],
    )
    def test_stray_execution_kwarg_is_a_type_error(self, entry_point):
        """Execution settings travel only in ``policy=``: a stray
        ``workers=`` is an ordinary unexpected keyword argument."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'workers'"):
            entry_point(make_study(), workers=2)


# ---------------------------------------------------------------------------
# FaultPlan: deterministic injection
# ---------------------------------------------------------------------------


class TestFaultPlan:
    KEY = ("6tree", "all-active", Port.ICMP, 400)

    def test_rule_matching_and_max_fires(self):
        rule = FaultRule("crash", tga="6tree", max_fires=2)
        assert rule.matches(self.KEY, attempt=0)
        assert rule.matches(self.KEY, attempt=1)
        assert not rule.matches(self.KEY, attempt=2)
        assert not rule.matches(("6gen",) + self.KEY[1:], attempt=0)

    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=5, rate=0.5)
        decisions = [plan.decide(self.KEY, attempt) for attempt in range(20)]
        assert decisions == [plan.decide(self.KEY, a) for a in range(20)]
        assert any(d is not None for d in decisions)
        assert any(d is None for d in decisions)

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=5, rate=0.0)
        assert all(plan.decide(self.KEY, a) is None for a in range(50))

    def test_inline_fire_raises_for_every_kind(self):
        for kind in ("crash", "stall", "exception"):
            plan = FaultPlan(rules=(FaultRule(kind),))
            with pytest.raises(FaultInjected) as err:
                plan.fire(self.KEY, attempt=0, allow_exit=False)
            assert err.value.kind == kind

    def test_parse_cli_spec(self):
        plan = FaultPlan.parse("crash:6gen:icmp:3")
        (rule,) = plan.rules
        assert (rule.kind, rule.tga, rule.port, rule.max_fires) == (
            "crash", "6gen", "icmp", 3,
        )
        # Aliases resolve; unknown names are rejected loudly.
        assert FaultPlan.parse("stall:entropy_ip").rules[0].tga == "eip"
        with pytest.raises(ValueError):
            FaultPlan.parse("meltdown:6gen")
        with pytest.raises(KeyError):
            FaultPlan.parse("crash:no-such-tga")

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("bogus")
        with pytest.raises(ValueError):
            FaultRule("crash", max_fires=0)
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)


# ---------------------------------------------------------------------------
# Serial fault tolerance (inline retries)
# ---------------------------------------------------------------------------


class TestSerialFaultTolerance:
    def test_retry_recovers_and_trace_matches_fault_free_run(self):
        baseline_study = make_study()
        spec = make_spec(baseline_study)
        baseline_sink = MemorySink()
        baseline = run_grid(
            baseline_study,
            spec,
            policy=ExecutionPolicy(telemetry=Telemetry(sinks=[baseline_sink])),
        )

        faulted_study = make_study()
        plan = FaultPlan(rules=(FaultRule("exception", tga="6gen"),))
        faulted_sink = MemorySink()
        faulted = run_grid(
            faulted_study,
            make_spec(faulted_study),
            policy=ExecutionPolicy(
                fault_plan=plan,
                max_retries=2,
                telemetry=Telemetry(sinks=[faulted_sink]),
            ),
        )
        assert faulted.complete
        for key in baseline.runs:
            assert baseline.runs[key] == faulted.runs[key]
        # Stripped of fault/checkpoint noise, the traces are identical.
        assert strip_variant_events(baseline_sink.events) == strip_variant_events(
            faulted_sink.events
        )
        assert faulted_sink.events != baseline_sink.events  # fault noise existed

    def test_genuine_exceptions_propagate(self):
        """Only injected faults are retried — real bugs must surface."""
        study = make_study()
        executor = ParallelExecutor(
            study, max_workers=1, policy=ExecutionPolicy(max_retries=5)
        )
        dataset = study.constructions.all_active
        with pytest.raises(ValueError):
            executor.run_cells([("6tree", dataset, Port.ICMP, -1)])

    def test_serial_failure_records_cells(self):
        study = make_study()
        plan = FaultPlan(rules=(FaultRule("exception", tga="6gen", max_fires=99),))
        results = run_grid(
            study,
            make_spec(study),
            policy=ExecutionPolicy(fault_plan=plan, max_retries=1),
        )
        assert [f.tga for f in results.failed_cells] == ["6gen"]
        failure = results.failed_cells[0]
        assert failure.attempts == 2  # initial try + one retry
        assert failure.reason == "exception"
        with pytest.raises(KeyError, match="6gen"):
            results.get("6gen", "all-active", Port.ICMP)


# ---------------------------------------------------------------------------
# The headline property: crash mid-grid, resume, bit-identical results
# ---------------------------------------------------------------------------


class TestCrashResumeProperty:
    def test_interrupted_resumed_grid_is_bit_identical(self, tmp_path):
        baseline_study = make_study()
        spec = make_spec(baseline_study, ports=(Port.ICMP, Port.TCP80))
        baseline = run_grid(baseline_study, spec)

        checkpoint = tmp_path / "cp.jsonl"

        # Session 1: a worker crash kills the 6gen cells permanently
        # (max_fires > max_retries) — the grid degrades to a partial
        # result, with everything completed persisted to the checkpoint.
        crashed_study = make_study()
        plan = FaultPlan(rules=(FaultRule("crash", tga="6gen", max_fires=99),))
        partial = run_grid(
            crashed_study,
            make_spec(crashed_study, ports=(Port.ICMP, Port.TCP80)),
            policy=ExecutionPolicy(
                workers=2,
                fault_plan=plan,
                max_retries=0,
                checkpoint=checkpoint,
            ),
        )
        assert not partial.complete
        assert {f.tga for f in partial.failed_cells} == {"6gen"}
        completed = set(partial.runs)
        assert completed  # the crash must not sink completed cells

        # Session 2: resume on a fresh study, no fault plan.  Completed
        # cells load from the checkpoint and are never re-executed.
        resumed_study = make_study()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            resumed = run_grid(
                resumed_study,
                make_spec(resumed_study, ports=(Port.ICMP, Port.TCP80)),
                policy=ExecutionPolicy(
                    workers=2, checkpoint=checkpoint, resume=True
                ),
            )
        assert resumed.complete
        assert telemetry.counters["checkpoint.cells_loaded"] == len(completed)
        assert telemetry.counters["meta.parallel.cells_executed"] == (
            spec.size - len(completed)
        )

        # Bit-identical to the uninterrupted run, cell for cell.
        assert set(resumed.runs) == set(baseline.runs)
        for key in baseline.runs:
            assert baseline.runs[key] == resumed.runs[key]

        # The checkpoint now holds the complete grid and replays it.
        store = RunStore(checkpoint)
        store.load()
        store.verify(study_digest(make_study()))
        assert len(store.keys()) == spec.size

    def test_resume_refuses_a_different_world(self, tmp_path):
        checkpoint = tmp_path / "cp.jsonl"
        study = make_study()
        spec = make_spec(study)
        run_grid(study, spec, policy=ExecutionPolicy(checkpoint=checkpoint))

        other = Study(config=InternetConfig.tiny(master_seed=9), budget=500, round_size=200)
        with pytest.raises(ValueError, match="different"):
            run_grid(
                other,
                make_spec(other),
                policy=ExecutionPolicy(checkpoint=checkpoint, resume=True),
            )

    def test_fault_recovered_parallel_trace_matches_fault_free(self):
        spec_ports = (Port.ICMP, Port.TCP80)
        clean_study = make_study()
        clean_sink = MemorySink()
        run_grid(
            clean_study,
            make_spec(clean_study, ports=spec_ports),
            policy=ExecutionPolicy(
                workers=2, telemetry=Telemetry(sinks=[clean_sink])
            ),
        )
        crashed_study = make_study()
        crashed_sink = MemorySink()
        plan = FaultPlan(rules=(FaultRule("crash", tga="6gen", port="icmp"),))
        recovered = run_grid(
            crashed_study,
            make_spec(crashed_study, ports=spec_ports),
            policy=ExecutionPolicy(
                workers=2,
                fault_plan=plan,
                max_retries=2,
                telemetry=Telemetry(sinks=[crashed_sink]),
            ),
        )
        assert recovered.complete
        assert strip_variant_events(clean_sink.events) == strip_variant_events(
            crashed_sink.events
        )

    def test_timeout_reaps_stalled_cell(self):
        baseline_study = make_study()
        spec = make_spec(baseline_study)
        baseline = run_grid(baseline_study, spec)

        stalled_study = make_study()
        plan = FaultPlan(
            rules=(FaultRule("stall", tga="6gen"),), stall_seconds=120.0
        )
        results = run_grid(
            stalled_study,
            make_spec(stalled_study),
            policy=ExecutionPolicy(
                workers=2, fault_plan=plan, cell_timeout=8.0, max_retries=2
            ),
        )
        assert results.complete
        for key in baseline.runs:
            assert baseline.runs[key] == results.runs[key]

    def test_timeout_never_counts_queue_time(self):
        """A cell's deadline starts when it is dispatched to a worker,
        not when the grid starts: twelve cells of 0.5 s+ on two workers
        take over 3 s in all, yet none runs near the 2 s timeout."""
        study = make_study()
        telemetry = Telemetry()
        plan = FaultPlan(rate=1.0, rate_kind="busy", busy_seconds=0.5)
        results = run_grid(
            study,
            make_spec(study, ports=ALL_PORTS),
            policy=ExecutionPolicy(
                workers=2,
                fault_plan=plan,
                cell_timeout=2.0,
                max_retries=0,
                telemetry=telemetry,
            ),
        )
        assert results.complete
        assert telemetry.counters.get("fault.timeout", 0) == 0


# ---------------------------------------------------------------------------
# GridResults.get: descriptive KeyErrors and alias resolution
# ---------------------------------------------------------------------------


class TestGridResultsGet:
    def test_alias_resolves_to_canonical_cell(self):
        study = make_study()
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=("entropy_ip",),  # alias of "eip"
            ports=(Port.ICMP,),
            budget=BUDGET,
        )
        results = run_grid(study, spec)
        run = results.get("entropy_ip", "all-active", Port.ICMP)
        assert run.tga_name == "eip"
        assert results.get("eip", "all-active", Port.ICMP) is run
        assert results.by_tga("entropy_ip") == [run]

    def test_missing_cell_names_the_cell(self):
        study = make_study()
        results = run_grid(study, make_spec(study))
        with pytest.raises(KeyError, match=r"6tree.*no-such-dataset"):
            results.get("6tree", "no-such-dataset", Port.ICMP)

    def test_unknown_tga_names_cell_and_reason(self):
        study = make_study()
        results = run_grid(study, make_spec(study))
        with pytest.raises(KeyError, match="nonsense"):
            results.get("nonsense", "all-active", Port.ICMP)
