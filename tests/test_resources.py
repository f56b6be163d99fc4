"""Tests for repro.telemetry.resources: the resource flight recorder.

Covers the /proc readers, the sampler's event/gauge/watermark output,
the heartbeat file protocol and the executor's stall rule, the
sanctioned-variant bit-identity property (grid results and stripped
traces must not move when sampling is toggled), executor-level stall
detection in O(sample interval), and the peak-RSS regression gate.
"""

import json
import math
import time

import pytest

from repro.experiments import (
    ExecutionPolicy,
    FaultPlan,
    FaultRule,
    GridSpec,
    Study,
    run_grid,
)
from repro.experiments.parallel import _Dispatch, _overdue
from repro.internet import InternetConfig, Port
from repro.telemetry import (
    SANCTIONED_VARIANT_PREFIXES,
    MemorySink,
    ResourceSampler,
    ResourceTimeline,
    Telemetry,
    gc_collections,
    read_cpu_seconds,
    read_rss_bytes,
    strip_variant_events,
    to_prometheus_text,
    trace_peak_rss_mb,
)
from repro.telemetry.analysis import NONDETERMINISTIC_PREFIXES, Trace
from repro.telemetry.resources import (
    ResourceSpec,
    read_heartbeat,
    write_heartbeat,
)

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# process readers


class TestProcessReaders:
    def test_rss_is_positive_and_plausible(self):
        rss = read_rss_bytes()
        assert isinstance(rss, int)
        # A python process is bigger than 1 MiB and (here) smaller than 64 GiB.
        assert MB < rss < 64 * 1024 * MB

    def test_cpu_seconds_monotone(self):
        before = read_cpu_seconds()
        deadline = time.monotonic() + 0.05
        while time.monotonic() < deadline:
            sum(range(1000))
        after = read_cpu_seconds()
        assert before >= 0.0
        assert after >= before

    def test_gc_collections_is_nonnegative_int(self):
        count = gc_collections()
        assert isinstance(count, int)
        assert count >= 0


# ---------------------------------------------------------------------------
# heartbeat protocol


class TestHeartbeatFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "0.hb"
        write_heartbeat(path, 1.25)
        assert read_heartbeat(path) == 1.25

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "beat.hb"
        write_heartbeat(path, 0.5)
        write_heartbeat(path, 0.75)
        assert read_heartbeat(path) == 0.75
        assert [entry.name for entry in tmp_path.iterdir()] == ["beat.hb"]

    def test_missing_file_reads_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "absent.hb") is None

    def test_torn_file_reads_none(self, tmp_path):
        path = tmp_path / "torn.hb"
        path.write_text("garbage not a number at all")
        assert read_heartbeat(path) is None


class TestOverdueRule:
    """The executor's one stall rule, judged against a hand-set clock:
    ``cell_timeout`` counts from submission, and with heartbeats on a
    dispatch whose CPU stops advancing is reaped after the grace."""

    TIMEOUT = 60.0
    GRACE = 1.0

    def judge(self, dispatch, now, cpu):
        return _overdue(dispatch, now, cpu, self.TIMEOUT, self.GRACE)

    def test_no_heartbeat_yet_only_the_deadline_applies(self):
        dispatch = _Dispatch(index=0, beat="0.hb", submitted=100.0)
        for now in (100.5, 110.0, 159.9):
            judged, verdict = self.judge(dispatch, now, None)
            assert verdict is None
            assert judged == dispatch  # nothing to anchor on
        _, verdict = self.judge(dispatch, 160.0, None)
        assert verdict[0] == "timeout"

    def test_idle_cpu_under_fresh_beats_reports_stall(self):
        dispatch = _Dispatch(index=0, beat="0.hb", submitted=100.0)
        dispatch, verdict = self.judge(dispatch, 100.1, 5.0)  # anchors
        assert verdict is None
        assert (dispatch.cpu, dispatch.progressed) == (5.0, 100.1)
        dispatch, verdict = self.judge(dispatch, 100.6, 5.0)
        assert verdict is None  # idle, but for less than the grace
        _, verdict = self.judge(dispatch, 101.6, 5.001)
        assert verdict[0] == "stall"
        assert "CPU idle" in verdict[1]

    def test_busy_worker_reanchors_but_still_times_out(self):
        dispatch = _Dispatch(index=0, beat="0.hb", submitted=100.0)
        now, cpu = 100.0, 1.0
        while now + 0.8 < 100.0 + self.TIMEOUT:
            now += 0.8
            cpu += 0.7  # hard at work
            dispatch, verdict = self.judge(dispatch, now, cpu)
            assert verdict is None
            assert (dispatch.cpu, dispatch.progressed) == (cpu, now)
        _, verdict = self.judge(dispatch, 100.0 + self.TIMEOUT, cpu + 0.7)
        assert verdict == ("timeout", f"exceeded cell_timeout={self.TIMEOUT}s")

    def test_stopped_beats_report_stall(self, tmp_path):
        """A frozen worker writes no more beats: its file keeps the last
        CPU reading, which stops advancing, so the CPU rule reaps it."""
        path = tmp_path / "0.hb"
        dispatch = _Dispatch(index=0, beat=str(path), submitted=100.0)
        now = 100.0
        for cpu in (0.5, 0.9, 1.3):  # a live worker's last beats
            write_heartbeat(path, cpu)
            now += 0.4
            dispatch, verdict = self.judge(dispatch, now, read_heartbeat(path))
            assert verdict is None
        last_progress = now
        while now - last_progress < self.GRACE:
            dispatch, verdict = self.judge(dispatch, now, read_heartbeat(path))
            assert verdict is None
            now += 0.25
        _, verdict = self.judge(dispatch, now, read_heartbeat(path))
        assert verdict[0] == "stall"


# ---------------------------------------------------------------------------
# sampler unit behaviour (injected readers; no real timing dependence)


def make_sampler(telemetry=None, rss_values=None, **kwargs):
    values = list(rss_values or [100 * MB])

    def rss():
        return values.pop(0) if len(values) > 1 else values[0]

    return ResourceSampler(
        telemetry=telemetry,
        interval=10.0,  # never fires on its own in a test
        rss_reader=rss,
        cpu_reader=lambda: 1.5,
        **kwargs,
    )


class TestResourceSampler:
    def test_sample_emits_event_counters_and_gauges(self):
        sink = MemorySink()
        tel = Telemetry(sinks=[sink])
        sampler = make_sampler(telemetry=tel, rss_values=[100 * MB])
        sample = sampler.sample_now()
        assert sample["rss_mb"] == 100.0
        assert sample["cpu_s"] == 1.5
        events = [e for e in sink.events if e.get("type") == "resource"]
        assert events and events[0]["kind"] == "sample"
        assert events[0]["rank"] == "parent"
        assert tel.counters["resource.samples"] == 1
        assert tel.gauges["resource.rss_mb"] == 100.0
        assert tel.gauges["resource.peak_rss_mb"] == 100.0

    def test_peak_tracks_maximum_not_last(self):
        tel = Telemetry()
        sampler = make_sampler(
            telemetry=tel, rss_values=[100 * MB, 300 * MB, 120 * MB, 120 * MB]
        )
        for _ in range(3):
            sampler.sample_now()
        assert sampler.peak_rss_bytes == 300 * MB
        assert tel.gauges["resource.peak_rss_mb"] == 300.0
        assert tel.gauges["resource.rss_mb"] == 120.0

    def test_span_and_tga_tagging(self):
        sink = MemorySink()
        tel = Telemetry(sinks=[sink])
        sampler = make_sampler(telemetry=tel)
        with tel.span("grid"):
            with tel.span("cell", tga="6tree"):
                sampler.sample_now()
        event = [e for e in sink.events if e.get("type") == "resource"][0]
        assert event["span"] == "grid/cell"
        assert event["tga"] == "6tree"

    def test_watermarks_fire_once_each(self):
        sink = MemorySink()
        tel = Telemetry(sinks=[sink])
        sampler = make_sampler(
            telemetry=tel,
            rss_values=[90 * MB, 90 * MB, 110 * MB, 110 * MB, 110 * MB],
            budget_mb=100,
        )
        for _ in range(4):
            sampler.sample_now()
        marks = [
            e
            for e in sink.events
            if e.get("type") == "resource" and e.get("kind") == "watermark"
        ]
        assert [m["level"] for m in marks] == ["warn", "degrade"]
        assert tel.counters["resource.watermark.warn"] == 1
        assert tel.counters["resource.watermark.degrade"] == 1
        assert sampler.degraded

    def test_heartbeats_piggyback_on_samples(self, tmp_path):
        sink = MemorySink()
        tel = Telemetry(sinks=[sink])
        path = tmp_path / "beat.hb"
        sampler = make_sampler(telemetry=tel, heartbeat_path=path)
        sampler.sample_now()
        sampler.sample_now()
        assert read_heartbeat(path) == 1.5
        assert tel.counters["heartbeat.beats"] == 2
        assert len([e for e in sink.events if e.get("type") == "heartbeat"]) == 2

    def test_provider_failure_never_breaks_a_sample(self):
        def boom():
            raise RuntimeError("provider exploded")

        sampler = make_sampler(providers={"bad": boom, "good": lambda: 4.0})
        sample = sampler.sample_now()
        assert "bad" not in sample
        assert sample["good"] == 4.0

    def test_start_stop_idempotent_and_final_sample(self):
        tel = Telemetry()
        sampler = make_sampler(telemetry=tel)
        assert sampler.start() is sampler
        sampler.start()  # no-op
        before = sampler.samples
        sampler.stop()  # joins and takes a final synchronous sample
        sampler.stop()  # no-op
        assert sampler.samples >= max(before, 1) + 1 - 1  # at least one more
        assert tel.counters["resource.samples"] == sampler.samples

    def test_telemetry_attachable_after_start(self):
        tel = Telemetry()
        sampler = make_sampler(telemetry=None)
        sampler.sample_now()  # no registry yet: still counts and peaks
        assert sampler.samples == 1
        sampler.telemetry = tel
        sampler.sample_now()
        assert tel.counters["resource.samples"] == 1

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)
        with pytest.raises(ValueError):
            ResourceSpec(interval=-1.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ResourceSampler(interval=value)
            with pytest.raises(ValueError):
                ResourceSpec(interval=value)


class TestExecutionPolicyValidation:
    def test_resource_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(resource_interval=0.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ExecutionPolicy(resource_interval=value)


# ---------------------------------------------------------------------------
# the bit-identity property: sampling must never move results or the
# deterministic core of the trace


GRID_TGAS = ("6tree", "eip")
GRID_BUDGET = 300


def sampled_grid(workers: int | None, interval: float | None):
    study = Study(config=InternetConfig.tiny(), budget=400, round_size=200)
    spec = GridSpec(
        datasets=(study.constructions.all_active,),
        tga_names=GRID_TGAS,
        ports=(Port.ICMP,),
        budget=GRID_BUDGET,
    )
    sink = MemorySink()
    telemetry = Telemetry(sinks=[sink])
    policy = ExecutionPolicy(
        workers=workers, telemetry=telemetry, resource_interval=interval
    )
    results = run_grid(study, spec, policy=policy)
    telemetry.close()
    return results, telemetry, sink


def assert_identical_runs(a, b) -> None:
    assert a.clean_hits == b.clean_hits
    assert a.aliased_hits == b.aliased_hits
    assert a.active_ases == b.active_ases
    assert a.metrics == b.metrics
    assert a.round_history == b.round_history


def deterministic_counters(telemetry: Telemetry) -> dict:
    return {
        name: value
        for name, value in telemetry.counters.items()
        if not name.startswith(SANCTIONED_VARIANT_PREFIXES)
    }


class TestSamplingBitIdentity:
    """Grid results and the stripped trace are invariant under the
    sampler — per execution strategy — and the deterministic counters /
    span tree are invariant across strategies too."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_results_and_stripped_trace_invariant_per_strategy(self, workers):
        plain_results, plain_tel, plain_sink = sampled_grid(workers, None)
        sampled_results, sampled_tel, sampled_sink = sampled_grid(workers, 0.02)

        assert set(plain_results.runs) == set(sampled_results.runs)
        for key in plain_results.runs:
            assert_identical_runs(plain_results.runs[key], sampled_results.runs[key])

        # The sampled trace genuinely recorded something...
        assert sampled_tel.counters.get("resource.samples", 0) > 0
        # ...and stripping the sanctioned event types recovers the
        # unsampled stream byte for byte.
        assert strip_variant_events(plain_sink.events) == strip_variant_events(
            sampled_sink.events
        )
        assert deterministic_counters(plain_tel) == deterministic_counters(
            sampled_tel
        )
        assert plain_tel.root.snapshot() == sampled_tel.root.snapshot()

    def test_deterministic_core_invariant_across_strategies(self):
        serial_results, serial_tel, _ = sampled_grid(None, 0.02)
        parallel_results, parallel_tel, _ = sampled_grid(2, 0.02)

        assert set(serial_results.runs) == set(parallel_results.runs)
        for key in serial_results.runs:
            assert_identical_runs(
                serial_results.runs[key], parallel_results.runs[key]
            )
        assert deterministic_counters(serial_tel) == deterministic_counters(
            parallel_tel
        )
        assert {
            name: hist.snapshot() for name, hist in serial_tel.histograms.items()
        } == {
            name: hist.snapshot() for name, hist in parallel_tel.histograms.items()
        }
        assert serial_tel.root.snapshot() == parallel_tel.root.snapshot()

    def test_parallel_trace_merges_worker_samples(self):
        _, tel, sink = sampled_grid(2, 0.02)
        ranks = {
            e.get("rank")
            for e in sink.events
            if e.get("type") == "resource" and e.get("kind") == "sample"
        }
        assert "parent" in ranks
        assert any(str(rank).startswith("w") for rank in ranks)
        # Peak gauges max-merge: the merged figure is at least every
        # individual sample.
        timeline = ResourceTimeline.from_trace(
            Trace(path="<memory>", events=sink.events, snapshot=sink.snapshot)
        )
        assert tel.gauges["resource.peak_rss_mb"] >= timeline.peak_rss_mb - 0.01


# ---------------------------------------------------------------------------
# executor-level stall detection (the acceptance scenario)


def sibling_grid(study: Study) -> GridSpec:
    """Every generator on three ports: 24 cells."""
    return GridSpec(
        datasets=(study.constructions.all_active,),
        ports=(Port.ICMP, Port.TCP80, Port.TCP443),
    )


class TestHeartbeatStallDetection:
    def test_stalled_worker_detected_well_before_cell_timeout(self):
        """An injected stall sleeps the worker's main thread for an hour;
        heartbeats must get the cell reaped and retried in O(interval),
        not O(cell_timeout)."""
        cell_timeout = 60.0
        study = Study(config=InternetConfig.tiny(), budget=400, round_size=200)
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=GRID_TGAS,
            ports=(Port.ICMP,),
            budget=GRID_BUDGET,
        )
        telemetry = Telemetry()
        plan = FaultPlan(rules=(FaultRule("stall", tga="6tree"),))
        policy = ExecutionPolicy(
            workers=2,
            fault_plan=plan,
            max_retries=2,
            cell_timeout=cell_timeout,
            resource_interval=0.15,
            telemetry=telemetry,
        )
        start = time.monotonic()
        results = run_grid(study, spec, policy=policy)
        elapsed = time.monotonic() - start

        assert results.complete
        assert elapsed < cell_timeout / 2
        assert telemetry.counters.get("fault.stall", 0) >= 1

        baseline_study = Study(
            config=InternetConfig.tiny(), budget=400, round_size=200
        )
        baseline = run_grid(
            baseline_study,
            GridSpec(
                datasets=(baseline_study.constructions.all_active,),
                tga_names=GRID_TGAS,
                ports=(Port.ICMP,),
                budget=GRID_BUDGET,
            ),
        )
        for key in baseline.runs:
            assert_identical_runs(baseline.runs[key], results.runs[key])

    def test_stall_is_judged_while_siblings_finish(self):
        """Busy siblings finishing every ~0.1 s wake the executor more
        often than the sample interval.  The stalled cell must still be
        judged on those wake-ups and reaped early, not only once the
        other worker has drained the rest of the grid."""
        study = Study(config=InternetConfig.tiny(), budget=400, round_size=200)
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        plan = FaultPlan(
            rules=(FaultRule("stall", tga="6tree", port="icmp"),),
            rate=1.0,
            rate_kind="busy",
            busy_seconds=0.1,
        )
        policy = ExecutionPolicy(
            workers=2,
            fault_plan=plan,
            cell_timeout=60.0,
            resource_interval=0.25,
            telemetry=telemetry,
        )
        results = run_grid(study, sibling_grid(study), policy=policy)

        harvested = 0
        for event in sink.events:
            if event["type"] == "fault":
                break
            if event["type"] == "sched" and event["kind"] == "cell":
                harvested += 1
        assert harvested < 11, f"{harvested} of 23 siblings ran before the reap"
        assert telemetry.counters.get("fault.stall", 0) == 1
        assert results.complete

        serial_study = Study(config=InternetConfig.tiny(), budget=400, round_size=200)
        serial = run_grid(serial_study, sibling_grid(serial_study))
        assert set(serial.runs) == set(results.runs)
        for key in serial.runs:
            assert_identical_runs(serial.runs[key], results.runs[key])

    def test_slow_but_alive_worker_is_never_reaped(self):
        """The negative control: a busy fault burns CPU well past the
        heartbeat grace; CPU progress keeps re-anchoring the monitor, so
        the cell completes without a stall charge."""
        study = Study(config=InternetConfig.tiny(), budget=400, round_size=200)
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=GRID_TGAS,
            ports=(Port.ICMP,),
            budget=GRID_BUDGET,
        )
        telemetry = Telemetry()
        plan = FaultPlan(
            rules=(FaultRule("busy", tga="6tree"),), busy_seconds=1.2
        )
        policy = ExecutionPolicy(
            workers=2,
            fault_plan=plan,
            max_retries=2,
            cell_timeout=60.0,
            resource_interval=0.15,
            telemetry=telemetry,
        )
        results = run_grid(study, spec, policy=policy)
        assert results.complete
        assert telemetry.counters.get("fault.stall", 0) == 0


# ---------------------------------------------------------------------------
# analysis: timelines, prometheus, and the peak-RSS gate


def synthetic_trace(peak: float = 200.0) -> Trace:
    events = [
        {"type": "resource", "kind": "sample", "seq": 1, "rank": "parent",
         "t": 0.0, "rss_mb": 100.0, "cpu_s": 0.5, "gc": 3,
         "span": "grid/cell/prepare", "tga": "6tree"},
        {"type": "resource", "kind": "sample", "seq": 2, "rank": "w11",
         "t": 0.1, "rss_mb": peak, "cpu_s": 0.7, "gc": 4,
         "span": "cell/generate", "tga": "eip"},
        {"type": "resource", "kind": "sample", "seq": 3, "rank": "parent",
         "t": 0.2, "rss_mb": 150.0, "cpu_s": 0.9, "gc": 5},
        {"type": "resource", "kind": "watermark", "seq": 4, "level": "warn",
         "rank": "w11", "rss_mb": peak, "budget_mb": 256, "ratio": 0.78},
        {"type": "heartbeat", "seq": 5, "rank": "w11", "cpu_s": 0.7},
    ]
    return Trace(path="<synthetic>", events=events)


class TestResourceTimeline:
    def test_partition_and_ranks(self):
        timeline = ResourceTimeline.from_trace(synthetic_trace())
        assert bool(timeline)
        assert len(timeline.samples) == 3
        assert len(timeline.watermarks) == 1
        assert len(timeline.heartbeats) == 1
        assert timeline.ranks == ["parent", "w11"]
        assert len(timeline.series("parent")) == 2

    def test_peaks_and_attribution(self):
        timeline = ResourceTimeline.from_trace(synthetic_trace())
        assert timeline.peak_rss_mb == 200.0
        assert timeline.peak_by_phase() == {
            "generate": 200.0,
            "(idle)": 150.0,
            "prepare": 100.0,
        }
        assert timeline.peak_by_tga() == {"eip": 200.0, "6tree": 100.0}

    def test_summary_shape(self):
        summary = ResourceTimeline.from_trace(synthetic_trace()).summary()
        assert summary["samples"] == 3
        assert summary["peak_rss_mb"] == 200.0
        assert summary["watermarks"][0]["level"] == "warn"
        assert summary["heartbeats"] == 1

    def test_empty_trace_is_falsy(self):
        timeline = ResourceTimeline.from_trace(Trace(path="<empty>", events=[]))
        assert not timeline
        assert timeline.peak_rss_mb == 0.0

    def test_trace_peak_prefers_merged_gauge(self):
        trace = synthetic_trace()
        assert trace_peak_rss_mb(trace) == 200.0  # event scan fallback
        trace.snapshot = {"gauges": {"resource.peak_rss_mb": 512.0}}
        assert trace_peak_rss_mb(trace) == 512.0


class TestPrometheusResourceExport:
    def test_help_and_type_lines_for_resource_gauges(self):
        text = to_prometheus_text(
            {
                "counters": {"resource.samples": 5, "heartbeat.beats": 4},
                "gauges": {"resource.peak_rss_mb": 123.5},
            }
        )
        assert "# HELP repro_resource_samples_total" in text
        assert "# TYPE repro_resource_samples_total counter" in text
        assert "# HELP repro_resource_peak_rss_mb" in text
        assert "# TYPE repro_resource_peak_rss_mb gauge" in text
        assert "repro_resource_peak_rss_mb 123.5" in text
        assert "repro_heartbeat_beats_total 4" in text

    def test_every_family_gets_a_help_line(self):
        text = to_prometheus_text({"counters": {"scan.probes": 1, "custom.x": 2}})
        helps = [line for line in text.splitlines() if line.startswith("# HELP")]
        types = [line for line in text.splitlines() if line.startswith("# TYPE")]
        assert len(helps) == len(types) == 2

    def test_span_label_values_escaped(self):
        tel = Telemetry()
        with tel.span('grid "odd"'):
            with tel.span("sub\\cell"):
                pass
        text = to_prometheus_text(tel.snapshot())
        assert '\\"odd\\"' in text
        assert "sub\\\\cell" in text


class TestPeakRssGate:
    """`repro trace check` must fail a synthetic 10x RSS inflation and
    pass a trace against itself."""

    def record_trace(self, tmp_path, name: str) -> str:
        from repro.cli import main as cli_main

        path = tmp_path / name
        status = cli_main(
            [
                "--scale", "tiny", "--budget", "300",
                "--telemetry", str(path),
                "--sample-resources", "0.05",
                "study", "grid", "--tgas", "6tree", "--ports", "icmp",
            ]
        )
        assert status == 0
        return str(path)

    def inflate(self, path: str, factor: float) -> str:
        inflated = path.replace(".jsonl", ".inflated.jsonl")
        with open(path, encoding="utf-8") as src, open(
            inflated, "w", encoding="utf-8"
        ) as dst:
            for line in src:
                record = json.loads(line)
                if record.get("type") == "snapshot":
                    gauges = record.setdefault("gauges", {})
                    for key in ("resource.peak_rss_mb", "resource.rss_mb"):
                        if key in gauges:
                            gauges[key] = round(gauges[key] * factor, 2)
                dst.write(json.dumps(record) + "\n")
        return inflated

    def test_gate_passes_against_self_and_fails_10x_inflation(self, tmp_path):
        from repro.cli import main as cli_main

        trace = self.record_trace(tmp_path, "base.trace.jsonl")
        assert (
            cli_main(["trace", "check", trace, "--baseline", trace]) == 0
        )
        inflated = self.inflate(trace, 10.0)
        assert (
            cli_main(["trace", "check", inflated, "--baseline", trace]) == 1
        )

    def test_rss_gate_inactive_without_resource_data(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        from repro.telemetry import JsonlSink

        path = tmp_path / "plain.trace.jsonl"
        tel = Telemetry(sinks=[JsonlSink(path)])
        with tel.span("grid"):
            tel.count("scan.probes", 3)
        tel.close()
        assert (
            cli_main(["trace", "check", str(path), "--baseline", str(path)]) == 0
        )
        out = capsys.readouterr().out
        assert "peak RSS" not in out


# ---------------------------------------------------------------------------
# nondeterministic names stay out of deterministic diffs


class TestNondeterministicFiltering:
    def test_resource_names_never_count_as_regressions(self, tmp_path):
        from repro.telemetry import JsonlSink, diff_traces, load_trace

        paths = []
        for rss in (100.0, 900.0):
            path = tmp_path / f"t{rss}.jsonl"
            tel = Telemetry(sinks=[JsonlSink(path)])
            with tel.span("grid"):
                tel.count("scan.probes", 5)
                tel.count("resource.samples", int(rss))
                tel.gauge("resource.peak_rss_mb", rss)
            tel.close()
            paths.append(path)
        diff = diff_traces(load_trace(paths[0]), load_trace(paths[1]))
        assert diff.regressions() == []
        assert NONDETERMINISTIC_PREFIXES == ("resource.", "heartbeat.")
