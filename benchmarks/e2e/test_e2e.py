"""Tests of the end-to-end benchmark harness (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import pytest

import hostspeed
import run
import stats
import workloads
from layers import Tracer
from repro import Scanner
from repro.tga import ModelCache, use_model_cache


@pytest.fixture
def bench():
    return run.load_benchmark()


# -- statistics and bounds ------------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.summary(values) == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}


def test_world_mean_averages_each_worlds_median():
    pairs = [(0, 1.0), (0, 3.0), (0, 100.0), (1, 5.0), (2, 6.0), (2, 8.0)]
    assert stats.world_mean(pairs) == pytest.approx((3.0 + 5.0 + 7.0) / 3)
    assert stats.world_mean([(0, 2.0), (0, 9.0), (0, 4.0)]) == 4.0


def test_reference_seconds_rescale_wall_time_by_host_speed(tmp_path):
    ref = hostspeed.REFERENCE_KERNEL_S
    host = hostspeed.HostSpeed(tmp_path / "workers.log")
    # This process at half the reference speed during [0, 1), a worker
    # at the reference speed during [0.5, 1), both at the reference
    # speed after.
    host.own = [(0.1 * i, 2 * ref) for i in range(10)]
    host.own += [(1.0 + 0.1 * i, ref) for i in range(10)]
    workers = [(0.5 + 0.1 * i, ref) for i in range(5)]
    host.samples = sorted(host.own + workers)
    # Only this process's own sampling time is taken out of the phase.
    speed = (10 * 0.5 + 5 * 1.0) / 15
    assert host.reference_seconds(0.0, 1.0) == pytest.approx((1.0 - 20 * ref) * speed)
    assert host.reference_seconds(1.0, 2.0) == pytest.approx(1.0 - 10 * ref)
    # A phase between two samples takes their speed.
    assert host.reference_seconds(1.01, 1.05) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        hostspeed.HostSpeed(tmp_path / "none.log").reference_seconds(0.0, 1.0)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_samples_forked_workers_and_stops_when_the_block_ends(tmp_path):
    import multiprocessing

    handler = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed(tmp_path / "workers.log")
    with host.sampling():
        worker = multiprocessing.get_context("fork").Process(target=_busy, args=(0.3,))
        worker.start()
        _busy(0.3)
        worker.join()
    assert len(host.own) >= 2
    assert len(host.samples) >= len(host.own) + 2
    assert not (tmp_path / "workers.log").exists()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_allowed_worsening_has_an_absolute_floor_for_seconds():
    assert stats.allowed_worsening(0.2, 0.1, "s") == 0.05
    assert stats.allowed_worsening(10.0, 0.1, "s") == pytest.approx(1.0)
    assert stats.allowed_worsening(0.2, 0.1, "MB") == pytest.approx(0.02)
    assert stats.worse_by(10.0, 11.0, "lower") == 1.0
    assert stats.worse_by(10.0, 11.0, "higher") == -1.0


# -- compare verdicts -------------------------------------------------------------


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([10.02, 9.98, 10.0, 10.1, 9.9], "lower", "unchanged"),
        ([13.0, 13.1, 12.9, 13.05, 12.95], "lower", "worse"),
        ([8.0, 8.1, 7.9, 8.05, 7.95], "lower", "better"),
        ([8.0, 8.1, 7.9, 8.05, 7.95], "higher", "worse"),
        ([13.0, 13.1, 12.9, 13.05, 12.95], "higher", "better"),
        ([6.0, 14.0, 9.0, 12.0, 8.0], "lower", "unresolved"),
    ],
)
def test_verdicts(change, better, expected):
    assert stats.verdict(PARENT, change, better, 0.1, "s") == expected


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [10.0, 14.0, 12.0, 16.0]
    change = [5.0, 6.0, 7.0, 8.0]
    assert stats.verdict(parent, change, "lower", 0.1, "s") == "better"


def test_a_gain_needs_nine_tenths_of_the_pairs():
    parent = [10.0] * 10
    change = [8.0] * 8 + [10.5] * 2
    wins = stats.pair_win_fraction(parent, change, "lower")
    assert wins == 0.8
    assert stats.verdict(parent, change, "lower", 0.25, "s", wins) == "unchanged"
    assert stats.pair_win_fraction(parent, [10.0] * 10, "lower") == 0.0


def test_compare_prints_a_row_per_metric_and_workload(tmp_path, capsys, bench):
    def record(values):
        return {
            "workload": "warm-grid",
            "metrics": {
                "run_s": {"unit": "s", **stats.summary(values), "samples": values},
            },
        }

    parent = tmp_path / "parent.jsonl"
    change = tmp_path / "change.jsonl"
    parent.write_text(json.dumps(record([2.0, 2.01, 1.99])) + "\n")
    change.write_text(json.dumps(record([1.5, 1.51, 1.49])) + "\n")
    assert run.compare(str(parent), str(change), bench) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "warm-grid" in line]
    assert len(rows) == 1
    assert rows[0].split()[0] == "run_s" and rows[0].endswith("better")


# -- result identity --------------------------------------------------------------


def test_digest_ignores_set_and_dict_order():
    big = [(1 << 100) + 8 * i for i in range(50)]
    assert workloads.digest(frozenset(big)) == workloads.digest(set(reversed(big)))
    a = {"b": 1, "a": {3, 1, 2}, 7: [1, 2]}
    b = {7: [1, 2], "a": {2, 3, 1}, "b": 1}
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest([1, 2]) != workloads.digest([2, 1])


def _rep(ops, failed=(), world=0):
    prefix = f"w{world}/"
    return {
        "ops": {prefix + op: value for op, value in ops.items()},
        "failed": [prefix + op for op in failed],
        "traced": False,
        "world": world,
    }


def test_a_flipped_digest_is_a_failed_operation():
    ops = {"a": "1" * 64, "b": "2" * 64}
    flipped = {"a": "1" * 64, "b": "3" * 64}
    reference = _rep(ops)["ops"]
    assert run.check([_rep(ops), _rep(ops)], reference)[:2] == (4, 0)
    assert run.check([_rep(ops), _rep(flipped)], reference)[:2] == (4, 1)
    # Without a reference the repetitions must agree with each other.
    assert run.check([_rep(ops), _rep(ops), _rep(flipped)], None)[:2] == (6, 1)
    assert run.check([_rep(ops, failed=["a"])], None)[:2] == (2, 1)
    assert run.check([_rep(ops), {"error": "boom", "world": 0}], reference)[:2] == (4, 2)


def test_each_repetition_is_checked_against_its_own_world():
    one, other = {"a": "1" * 64}, {"a": "2" * 64}
    reference = {**_rep(one, world=0)["ops"], **_rep(other, world=1)["ops"]}
    reps = [_rep(one, world=0), _rep(other, world=1), _rep(one, world=0)]
    assert run.check(reps, reference)[:2] == (3, 0)
    assert run.check([_rep(one, world=1)], reference)[:2] == (1, 1)
    # Worlds seen once are their own consensus; a repeated world must agree.
    assert run.check([_rep(one, world=0), _rep(other, world=1)], None)[:2] == (2, 0)
    assert run.check([*reps, _rep(other, world=0)], None)[:2] == (4, 1)


# -- the workloads on tiny worlds ---------------------------------------------------


TINY = {
    "cold-report": workloads.ColdReport(budget=60, round_size=30, tga_names=("6tree", "6gen")),
    "warm-grid": workloads.WarmGrid(budget=300, prime_budget=100, tgas=("6tree", "det")),
    "parallel-grid": workloads.ParallelGrid(budget=100, round_size=50, tga_names=("6tree",)),
    "internet-probe": workloads.InternetProbe(chunks=3, chunk_size=200, preset="tiny"),
}


def _repetition(workload, inputs):
    """One repetition in this process, with a cold model cache as in a child."""
    with use_model_cache(ModelCache()):
        state = workload.setup(inputs)
        raw = workload.run(state)
    return workload.outcome(state, raw)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workloads_finish_without_failures(name, tmp_path):
    workload = TINY[name]
    inputs = {"world_seed": 3, "seed": 3, "store": str(tmp_path / "store")}
    if hasattr(workload, "prime"):
        workload.prime(inputs)
    first = _repetition(workload, inputs)
    second = _repetition(workload, inputs)
    assert first.ops and not first.failed
    attempted, failed, _ = run.check(
        [_rep(first.ops, first.failed), _rep(second.ops, second.failed)], None
    )
    assert failed == 0 and attempted == 2 * len(first.ops)


@pytest.mark.parametrize("num_ases", [24, 48])
def test_world_seeds_pick_distinct_worlds_of_the_stated_size(num_ases):
    chosen = workloads.world_seeds(7, num_ases)
    assert chosen == workloads.world_seeds(7, num_ases)
    assert len(set(chosen)) == workloads.WORLDS
    target = workloads.DENSITY_PER_AS * num_ases
    for world in chosen:
        size = workloads.world_size(workloads.tiny_world(world, num_ases))
        assert abs(size / target - 1) <= workloads.WORLD_SIZE_TOLERANCE


# -- the tracer ---------------------------------------------------------------------


def test_tracer_counts_self_time_once_and_uninstalls():
    tracer = Tracer()
    original = Scanner.__dict__["scan"]
    with tracer.installed():
        assert Scanner.__dict__["scan"] is not original
        start = time.perf_counter()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(200_000))
        wall = time.perf_counter() - start
    assert Scanner.__dict__["scan"] is original
    # Self times partition the outer span: the inner work is counted once.
    assert tracer.busy["outer"] + tracer.busy["inner"] <= wall
    assert tracer.busy["inner"] > 10 * tracer.busy["outer"]


def test_trace_names_every_layer_and_covers_the_cold_report(bench):
    workload = TINY["cold-report"]
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        outcome = _repetition(workload, {"world_seed": 3})
        total = time.perf_counter() - start
    layers = tracer.metrics(total, outcome.lazy_stats)
    assert layers["trace.coverage"] >= 0.9
    assert layers["tga.prepare.busy_frac"] > 0 and layers["reporting.busy_frac"] > 0
    rep = {"cell_walls": outcome.cell_walls, "workers": 1, "wall_run_s": total}
    produced = set(layers) | set(run.cell_metrics(rep)) | {"trace.overhead"}
    assert produced == {metric["name"] for metric in bench["per_layer"]}


def test_end_to_end_metrics_match_the_benchmark_definition(bench):
    rep = {"setup_s": 1.0, "run_s": 2.0, "addresses": 10, "peak_rss_mb": 50.0}
    assert set(run.end_to_end(rep)) == {m["name"] for m in bench["end_to_end"]}
    assert run.end_to_end(rep)["total_s"] == 3.0


def test_expected_digests_cover_every_workload_world_and_checked_seed(bench, tmp_path):
    expected = run.load_expected()
    for workload in bench["workloads"]:
        name = workload["name"]
        for seed in run.CHECKED_SEEDS:
            worlds = len(workloads.WORKLOADS[name].inputs(seed, tmp_path))
            recorded = {op.split("/", 1)[0] for op in expected[name][str(seed)]}
            assert recorded == {f"w{world}" for world in range(worlds)}
