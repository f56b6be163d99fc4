"""Tests for repro.experiments.parallel: the multiprocess grid executor.

The correctness gate of the parallel path is *bit-identical* results:
every stochastic decision in the system is splitmix64-hashed from the
master seed, so a cell must compute the same RunResult in any process.
"""

import pytest

from repro.experiments import (
    ExecutionPolicy,
    FaultPlan,
    FaultRule,
    GridSpec,
    ParallelExecutor,
    Study,
    WorkerSpec,
    run_grid,
)
from repro.internet import InternetConfig, Port
from repro.telemetry import Telemetry

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


def assert_identical_runs(a, b) -> None:
    """Full bit-identity: hit sets, AS sets, metrics, round trajectory."""
    assert a.clean_hits == b.clean_hits
    assert a.aliased_hits == b.aliased_hits
    assert a.active_ases == b.active_ases
    assert a.metrics == b.metrics
    assert a.generated == b.generated
    assert a.probes_sent == b.probes_sent
    assert a.rounds == b.rounds
    assert a.round_history == b.round_history


class TestWorkerSpec:
    def test_roundtrip_builds_equivalent_study(self):
        study = make_study()
        spec = WorkerSpec.from_study(study)
        rebuilt = spec.build_study()
        assert rebuilt.internet.config == study.internet.config
        assert rebuilt.budget == study.budget
        assert rebuilt.round_size == study.round_size
        assert rebuilt.tga_names == tuple(study.tga_names)
        assert rebuilt.packets_per_second == study.packets_per_second

    def test_spec_is_hashable_fingerprint(self):
        study = make_study()
        a = WorkerSpec.from_study(study)
        b = WorkerSpec.from_study(study)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_blocklist_survives_roundtrip(self):
        from repro.addr import Prefix
        from repro.scanner import Blocklist

        prefix = Prefix.parse("2001:db8::/32")
        study = Study(
            config=InternetConfig.tiny(),
            budget=300,
            round_size=100,
            blocklist=Blocklist([prefix]),
        )
        rebuilt = WorkerSpec.from_study(study).build_study()
        assert rebuilt.blocklist.prefixes() == [prefix]

    def test_executor_validates_arguments(self):
        study = make_study()
        with pytest.raises(ValueError):
            ParallelExecutor(study, max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(study, chunksize=0)


class TestParallelDeterminism:
    """The tentpole's correctness gate: serial ≡ parallel, bit for bit."""

    def test_run_grid_parallel_matches_serial(self):
        serial_study = make_study()
        parallel_study = make_study()
        serial = run_grid(serial_study, make_spec(serial_study))
        parallel = run_grid(
            parallel_study, make_spec(parallel_study), policy=ExecutionPolicy(workers=4)
        )
        assert set(serial.runs) == set(parallel.runs)
        for key in serial.runs:
            assert_identical_runs(serial.runs[key], parallel.runs[key])

    def test_workers_one_matches_workers_four(self):
        one = make_study()
        four = make_study()
        grid_one = run_grid(one, make_spec(one), policy=ExecutionPolicy(workers=1))
        grid_four = run_grid(four, make_spec(four), policy=ExecutionPolicy(workers=4))
        for key in grid_one.runs:
            assert_identical_runs(grid_one.runs[key], grid_four.runs[key])

    def test_run_matrix_parallel_matches_serial(self):
        serial_study = make_study()
        parallel_study = make_study()
        serial = serial_study.run_matrix(
            [serial_study.constructions.all_active],
            ports=PORTS,
            tga_names=TGAS,
            budget=BUDGET,
        )
        parallel = parallel_study.run_matrix(
            [parallel_study.constructions.all_active],
            ports=PORTS,
            tga_names=TGAS,
            budget=BUDGET,
            policy=ExecutionPolicy(workers=3),
        )
        assert set(serial) == set(parallel)
        for key in serial:
            assert_identical_runs(serial[key], parallel[key])


class TestRunCellsMechanics:
    def test_results_merge_into_study_cache(self):
        study = make_study()
        dataset = study.constructions.all_active
        assert study.cached_runs == 0
        executor = ParallelExecutor(study, max_workers=2)
        results = executor.run_cells(
            [(tga, dataset, Port.ICMP, BUDGET) for tga in TGAS]
        )
        assert study.cached_runs == len(TGAS)
        for tga in TGAS:
            run = study.run(tga, dataset, Port.ICMP, budget=BUDGET)
            assert run is results[(tga, dataset.name, Port.ICMP, BUDGET)]

    def test_cached_cells_are_not_recomputed(self):
        study = make_study()
        dataset = study.constructions.all_active
        first = study.run("6tree", dataset, Port.ICMP, budget=BUDGET)
        executor = ParallelExecutor(study, max_workers=2)
        results = executor.run_cells(
            [(tga, dataset, Port.ICMP, BUDGET) for tga in TGAS]
        )
        assert results[("6tree", dataset.name, Port.ICMP, BUDGET)] is first

    def test_progress_fires_once_per_cell(self):
        study = make_study()
        dataset = study.constructions.all_active
        seen = []
        executor = ParallelExecutor(study, max_workers=2)
        executor.run_cells(
            [(tga, dataset, Port.ICMP, BUDGET) for tga in TGAS],
            progress=lambda done, total, run: seen.append((done, total)),
        )
        assert seen == [(i, len(TGAS)) for i in range(1, len(TGAS) + 1)]

    def test_none_budget_resolves_to_study_default(self):
        study = make_study()
        dataset = study.constructions.all_active
        executor = ParallelExecutor(study, max_workers=1)
        results = executor.run_cells([("6tree", dataset, Port.ICMP, None)])
        key = ("6tree", dataset.name, Port.ICMP, study.budget)
        assert key in results
        assert results[key].budget == study.budget

    def test_precompute_reports_missing_and_fills_cache(self):
        study = make_study()
        dataset = study.constructions.all_active
        cells = [(tga, dataset, Port.ICMP, BUDGET) for tga in TGAS]
        assert study.precompute(cells, policy=ExecutionPolicy(workers=2)) == len(TGAS)
        assert study.cached_runs == len(TGAS)
        # Everything cached now: nothing missing, nothing recomputed.
        assert study.precompute(cells, policy=ExecutionPolicy(workers=2)) == 0

    def test_precompute_serial_is_noop(self):
        study = make_study()
        dataset = study.constructions.all_active
        missing = study.precompute(
            [("6tree", dataset, Port.ICMP, BUDGET)], policy=ExecutionPolicy(workers=1)
        )
        assert missing == 1
        assert study.cached_runs == 0


# ---------------------------------------------------------------------------
# Property test: serial ≡ parallel across many seeds, results AND telemetry.
# ---------------------------------------------------------------------------

PROPERTY_SEEDS = tuple(range(25))
PROPERTY_TGAS = ("6tree", "6gen")
PROPERTY_BUDGET = 150


def micro_config(seed: int) -> InternetConfig:
    """A world even smaller than ``tiny`` so 25 seeds stay cheap."""
    return InternetConfig(
        master_seed=seed,
        num_ases=12,
        max_sites_per_as=2,
        server_density_min=8,
        server_density_max=24,
        cdn_density_min=12,
        cdn_density_max=30,
        enterprise_density_min=4,
        enterprise_density_max=12,
        subscriber_density_min=2,
        subscriber_density_max=8,
        mega_isp_regions=20,
    )


def run_micro_grid(seed: int, workers: int | None):
    """One fresh micro-grid run; returns (GridResult, Telemetry)."""
    study = Study(
        config=micro_config(seed),
        budget=PROPERTY_BUDGET,
        round_size=PROPERTY_BUDGET // 2,
    )
    spec = GridSpec(
        datasets=(study.constructions.all_active,),
        tga_names=PROPERTY_TGAS,
        ports=(Port.ICMP,),
        budget=PROPERTY_BUDGET,
    )
    telemetry = Telemetry()
    policy = ExecutionPolicy(workers=workers, telemetry=telemetry)
    return run_grid(study, spec, policy=policy), telemetry


def nonmeta_counters(telemetry: Telemetry) -> dict[str, int]:
    """All counters outside the sanctioned variant namespaces (the only
    names allowed to depend on the execution strategy)."""
    from repro.telemetry import SANCTIONED_VARIANT_PREFIXES

    return {
        name: value
        for name, value in telemetry.counters.items()
        if not name.startswith(SANCTIONED_VARIANT_PREFIXES)
    }


class TestWorkerRebuild:
    """A worker the start method did not fork rebuilds its world."""

    def test_unforked_worker_rebuilds_bit_identically(self, monkeypatch):
        from repro.experiments import parallel
        from repro.tga import get_model_cache
        from repro.tga.modelstore import get_model_store, set_model_store

        serial_study = make_study()
        serial = run_grid(serial_study, make_spec(serial_study))

        study = make_study()
        spec = make_spec(study)
        chunk = [(tga, dataset, port, BUDGET) for tga, dataset, port in spec.cells()]
        # No fork donor and an empty memo: what a spawned worker sees.
        monkeypatch.setattr(parallel, "_FORK_DONOR", None)
        monkeypatch.setattr(parallel, "_WORKER_STUDIES", {})
        cache = get_model_cache()
        cache_enabled, store = cache.enabled, get_model_store()
        try:
            records = parallel._run_cell_chunk(WorkerSpec.from_study(study), chunk)
            (rebuilt,) = parallel._WORKER_STUDIES.values()
        finally:
            cache.enabled = cache_enabled
            set_model_store(store)
        assert rebuilt is not study
        assert rebuilt.internet is not study.internet
        assert len(records) == len(serial.runs)
        for key, run, _wall, _capture in records:
            assert_identical_runs(serial.runs[key[:3]], run)


class TestCrashRecovery:
    """An injected worker crash must be invisible in the final results."""

    def test_worker_crash_recovers_bit_identically(self):
        baseline_study = make_study()
        baseline = run_grid(baseline_study, make_spec(baseline_study))

        crashed_study = make_study()
        plan = FaultPlan(rules=(FaultRule("crash", tga="6gen", port="icmp"),))
        recovered = run_grid(
            crashed_study,
            make_spec(crashed_study),
            policy=ExecutionPolicy(workers=2, fault_plan=plan, max_retries=2),
        )
        assert recovered.complete
        assert not recovered.failed_cells
        assert set(baseline.runs) == set(recovered.runs)
        for key in baseline.runs:
            assert_identical_runs(baseline.runs[key], recovered.runs[key])

    def test_exhausted_retries_degrade_to_failed_cells(self):
        study = make_study()
        plan = FaultPlan(rules=(FaultRule("crash", tga="6gen", max_fires=99),))
        results = run_grid(
            study,
            make_spec(study),
            policy=ExecutionPolicy(workers=2, fault_plan=plan, max_retries=1),
        )
        assert not results.complete
        # Exactly the 6gen cells fail — crash attribution is isolated to
        # the culprit chunk, never billed to innocent bystanders.
        assert sorted((f.tga, f.port.value) for f in results.failed_cells) == sorted(
            ("6gen", port.value) for port in PORTS
        )
        assert all(f.reason == "crash" for f in results.failed_cells)
        # Every other cell completed bit-identically to a clean serial run.
        baseline_study = make_study()
        baseline = run_grid(baseline_study, make_spec(baseline_study))
        for key, run in results.runs.items():
            assert_identical_runs(baseline.runs[key], run)


class TestSerialParallelProperty:
    """Seed-parametrized property: for any master seed, a serial grid run
    and a ``workers=2`` grid run agree on every RunResult *and* on every
    merged telemetry counter outside the sanctioned variant namespaces."""

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_serial_and_parallel_agree(self, seed):
        serial, serial_tel = run_micro_grid(seed, workers=None)
        parallel, parallel_tel = run_micro_grid(seed, workers=2)

        assert set(serial.runs) == set(parallel.runs)
        for key in serial.runs:
            assert_identical_runs(serial.runs[key], parallel.runs[key])

        assert nonmeta_counters(serial_tel) == nonmeta_counters(parallel_tel)
        # Histograms and the (deterministic) span tree must agree too.
        assert {
            name: hist.snapshot()
            for name, hist in serial_tel.histograms.items()
        } == {
            name: hist.snapshot()
            for name, hist in parallel_tel.histograms.items()
        }
        assert serial_tel.root.snapshot() == parallel_tel.root.snapshot()
