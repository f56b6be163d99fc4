"""Streaming-internet scale benchmark: a million ASes under budget.

Exercises the lazy topology at ``scale="internet"`` (1M ASes, ~1.4M
regions counting the mega-ISP) and records what the streaming design is
for: **peak memory stays flat while the address space grows**.

Sections:

* ``world_open`` — time to construct the world and serve registry
  lookups.  Lazy derivation makes this O(resident), not O(num_ases).
* ``streaming_probe`` — serial probe throughput over a pool spread
  across sparse ranks of the full rank space, with the resident-AS
  high-water mark.  Peak memory is measured by the resource flight
  recorder (:class:`repro.telemetry.ResourceSampler` sampling RSS
  alongside the probe loop, plus its wall-time overhead %), with a
  tracemalloc heap peak kept as a cross-check on a separate smaller
  pass.
* ``parallel_probe`` — the same pool sharded across a fork-inherited
  worker pool (32 workers at full scale): workers adopt the parent's
  lazy world as copy-on-write pages and never rebuild it.  The union of
  worker hits is asserted equal to the serial hits before any number is
  recorded.
* ``grid_equivalence`` — a down-scaled (tiny) TGA × port grid run
  serially and under ``ExecutionPolicy(workers=...)``, asserted
  bit-identical cell by cell.

Run:  python benchmarks/bench_internet_scale.py [--quick] [--out FILE]

``--quick`` shrinks the world (50k ASes) and the worker count for CI
smoke runs.  The JSON artifact always gets a ``.manifest.json``
provenance sidecar.  Peak RSS is recorded via ``ru_maxrss`` for the
benchmark process and its children and checked against the config's
``memory_budget_mb``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid
from repro.internet import InternetConfig, Port, SimulatedInternet
from repro.internet.topology import slash32_for_rank
from repro.scanner import Scanner
from repro.telemetry import ResourceSampler, RunManifest, write_manifest
from repro.tga import ALL_TGA_NAMES

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_internet_scale.json"


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS in MB (Linux ru_maxrss is KB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_config(quick: bool, seed: int) -> InternetConfig:
    config = InternetConfig.internet(master_seed=seed)
    if quick:
        config = replace(
            config, num_ases=50_000, mega_isp_regions=6_000, max_resident_ases=256
        )
    return config


def build_pool(config: InternetConfig, total: int, seed: int) -> list[int]:
    """``total`` probe targets over a sparse spread of ranks.

    Each sampled AS contributes a small burst of addresses in its /32 —
    the shape a TGA emits — so the pool touches many ASes without ever
    needing the whole world resident.
    """
    rng = random.Random(seed)
    per_as = 16
    ranks = rng.sample(range(config.num_ases), max(1, total // per_as))
    pool: list[int] = []
    for rank in ranks:
        net64 = slash32_for_rank(config, rank) >> 64
        for _ in range(per_as):
            pool.append(((net64 | rng.getrandbits(16)) << 64) | rng.getrandbits(64))
    rng.shuffle(pool)
    return pool[:total]


# -- parallel probe fan-out (fork-inherited world) ---------------------------

_WORKER_INTERNET: SimulatedInternet | None = None


def _probe_shard(shard_and_port: tuple[list[int], str]) -> tuple[list[int], float]:
    """Probe one shard against the fork-inherited world.

    Returns the hits plus the worker's own peak RSS so the parent can
    record the worst-case worker footprint.
    """
    shard, port_value = shard_and_port
    internet = _WORKER_INTERNET
    assert internet is not None, "worker must inherit the parent world via fork"
    hits = Scanner(internet).scan(shard, Port(port_value)).hits
    return sorted(hits), rss_mb()


def parallel_probe(
    internet: SimulatedInternet, pool: list[int], workers: int, port: Port
) -> tuple[set[int], float, float]:
    """Shard ``pool`` across ``workers`` forked processes.

    Returns ``(hits, seconds, max_worker_rss_mb)``.  Fork start method
    is required: the whole point is inheriting the parent's lazy world
    as copy-on-write pages instead of pickling or rebuilding it.
    """
    global _WORKER_INTERNET
    context = multiprocessing.get_context("fork")
    shards = [
        (pool[i::workers], port.value) for i in range(workers) if pool[i::workers]
    ]
    _WORKER_INTERNET = internet
    try:
        start = time.perf_counter()
        with context.Pool(processes=workers) as pool_handle:
            results = pool_handle.map(_probe_shard, shards)
        seconds = time.perf_counter() - start
    finally:
        _WORKER_INTERNET = None
    hits: set[int] = set()
    worst_rss = 0.0
    for shard_hits, worker_rss in results:
        hits.update(shard_hits)
        worst_rss = max(worst_rss, worker_rss)
    return hits, seconds, worst_rss


# -- down-scaled grid equivalence --------------------------------------------


def assert_identical_runs(a, b) -> None:
    for field_name in (
        "clean_hits",
        "aliased_hits",
        "active_ases",
        "metrics",
        "generated",
        "probes_sent",
        "rounds",
        "round_history",
    ):
        if getattr(a, field_name) != getattr(b, field_name):
            raise AssertionError(f"parallel run diverged from serial: {field_name}")


def grid_equivalence(seed: int, budget: int, workers: int) -> list[dict]:
    """Serial vs parallel on a down-scaled world."""
    ports = (Port.ICMP, Port.TCP80)

    def one_grid(policy: ExecutionPolicy | None):
        study = Study(
            config=InternetConfig.tiny(master_seed=seed),
            budget=budget,
            round_size=max(100, budget // 5),
        )
        spec = GridSpec(
            datasets=(study.constructions.all_active,),
            tga_names=ALL_TGA_NAMES,
            ports=ports,
            budget=budget,
        )
        start = time.perf_counter()
        results = run_grid(study, spec, policy=policy)
        return time.perf_counter() - start, results

    serial_seconds, serial = one_grid(None)
    seconds, grid = one_grid(ExecutionPolicy(workers=workers))
    if set(grid.runs) != set(serial.runs):
        raise AssertionError("the parallel grid lost cells")
    for key in serial.runs:
        assert_identical_runs(serial.runs[key], grid.runs[key])
    return [
        {"mode": "serial", "seconds": round(serial_seconds, 3)},
        {
            "mode": "parallel",
            "workers": workers,
            "seconds": round(seconds, 3),
            "identical_to_serial": True,
        },
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers", type=int, default=0, help="probe fan-out width (default 32, 2 quick)"
    )
    parser.add_argument(
        "--pool", type=int, default=0, help="probe pool size (default 400k, 40k quick)"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    workers = args.workers or (2 if args.quick else 32)
    pool_total = args.pool or (40_000 if args.quick else 400_000)
    config = make_config(args.quick, args.seed)
    budget_mb = config.memory_budget_mb

    print(
        f"scale=internet world: {config.num_ases:,} ASes "
        f"(+{config.mega_isp_regions:,} mega-ISP regions), "
        f"max_resident_ases={config.max_resident_ases}, "
        f"budget {budget_mb}MB, {workers} workers"
    )

    # -- world open -------------------------------------------------------
    start = time.perf_counter()
    internet = SimulatedInternet(config)
    open_seconds = time.perf_counter() - start

    rng = random.Random(args.seed)
    lookups = 20_000
    start = time.perf_counter()
    found = 0
    for rank in rng.choices(range(config.num_ases), k=lookups):
        address = slash32_for_rank(config, rank) | rng.getrandbits(64)
        if internet.asn_of(address) is not None:
            found += 1
    lookup_seconds = time.perf_counter() - start
    assert found == lookups, "every allocated /32 must resolve to its AS"
    world_open = {
        "open_seconds": round(open_seconds, 6),
        "registry_lookups_per_sec": round(lookups / lookup_seconds),
    }
    print(
        f"world open      : {open_seconds * 1e3:8.2f}ms  "
        f"{world_open['registry_lookups_per_sec']:10,} lookups/s"
    )

    # -- streaming probe (serial) ----------------------------------------
    # Timed twice on the same world: bare, then under the resource
    # flight recorder.  The sampler run owns the peak-RSS figure (the
    # same instrument the telemetry traces and `repro trace check`
    # gate on) and the delta between the passes is the sampler's
    # measured overhead.
    pool = build_pool(config, pool_total, args.seed)
    start = time.perf_counter()
    serial_hits = Scanner(internet).scan(pool, Port.ICMP).hits
    serial_seconds = time.perf_counter() - start

    sampler = ResourceSampler(
        interval=0.05,
        rank="bench",
        providers={
            "resident_ases": lambda: float(internet.lazy_stats()["resident_ases"])
        },
        budget_mb=config.memory_budget_mb,
    )
    with sampler:
        start = time.perf_counter()
        sampled_hits = Scanner(internet).scan(pool, Port.ICMP).hits
        sampled_seconds = time.perf_counter() - start
    assert sampled_hits == serial_hits, "sampled pass diverged"
    sampler_overhead = (
        (sampled_seconds - serial_seconds) / serial_seconds if serial_seconds else 0.0
    )
    stats = internet.lazy_stats()

    # Heap peak is cross-checked on a *separate*, smaller pass over a
    # fresh world: tracemalloc tracing slows allocation ~10-30x, so it
    # must never overlap the timed sections above (and it measures the
    # python heap, not RSS — the two figures bracket each other).
    tracemalloc.start()
    traced = SimulatedInternet(config)
    Scanner(traced).scan(pool[: max(1, len(pool) // 10)], Port.ICMP)
    _, heap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del traced
    streaming = {
        "pool_addresses": len(pool),
        "seconds": round(serial_seconds, 3),
        "addresses_per_sec": round(len(pool) / serial_seconds),
        "hits": len(serial_hits),
        "resident_ases": stats["resident_ases"],
        "materialized_ases": stats["materialized_ases"],
        "evicted_ases": stats["evicted_ases"],
        "sampled_peak_rss_mb": round(sampler.peak_rss_bytes / (1024 * 1024), 1),
        "sampler_samples": sampler.samples,
        "sampler_overhead": round(sampler_overhead, 4),
        "sampler_overhead_pct": round(100.0 * sampler_overhead, 2),
        "tracemalloc_peak_mb": round(heap_peak / (1024 * 1024), 1),
    }
    print(
        f"streaming probe : {serial_seconds:8.2f}s  "
        f"{streaming['addresses_per_sec']:10,} addr/s  "
        f"resident={stats['resident_ases']} "
        f"sampled-rss={streaming['sampled_peak_rss_mb']}MB "
        f"(overhead {sampler_overhead:+.1%}) "
        f"heap-peak={streaming['tracemalloc_peak_mb']}MB"
    )
    if config.max_resident_ases is not None:
        assert stats["resident_ases"] <= config.max_resident_ases

    # -- parallel probe fan-out ------------------------------------------
    fork_ok = multiprocessing.get_start_method() == "fork"
    if fork_ok:
        parallel_hits, par_seconds, worker_rss = parallel_probe(
            internet, pool, workers, Port.ICMP
        )
        assert parallel_hits == serial_hits, "worker shards diverged from serial"
        parallel = {
            "workers": workers,
            "seconds": round(par_seconds, 3),
            "addresses_per_sec": round(len(pool) / par_seconds),
            "max_worker_rss_mb": round(worker_rss, 1),
            "identical_to_serial": True,
        }
        print(
            f"parallel probe  : {par_seconds:8.2f}s  "
            f"{parallel['addresses_per_sec']:10,} addr/s  "
            f"({workers} workers, worker-rss<={worker_rss:.0f}MB)"
        )
    else:  # pragma: no cover - non-fork platform
        parallel = {"skipped": "fork start method unavailable"}
        print("parallel probe  : skipped (no fork start method)")

    # -- down-scaled grid equivalence ------------------------------------
    grid_workers = min(workers, os.cpu_count() or 2, 4 if args.quick else workers)
    grid_rows = grid_equivalence(args.seed, 300 if args.quick else 600, grid_workers)
    for row in grid_rows:
        label = row["mode"] + (f" x{row['workers']}" if "workers" in row else "")
        print(f"grid {label:<11}: {row['seconds']:8.2f}s")

    # -- memory gate ------------------------------------------------------
    peak = rss_mb()
    child_peak = rss_mb(resource.RUSAGE_CHILDREN)
    memory = {
        "peak_rss_mb": round(peak, 1),
        "peak_child_rss_mb": round(child_peak, 1),
        "sampled_peak_rss_mb": streaming["sampled_peak_rss_mb"],
        "budget_mb": budget_mb,
        "within_budget": peak < budget_mb and child_peak < budget_mb,
    }
    print(
        f"peak RSS        : {peak:8.1f}MB (workers {child_peak:.1f}MB) "
        f"of {budget_mb}MB budget"
    )
    assert memory["within_budget"], (
        f"peak RSS {peak:.0f}MB / worker {child_peak:.0f}MB exceeds the "
        f"{budget_mb}MB budget"
    )

    manifest = RunManifest.from_config(
        config,
        scale="internet" if not args.quick else "internet-quick",
        budget=pool_total,
        ports=(Port.ICMP.value,),
        workers=workers,
        command="bench_internet_scale",
    )
    artifact = {
        "benchmark": "internet_scale",
        "quick": args.quick,
        "num_ases": config.num_ases,
        "mega_isp_regions": config.mega_isp_regions,
        "max_resident_ases": config.max_resident_ases,
        "world_open": world_open,
        "streaming_probe": streaming,
        "parallel_probe": parallel,
        "grid_equivalence": grid_rows,
        "memory": memory,
        "cpu_count": os.cpu_count(),
        "manifest": manifest.to_dict(),
    }
    args.out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    sidecar = write_manifest(args.out, manifest)
    print(f"wrote {args.out} (manifest: {sidecar})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
