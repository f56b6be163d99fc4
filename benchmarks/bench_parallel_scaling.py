"""Serial-vs-parallel scaling and probe-throughput benchmark.

Times the full TGA × port grid on the All Active dataset — the paper's
core workload shape — once serially and once per worker count, each on
a fresh Study (fresh world, empty run cache), and records wall time,
cells/sec, addresses/sec and speedup to a JSON artifact.  Every
parallel run is also checked cell-by-cell against the serial run: the
executor must be bit-identical, not just fast.

A second section measures raw probe throughput: the scalar scan path
versus the vectorized numpy core on million-address batches, over two
pool shapes — *dispersed* targets scattered across many /64s (the shape
TGA output actually has) and *concentrated* per-region blocks (the
scalar path's best case).  Hits are asserted identical between the two
paths before any number is recorded.

Run:  python benchmarks/bench_parallel_scaling.py [--quick] [--out FILE]

``--quick`` shrinks the workload (fewer ports, smaller budget, worker
counts 1/2, smaller probe pools) for CI smoke runs.  ``--trace PATH``
additionally writes the deterministic JSONL telemetry trace of the
serial sampled grid run — the payload ``repro trace check`` gates on
(both its deterministic figures and, via ``--rss-tol``, its peak RSS).
The JSON artifact always gets a ``.manifest.json`` provenance sidecar.
Note that measured speedup is bounded by the CPUs actually available;
the artifact records ``cpu_count`` so numbers from different hosts are
comparable.

A third serial run adds the resource flight recorder
(``--resource-interval``, default 0.05 s): results must stay identical,
and the artifact records the sampler's wall-time overhead over the
telemetry-only run (the acceptance bar is < 2 %) plus the sampled peak
RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.addr import PackedAddresses, use_vectorized
from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid
from repro.internet import ALL_PORTS, InternetConfig, Port, SimulatedInternet
from repro.scanner import Scanner
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    RunManifest,
    Telemetry,
    write_manifest,
)
from repro.tga import ALL_TGA_NAMES, ModelCache, use_model_cache

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def make_study(seed: int, budget: int) -> Study:
    return Study(
        config=InternetConfig.tiny(master_seed=seed),
        budget=budget,
        round_size=max(100, budget // 5),
    )


def make_spec(study: Study, ports: tuple[Port, ...], budget: int) -> GridSpec:
    return GridSpec(
        datasets=(study.constructions.all_active,),
        tga_names=ALL_TGA_NAMES,
        ports=ports,
        budget=budget,
    )


def run_once(
    seed: int,
    budget: int,
    ports: tuple[Port, ...],
    workers: int | None,
    telemetry: Telemetry | None = None,
    resource_interval: float | None = None,
):
    """One timed grid run on a fresh study; returns (seconds, results).

    Each run gets a fresh (cold) model cache so measured scaling is not
    skewed by artifacts warmed in an earlier run — this benchmark
    isolates process-level parallelism; cold-vs-warm cache economics
    are ``bench_model_cache.py``'s job.  ``resource_interval`` turns on
    the resource flight recorder for the run.
    """
    study = make_study(seed, budget)
    spec = make_spec(study, ports, budget)
    with use_model_cache(ModelCache()):
        start = time.perf_counter()
        policy = ExecutionPolicy(
            workers=workers or 1,
            telemetry=telemetry,
            resource_interval=resource_interval,
        )
        results = run_grid(study, spec, policy=policy)
        return time.perf_counter() - start, results


def build_pools(internet: SimulatedInternet, total: int) -> dict[str, list[int]]:
    """Two deterministic probe pools of ``total`` addresses each.

    ``dispersed`` interleaves targets across every region (plus unrouted
    space) the way TGA output lands on the wire; ``concentrated`` walks
    regions one dense block at a time, the shape that amortises best in
    the scalar per-/64 grouping loop.
    """
    import random

    rng = random.Random(0xBEAC0)
    regions = internet.regions
    responsive = list(internet.iter_responsive(Port.ICMP))

    # TGA-style: a couple of percent rediscoveries, the rest spread thin
    # across many /64s (most of them unallocated neighbours of real
    # prefixes) so the per-/64 groups the scalar path builds stay tiny.
    dispersed: list[int] = []
    for _ in range(total):
        style = rng.random()
        region = regions[rng.randrange(len(regions))]
        if style < 0.02:
            dispersed.append(responsive[rng.randrange(len(responsive))])
        elif style < 0.60:
            net64 = region.net64 ^ rng.getrandbits(16)
            dispersed.append((net64 << 64) | rng.getrandbits(64))
        else:
            dispersed.append((region.net64 << 64) | rng.getrandbits(64))

    # Dense per-region load: half random IIDs inside allocated /64s,
    # a quarter unrouted, a quarter responsive rediscoveries.
    concentrated: list[int] = []
    for _ in range(total // 2):
        region = regions[rng.randrange(len(regions))]
        concentrated.append((region.net64 << 64) | rng.getrandbits(64))
    for _ in range(total // 4):
        concentrated.append(rng.getrandbits(128))
    while len(concentrated) < total:
        concentrated.append(responsive[rng.randrange(len(responsive))])
    rng.shuffle(dispersed)
    rng.shuffle(concentrated)

    return {"dispersed": dispersed, "concentrated": concentrated}


def bench_probe_throughput(seed: int, total: int) -> list[dict]:
    """Scalar vs vectorized ``Scanner.scan`` on million-address pools.

    Each measurement uses a fresh world (so no membership table or
    responsive-set cache is warm from the other path's run) and the
    hit sets are asserted identical before any number is recorded.
    """
    config = InternetConfig.tiny(master_seed=seed)
    pools = build_pools(SimulatedInternet(config), total)
    rows: list[dict] = []
    warmup = max(1_000, len(next(iter(pools.values()))) // 50)
    for name, pool in pools.items():
        # Warm each path on a slice first so one-time costs (responsive
        # sets, membership tables) don't land inside the timed window.
        with use_vectorized(False):
            scanner = Scanner(SimulatedInternet(config))
            scanner.scan(pool[:warmup], Port.ICMP)
            start = time.perf_counter()
            scalar = scanner.scan(list(pool), Port.ICMP)
            scalar_seconds = time.perf_counter() - start
        with use_vectorized(True):
            scanner = Scanner(SimulatedInternet(config))
            packed = PackedAddresses.from_addresses(pool)
            scanner.scan(PackedAddresses.from_addresses(pool[:warmup]), Port.ICMP)
            start = time.perf_counter()
            vector = scanner.scan(packed, Port.ICMP)
            vector_seconds = time.perf_counter() - start
        if vector.hits != scalar.hits:
            raise AssertionError(
                f"vectorized scan diverged from scalar on the {name} pool"
            )
        rows.append(
            {
                "pool": name,
                "addresses": total,
                "hits": len(scalar.hits),
                "scalar_seconds": round(scalar_seconds, 4),
                "scalar_addresses_per_sec": round(total / scalar_seconds, 1),
                "vectorized_seconds": round(vector_seconds, 4),
                "vectorized_addresses_per_sec": round(total / vector_seconds, 1),
                "speedup": round(scalar_seconds / vector_seconds, 2),
                "identical_hits": True,
            }
        )
    return rows


def identical(serial_runs: dict, parallel_runs: dict) -> bool:
    """Cell-by-cell bit-identity between two grid result sets."""
    if set(serial_runs) != set(parallel_runs):
        return False
    for key, a in serial_runs.items():
        b = parallel_runs[key]
        if (
            a.clean_hits != b.clean_hits
            or a.aliased_hits != b.aliased_hits
            or a.active_ases != b.active_ases
            or a.metrics != b.metrics
            or a.round_history != b.round_history
        ):
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--budget", type=int, default=0, help="per-cell budget")
    parser.add_argument(
        "--workers",
        default="",
        help="comma-separated worker counts (default 1,2,4,8 / 1,2 quick)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write the serial sampled grid run's deterministic JSONL "
        "telemetry trace here (the payload for `repro trace check`)",
    )
    parser.add_argument(
        "--resource-interval",
        type=float,
        default=0.05,
        help="resource flight-recorder sample interval for the sampled "
        "serial run (seconds; 0 disables the run)",
    )
    parser.add_argument(
        "--probe-addresses",
        type=int,
        default=0,
        help="probe-throughput pool size (default 1M, 100k with --quick)",
    )
    args = parser.parse_args(argv)

    budget = args.budget or (300 if args.quick else 1_500)
    probe_total = args.probe_addresses or (100_000 if args.quick else 1_000_000)
    ports = (Port.ICMP, Port.TCP80) if args.quick else ALL_PORTS
    if args.workers:
        worker_counts = tuple(int(w) for w in args.workers.split(","))
    else:
        worker_counts = (1, 2) if args.quick else (1, 2, 4, 8)
    cells = len(ALL_TGA_NAMES) * len(ports)

    # Measured speedups are meaningless on a single-CPU host: workers
    # time-slice one core, so "parallel" legs measure scheduling
    # overhead, not scaling.  The artifact carries an explicit flag so
    # CI on real multi-core runners can assert it never regresses to a
    # degraded measurement silently.
    degraded = (os.cpu_count() or 1) < 2
    if degraded:
        import sys

        print(
            "WARNING: single-CPU host; parallel speedups are degraded "
            "measurements (workers time-slice one core)",
            file=sys.stderr,
        )

    print(
        f"workload: {cells} cells "
        f"({len(ALL_TGA_NAMES)} TGAs x {len(ports)} ports, budget {budget}), "
        f"cpu_count={os.cpu_count()}"
    )

    serial_seconds, serial_results = run_once(args.seed, budget, ports, None)
    serial_probes = sum(run.probes_sent for run in serial_results.runs.values())
    print(
        f"serial          : {serial_seconds:8.2f}s  "
        f"{cells / serial_seconds:6.2f} cells/s  "
        f"{serial_probes / serial_seconds:10,.0f} addr/s"
    )

    # Provenance: the artifact embeds (and sidecar-carries) the manifest
    # of the run that made it, digest included, so its numbers are
    # traceable to an exact (seed, scale, budget) configuration.
    manifest = RunManifest.from_config(
        InternetConfig.tiny(master_seed=args.seed),
        scale="tiny",
        budget=budget,
        ports=tuple(port.value for port in ports),
        command="bench_parallel_scaling",
    )

    # Serial again with a live telemetry registry: the RunResults must be
    # unchanged and the artifact records both the overhead and the
    # (deterministic) counter/span snapshot.  With --trace, the same run
    # streams its events to a JSONL file — wall-clock never enters the
    # trace, so the payload is byte-stable and `repro trace check` can
    # gate on it.
    sampling = args.resource_interval > 0
    sinks: list = [MemorySink()]
    if args.trace and not sampling:
        sinks.append(JsonlSink(args.trace))
    telemetry = Telemetry(sinks=sinks)
    telemetry.emit_event(manifest.event())
    telemetry_seconds, telemetry_results = run_once(
        args.seed, budget, ports, None, telemetry=telemetry
    )
    telemetry.close()
    telemetry_same = identical(serial_results.runs, telemetry_results.runs)
    telemetry_overhead = (
        (telemetry_seconds - serial_seconds) / serial_seconds
        if serial_seconds
        else 0.0
    )
    print(
        f"serial+telemetry: {telemetry_seconds:8.2f}s  "
        f"overhead {telemetry_overhead:+6.1%}  identical={telemetry_same}"
    )

    # Serial once more with the resource flight recorder on: grid
    # results must not move, the sanctioned-namespace contract keeps
    # the trace comparable, and the wall-time delta over the
    # telemetry-only run is the sampler's measured overhead (the
    # acceptance bar is < 2%).  With --trace, the sampled run is the
    # one that writes the gate payload so the baseline carries
    # resource.* figures for the peak-RSS gate.
    sampler_record: dict | None = None
    if sampling:
        sampler_sinks: list = [MemorySink()]
        if args.trace:
            sampler_sinks.append(JsonlSink(args.trace))
        sampler_tel = Telemetry(sinks=sampler_sinks)
        sampler_tel.emit_event(manifest.event())
        sampler_seconds, sampler_results = run_once(
            args.seed,
            budget,
            ports,
            None,
            telemetry=sampler_tel,
            resource_interval=args.resource_interval,
        )
        sampler_tel.close()
        sampler_same = identical(serial_results.runs, sampler_results.runs)
        sampler_overhead = (
            (sampler_seconds - telemetry_seconds) / telemetry_seconds
            if telemetry_seconds
            else 0.0
        )
        snapshot = sampler_tel.snapshot()
        sampler_record = {
            "interval": args.resource_interval,
            "seconds": round(sampler_seconds, 4),
            "overhead_vs_telemetry": round(sampler_overhead, 4),
            "overhead_vs_serial": round(
                (sampler_seconds - serial_seconds) / serial_seconds
                if serial_seconds
                else 0.0,
                4,
            ),
            "identical_to_serial": sampler_same,
            "samples": snapshot.get("counters", {}).get("resource.samples", 0),
            "peak_rss_mb": snapshot.get("gauges", {}).get(
                "resource.peak_rss_mb", 0.0
            ),
        }
        print(
            f"serial+sampler  : {sampler_seconds:8.2f}s  "
            f"overhead {sampler_overhead:+6.1%} (vs telemetry)  "
            f"identical={sampler_same}  "
            f"samples={sampler_record['samples']}  "
            f"peak-rss={sampler_record['peak_rss_mb']:.0f}MB"
        )
    if args.trace:
        print(f"wrote telemetry trace to {args.trace}")

    manifest = manifest.with_snapshot(telemetry.snapshot())

    # Raw probe throughput: scalar vs vectorized core.
    print(f"probe throughput ({probe_total:,} addresses per pool):")
    probe_rows = bench_probe_throughput(args.seed, probe_total)
    for row in probe_rows:
        print(
            f"  {row['pool']:<12}: scalar "
            f"{row['scalar_addresses_per_sec']:12,.0f} addr/s  "
            f"vectorized {row['vectorized_addresses_per_sec']:12,.0f} addr/s  "
            f"speedup {row['speedup']:5.2f}x  identical=True"
        )

    record = {
        "benchmark": "parallel_scaling",
        "manifest": manifest.to_dict(),
        "workload": {
            "cells": cells,
            "tgas": len(ALL_TGA_NAMES),
            "ports": [port.value for port in ports],
            "budget": budget,
            "seed": args.seed,
            "scale": "tiny",
        },
        "cpu_count": os.cpu_count(),
        "degraded": degraded,
        "serial_seconds": round(serial_seconds, 4),
        "serial_probes_sent": serial_probes,
        "serial_addresses_per_sec": round(serial_probes / serial_seconds, 1)
        if serial_seconds
        else 0.0,
        "probe_throughput": probe_rows,
        "telemetry": {
            "seconds": round(telemetry_seconds, 4),
            "overhead": round(telemetry_overhead, 4),
            "identical_to_serial": telemetry_same,
            "snapshot": telemetry.snapshot(),
        },
        "sampler": sampler_record,
        "parallel": [],
        "identical": telemetry_same
        and (sampler_record is None or sampler_record["identical_to_serial"]),
    }

    for workers in worker_counts:
        seconds, results = run_once(args.seed, budget, ports, workers)
        same = identical(serial_results.runs, results.runs)
        record["identical"] = record["identical"] and same
        speedup = serial_seconds / seconds if seconds else 0.0
        record["parallel"].append(
            {
                "workers": workers,
                "seconds": round(seconds, 4),
                "cells_per_sec": round(cells / seconds, 4) if seconds else 0.0,
                "addresses_per_sec": round(serial_probes / seconds, 1)
                if seconds
                else 0.0,
                "speedup": round(speedup, 4),
                "identical_to_serial": same,
            }
        )
        print(
            f"workers={workers:<2}      : {seconds:8.2f}s  "
            f"{cells / seconds:6.2f} cells/s  "
            f"{serial_probes / seconds:10,.0f} addr/s  "
            f"speedup {speedup:4.2f}x  identical={same}"
        )

    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    sidecar = write_manifest(args.out, manifest)
    print(f"wrote {args.out} (manifest: {sidecar})")
    return 0 if record["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
