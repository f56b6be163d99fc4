"""Parallel grid execution: spread experiment cells across CPU cores.

The study grid — every TGA on every dataset and port — is
embarrassingly parallel, and because every stochastic decision in the
system is hashed from the master seed, a parallel run is *bit-identical*
to a serial one.  This example runs the same grid serially and with 4
workers, verifies the equality, and shows the run cache being reused by
a downstream pipeline.

The same machinery is available from the shell:

    python -m repro --workers 4 study rq1a
    python -m repro --workers 8 --scale bench study rq4

and the scaling numbers for your machine come from:

    python benchmarks/bench_parallel_scaling.py

Run:  python examples/parallel_grid.py
"""

import time

from repro.experiments import ExecutionPolicy, GridSpec, Study, run_grid, run_rq4
from repro.internet import InternetConfig, Port
from repro.tga import ALL_TGA_NAMES

WORKERS = 4


def make_study() -> Study:
    return Study(config=InternetConfig.tiny(), budget=2_000, round_size=500)


def main() -> None:
    ports = (Port.ICMP, Port.TCP443)

    # Serial baseline on a fresh study.
    serial_study = make_study()
    spec = GridSpec(
        datasets=(serial_study.constructions.all_active,),
        tga_names=ALL_TGA_NAMES,
        ports=ports,
        budget=1_000,
    )
    start = time.perf_counter()
    serial = run_grid(serial_study, spec)
    serial_s = time.perf_counter() - start
    print(f"serial : {spec.size} cells in {serial_s:.2f}s")

    # The same grid, spread across worker processes.  Each worker
    # rebuilds the world once and runs its share of the cells.
    parallel_study = make_study()
    parallel_spec = GridSpec(
        datasets=(parallel_study.constructions.all_active,),
        tga_names=ALL_TGA_NAMES,
        ports=ports,
        budget=1_000,
    )
    start = time.perf_counter()
    parallel = run_grid(
        parallel_study, parallel_spec, policy=ExecutionPolicy(workers=WORKERS)
    )
    parallel_s = time.perf_counter() - start
    print(f"workers: {spec.size} cells in {parallel_s:.2f}s (x{WORKERS} processes)")

    # Determinism: identical hit sets, AS sets and metrics per cell.
    for key, run in serial.runs.items():
        other = parallel.runs[key]
        assert run.clean_hits == other.clean_hits
        assert run.active_ases == other.active_ases
        assert run.metrics == other.metrics
    print("parallel results are bit-identical to serial")

    # The parallel results landed in the study's run cache, so a
    # downstream pipeline sharing cells pays nothing for them.
    cached_before = parallel_study.cached_runs
    rq4 = run_rq4(parallel_study, ports=ports, budget=1_000)
    print(
        f"run cache: {cached_before} cells before RQ4, "
        f"{parallel_study.cached_runs} after "
        f"({len(rq4.runs)} RQ4 cells, all reused)"
    )


if __name__ == "__main__":
    main()
