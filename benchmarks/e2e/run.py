#!/usr/bin/env python3
"""End-to-end reproduction benchmark.

Runs a workload of ``BENCHMARK.json`` for ``--seconds``.  Each repetition
is a fresh child process that runs the workload on one of its worlds,
times the setup and run phases (after imports) in reference seconds (see
``hostspeed.py``) and digests every operation's result.  The parent
checks the digests, prints every metric with its unit, median, quartiles
and sample count, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones with ``--trace 1``).  A metric's value is the mean over
the worlds of each world's median repetition.

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE.jsonl] [--record]
    python benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl

Run it from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUTPUT = ROOT / "benchmarks" / "output" / "e2e"

#: Seeds whose per-operation digests are committed in ``expected.json``.
CHECKED_SEEDS = (42, 7)
#: Repetitions a run makes even when they overrun ``--seconds``.
MIN_REPS = 3
#: No repetition starts once a run has used this long.
HARD_LIMIT_S = 150.0


def import_program():
    """Import ``repro`` from this checkout's ``src/``; exit if it is absent."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"run.py: cannot import the program from {SRC}: {error}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, not {SRC}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


# -- one repetition (child process) ---------------------------------------------


def child(request: dict) -> dict:
    """Run one repetition on one world (or the warm-grid priming pass of
    every world) in this process."""
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    if request.get("prime"):
        for inputs in request["inputs"]:
            workload.prime(inputs)
        return {"primed": True}
    world = request["world"]
    inputs = request["inputs"][world]
    tracer = None
    scope = contextlib.nullcontext()
    if request["trace"]:
        from layers import Tracer

        tracer = Tracer()
        scope = tracer.installed()
    host = HostSpeed(Path(tempfile.gettempdir()) / f"hostspeed-{os.getpid()}.log")
    with scope, host.sampling():
        start = time.perf_counter()
        state = workload.setup(inputs)
        setup_end = time.perf_counter()
        raw = workload.run(state)
        end = time.perf_counter()
    outcome = workload.outcome(state, raw)
    setup_s = host.reference_seconds(start, setup_end)
    run_s = host.reference_seconds(setup_end, end)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    prefix = f"w{world}/"
    rep = {
        "world": world,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_setup_s": setup_end - start,
        "wall_run_s": end - setup_end,
        "host_samples": len(host.samples),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": {prefix + op: value for op, value in outcome.ops.items()},
        "failed": [prefix + op for op in outcome.failed],
        "addresses": outcome.addresses,
        "cell_walls": outcome.cell_walls,
        "workers": outcome.workers,
    }
    if tracer is not None:
        rep["layers"] = tracer.metrics(end - start, outcome.lazy_stats)
    return rep


def spawn(request: dict, workdir: Path) -> dict:
    """Run ``child(request)`` in a fresh interpreter; its whole process group
    is killed if it overruns, and on exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "child", json.dumps(request)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        process.communicate()
        return {"error": f"repetition overran {HARD_LIMIT_S:.0f} s"}
    finally:
        _kill_group(process.pid)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"error": stderr.strip()[-4000:] or f"exit code {process.returncode}"}
    return json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


# -- one run (parent) -------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Repetitions of workload ``name`` until ``seconds`` have been used.

    Repetitions cycle through the workload's worlds.  A traced run
    alternates a traced cycle with an untraced one, so that every world
    has both once two cycles are done.
    """
    from workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, workdir)
    if hasattr(workload, "prime"):
        primed = spawn({"workload": name, "inputs": inputs, "prime": True}, workdir)
        if "error" in primed:
            raise RuntimeError(f"priming the model store failed:\n{primed['error']}")
    worlds = len(inputs)
    min_reps = max(MIN_REPS, worlds * (2 if trace else 1))
    reps, walls = [], []
    while True:
        rep_start = time.perf_counter()
        world = len(reps) % worlds
        traced = trace and (len(reps) // worlds) % 2 == 0
        request = {"workload": name, "inputs": inputs, "world": world, "trace": traced}
        reps.append(spawn(request, workdir))
        reps[-1].setdefault("traced", traced)
        reps[-1].setdefault("world", world)
        walls.append(time.perf_counter() - rep_start)
        used = time.perf_counter() - start
        if used + max(walls) > (seconds if len(reps) >= min_reps else HARD_LIMIT_S):
            return inputs, reps


def check(reps: list[dict], reference: dict | None) -> tuple[int, int, dict]:
    """(attempted, failed, consensus digests) over every repetition.

    Operation names start with their world (``w0/...``).  With a
    reference each operation of a repetition's world must match it;
    without one the repetitions of a world must agree with each other.
    """
    done = [rep for rep in reps if "error" not in rep]
    votes = collections.defaultdict(collections.Counter)
    for rep in done:
        for op, value in rep["ops"].items():
            votes[op][value] += 1
    consensus = {op: counter.most_common(1)[0][0] for op, counter in votes.items()}
    wanted = collections.defaultdict(dict)
    for op, value in (reference if reference is not None else consensus).items():
        wanted[op.split("/", 1)[0]][op] = value
    attempted = failed = 0
    for rep in reps:
        expected = wanted[f"w{rep['world']}"]
        if "error" in rep:
            attempted += max(1, len(expected))
            failed += max(1, len(expected))
            continue
        ops = rep["ops"]
        broken = set(rep["failed"])
        for op in set(expected) | set(ops):
            attempted += 1
            if op in broken or ops.get(op) != expected.get(op):
                failed += 1
    return attempted, failed, consensus


def record_digests(name: str, seed: int, reps: list[dict]) -> None:
    """Store the repetitions' digests as ``seed``'s reference in ``expected.json``."""
    if seed not in CHECKED_SEEDS:
        raise SystemExit(f"--record takes a checked seed: {CHECKED_SEEDS}")
    _, failed, consensus = check(reps, None)
    if failed:
        raise SystemExit(f"[{name}] not recorded: repetitions disagree or failed")
    expected = load_expected()
    expected.setdefault(name, {})[str(seed)] = dict(sorted(consensus.items()))
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def cell_metrics(rep: dict) -> dict:
    """Per-cell walls of one repetition: count, straggler skew, utilisation."""
    walls = sorted(rep["cell_walls"])
    if not walls:
        return {
            "experiments.cells": 0,
            "experiments.cell.skew": 0.0,
            "experiments.parallel.utilization": 0.0,
        }
    return {
        "experiments.cells": len(walls),
        "experiments.cell.skew": walls[-1] / statistics.median(walls),
        "experiments.parallel.utilization": sum(walls)
        / (rep["workers"] * rep["wall_run_s"]),
    }


def end_to_end(rep: dict) -> dict:
    return {
        "setup_s": rep["setup_s"],
        "run_s": rep["run_s"],
        "total_s": rep["setup_s"] + rep["run_s"],
        "addr_per_s": rep["addresses"] / rep["run_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(done: list[dict]) -> dict[str, list[tuple[int, float]]]:
    """Per-layer (world, value) samples: traced repetitions for the
    tracer's metrics, untraced ones for the per-cell walls, and per world
    the traced over the untraced median ``total_s`` for the overhead."""
    traced = [rep for rep in done if rep["traced"]]
    untraced = [rep for rep in done if not rep["traced"]] or traced
    samples = collections.defaultdict(list)
    for rep in traced:
        for metric, value in rep["layers"].items():
            samples[metric].append((rep["world"], value))
    for rep in untraced:
        for metric, value in cell_metrics(rep).items():
            samples[metric].append((rep["world"], value))
    totals = collections.defaultdict(lambda: ([], []))
    for rep in done:
        totals[rep["world"]][rep["traced"]].append(end_to_end(rep)["total_s"])
    for world, (plain, with_trace) in totals.items():
        if plain and with_trace:
            overhead = statistics.median(with_trace) / statistics.median(plain) - 1.0
            samples["trace.overhead"].append((world, overhead))
    return samples


def run_workload(args, name: str, bench: dict) -> dict:
    OUTPUT.mkdir(parents=True, exist_ok=True)
    workdir = OUTPUT / f"{name}-{args.seed}-{os.getpid()}"
    try:
        inputs, reps = measure(name, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for rep in reps:
        if "error" in rep:
            print(f"[{name}] repetition failed:\n{rep['error']}", file=sys.stderr)
    checked = args.seed in CHECKED_SEEDS
    if args.record:
        record_digests(name, args.seed, reps)
    reference = load_expected().get(name, {}).get(str(args.seed)) if checked else None
    attempted, failed, _ = check(reps, reference)
    gate = "checked" if reference is not None else "unchecked"

    done = [rep for rep in reps if "error" not in rep]
    untraced = [rep for rep in done if not rep["traced"]]
    e2e = collections.defaultdict(list)
    for rep in untraced:
        for metric, value in end_to_end(rep).items():
            e2e[metric].append((rep["world"], value))
    definitions = bench["per_layer"] if args.trace else bench["end_to_end"]
    samples = per_layer(done) if args.trace else e2e
    metrics = {}
    for definition in definitions:
        metric = definition["name"]
        pairs = samples.get(metric)
        if pairs:
            values = [value for _, value in pairs]
            metrics[metric] = {
                "value": stats.world_mean(pairs),
                "unit": definition["unit"],
                **stats.summary(values),
                "samples": values,
            }
    correct = (
        failed == 0
        and len(metrics) == len(definitions)
        and (reference is not None or not checked)
    )
    wall = {
        phase: [rep[f"wall_{phase}"] for rep in untraced] for phase in ("setup_s", "run_s")
    }

    traced_n = sum(rep["traced"] for rep in done)
    worlds = ",".join(str(world.get("world_seed", world.get("seed"))) for world in inputs)
    print(
        f"[{name}] seed={args.seed} worlds={worlds} reps={len(reps)} "
        f"(traced {traced_n}) digests={gate}"
    )
    if args.trace and name == "parallel-grid":
        print(f"[{name}] layers cover the parent process only: workers' counters stay in the workers")
    for metric, entry in metrics.items():
        print(
            f"  {metric:<36} {entry['value']:>12.6g} {entry['unit']:<7} "
            f"median {entry['median']:.6g}  q1 {entry['q1']:.6g}  "
            f"q3 {entry['q3']:.6g}  n={entry['n']}"
        )
    if untraced:
        print(
            f"  wall seconds, not rescaled: setup median {statistics.median(wall['setup_s']):.6g}"
            f"  run median {statistics.median(wall['run_s']):.6g}"
        )
    print(
        f"  operations attempted {attempted}, failed {failed} "
        f"(fail_frac {failed / max(attempted, 1):.4f})"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in metrics.items()
        },
    }
    if args.out:
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": bool(args.trace),
            "digests": gate,
            **result,
            "metrics": metrics,
            "wall": wall,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return result


# -- compare ------------------------------------------------------------------------


def compare(parent_path: str, change_path: str, bench: dict) -> int:
    """One row per (metric, workload): medians, delta and verdict."""
    def load(path):
        runs = collections.defaultdict(list)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
        return runs

    parent, change = load(parent_path), load(change_path)
    definitions = {d["name"]: d for d in bench["end_to_end"] + bench["per_layer"]}
    print(
        f"{'metric':<36} {'workload':<15} {'parent':>12} {'change':>12} "
        f"{'delta':>8}  verdict"
    )
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            continue
        for metric, definition in definitions.items():
            p_values = _values(p_runs, metric)
            c_values = _values(c_runs, metric)
            if not p_values or not c_values:
                continue
            p_median = statistics.median(p_values)
            c_median = statistics.median(c_values)
            delta = (c_median - p_median) / p_median if p_median else 0.0
            pair_wins = None
            if len(p_runs) == len(c_runs) >= 2:
                pair_wins = stats.pair_win_fraction(
                    p_values, c_values, definition["better"]
                )
            if "bound" in definition:
                outcome = stats.verdict(
                    p_values,
                    c_values,
                    definition["better"],
                    definition["bound"],
                    definition["unit"],
                    pair_wins,
                )
            else:
                outcome = "(no bound)"
            wins = f"  pair-wins {pair_wins:.2f}" if pair_wins is not None else ""
            print(
                f"{metric:<36} {workload:<15} {p_median:>12.6g} {c_median:>12.6g} "
                f"{delta:>+8.1%}  {outcome}{wins}"
            )
    return 0


def _values(runs: list[dict], metric: str) -> list[float]:
    """One value per run when there are several runs, else the run's samples."""
    entries = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    if len(entries) == 1:
        return list(entries[0]["samples"])
    return [entry["value"] for entry in entries]


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["child"]:
        print(json.dumps(child(json.loads(argv[1]))))
        return 0
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        return compare(argv[1], argv[2], bench)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end reproduction benchmark.")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's full record to this JSONL file")
    parser.add_argument(
        "--record", action="store_true", help="rewrite this seed's digests in expected.json"
    )
    args = parser.parse_args(argv)
    import_program()
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        ok &= run_workload(args, name, bench)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
