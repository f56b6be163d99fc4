"""The four end-to-end workloads, their inputs and their result digests.

Every workload drives the program only through its public surface and
splits one repetition into a timed ``setup`` and a timed ``run`` phase.
Each returns an :class:`Outcome`: one sha256 digest per operation (a grid
cell, the rendered report, or a scan chunk), the operations that failed,
and what the end-to-end metrics need (addresses probed, per-cell walls).

A workload's ``inputs`` are a list: one input per world its repetitions
cycle through.  Grid workloads run on ``tiny``-preset worlds whose
master seeds are chosen by :func:`world_seeds`: the first ``WORLDS``
seeds of a sequence keyed on the benchmark's ``--seed`` whose world has
the stated size.  Run time tracks world size, so fixing the size keeps
one run comparable with the next while the worlds still change with the
seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum

from repro import InternetConfig, Port, Scanner, SimulatedInternet, Study
from repro.api import ExecutionPolicy, StudySpec
from repro.experiments import GridSpec, run_grid
from repro.internet import ALL_PORTS
from repro.internet import topology
from repro.reporting import report
from repro.tga import ALL_TGA_NAMES

#: Stated input size of the grid workloads' worlds: the summed active-IID
#: density of all regions per AS (the median over ``tiny`` worlds), and
#: the relative distance from it a chosen world may have.
DENSITY_PER_AS = 350
WORLD_SIZE_TOLERANCE = 0.015
#: Worlds a grid workload's repetitions cycle through in one run.  Run
#: time still differs by ~10% between worlds of the stated size; a run
#: reports the mean over its worlds, which averages that out.
WORLDS = 3

#: ``RunResult`` fields that make up a cell's result identity.
RUN_FIELDS = (
    "clean_hits",
    "aliased_hits",
    "active_ases",
    "metrics",
    "generated",
    "probes_sent",
    "rounds",
    "round_history",
)


# -- digests ------------------------------------------------------------------


def canonical(value):
    """A JSON-ready form of ``value`` that no set or dict order can change."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda pair: json.dumps(pair[0], sort_keys=True))
    if isinstance(value, (set, frozenset)):
        if all(isinstance(item, int) for item in value):
            return sorted(value)
        items = [canonical(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def digest(value) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(run) -> str:
    """Result-identity digest of one ``RunResult``."""
    return digest({name: getattr(run, name) for name in RUN_FIELDS})


def cell_name(run) -> str:
    return f"{run.tga_name}|{run.dataset_name}|{run.port.value}|{run.budget}"


def run_violations(run) -> list[str]:
    """Internal-consistency checks that hold for any seed."""
    problems = []
    if run.clean_hits & run.aliased_hits:
        problems.append("a hit is both clean and aliased")
    if run.metrics.hits != len(run.clean_hits):
        problems.append("metrics.hits != |clean_hits|")
    if run.metrics.ases != len(run.active_ases):
        problems.append("metrics.ases != |active_ases|")
    if run.metrics.aliases != len(run.aliased_hits):
        problems.append("metrics.aliases != |aliased_hits|")
    if not 0 <= run.generated <= run.budget:
        problems.append("generated outside [0, budget]")
    if run.probes_sent < run.generated:
        problems.append("fewer probes than generated addresses")
    if run.round_history and run.round_history[-1][0] != run.generated:
        problems.append("round history does not end at generated")
    return problems


# -- inputs -------------------------------------------------------------------


def tiny_world(master_seed: int, num_ases: int = 48) -> InternetConfig:
    """The ``tiny`` preset, with ``num_ases`` ASes."""
    return replace(InternetConfig.tiny(master_seed=master_seed), num_ases=num_ases)


def world_size(config: InternetConfig) -> int:
    """Summed active-IID density over every region of the world."""
    return sum(
        region.density
        for rank in range(config.num_ases)
        for region in topology.derive_as(config, rank)[1]
    )


def world_seeds(seed: int, num_ases: int = 48, count: int = WORLDS) -> list[int]:
    """Master seeds of a grid workload's worlds for benchmark seed ``seed``.

    Candidates are ``seed`` itself, then draws from ``random.Random(seed)``;
    the first ``count`` whose :func:`tiny_world` is within the tolerance
    of ``DENSITY_PER_AS * num_ases`` are taken.
    """
    target = DENSITY_PER_AS * num_ases
    rng = random.Random(seed)
    candidate = seed
    chosen: list[int] = []
    for _ in range(10_000):
        size = world_size(tiny_world(candidate, num_ases))
        if abs(size / target - 1.0) <= WORLD_SIZE_TOLERANCE:
            chosen.append(candidate)
            if len(chosen) == count:
                return chosen
        candidate = rng.getrandbits(31)
    raise RuntimeError(f"fewer than {count} worlds of the stated size for seed {seed}")


# -- outcomes -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one repetition's run phase produced."""

    #: Operation name -> result digest.
    ops: dict[str, str] = field(default_factory=dict)
    #: Operations that raised, were left failed, or broke an invariant.
    failed: list[str] = field(default_factory=list)
    #: Addresses probed during the run phase.
    addresses: int = 0
    #: Wall seconds of each executed grid cell.
    cell_walls: list[float] = field(default_factory=list)
    workers: int = 1
    #: ``SimulatedInternet.lazy_stats()`` of the world after the run.
    lazy_stats: dict[str, int] = field(default_factory=dict)


def _grid_outcome(study, results, spec, workers: int) -> Outcome:
    outcome = Outcome(workers=workers, lazy_stats=study.internet.lazy_stats())
    budget = spec.budget
    for tga, dataset, port in spec.cells():
        name = f"{tga}|{dataset.name}|{port.value}|{budget}"
        run = results.runs.get((tga, dataset.name, port))
        if run is None:  # raised or left in ``failed_cells``
            outcome.failed.append(name)
            continue
        outcome.ops[name] = run_digest(run)
        outcome.addresses += run.probes_sent
        if run_violations(run):
            outcome.failed.append(name)
    outcome.cell_walls = sorted(results.wall_seconds.values())
    return outcome


class _RecordingStudy(Study):
    """A Study that keeps every cell it computes, with its wall time.

    ``generate_report`` returns only markdown; the recorded runs are what
    the result-identity gate digests.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorded: dict[str, object] = {}
        self.cell_walls: list[float] = []

    def run(self, tga_name, dataset, port, budget=None):
        before = self.cached_runs
        start = time.perf_counter()
        result = super().run(tga_name, dataset, port, budget=budget)
        if self.cached_runs > before:
            self.cell_walls.append(time.perf_counter() - start)
        self.recorded[cell_name(result)] = result
        return result


# -- the workloads ------------------------------------------------------------


@dataclass(frozen=True)
class ColdReport:
    """``Study`` + ``generate_report``: the reproduction as a user runs it."""

    name: str = "cold-report"
    num_ases: int = 24
    budget: int = 500
    round_size: int = 100
    tga_names: tuple[str, ...] = ALL_TGA_NAMES

    def inputs(self, seed: int, workdir) -> list[dict]:
        return [{"world_seed": world} for world in world_seeds(seed, self.num_ases)]

    def setup(self, inputs: dict):
        study = _RecordingStudy(
            tiny_world(inputs["world_seed"], self.num_ases),
            budget=self.budget,
            round_size=self.round_size,
            tga_names=self.tga_names,
        )
        study.constructions.all_active
        return study

    def run(self, study) -> str:
        return report.generate_report(study)

    def outcome(self, study, markdown: str) -> Outcome:
        outcome = Outcome(
            ops={"report": digest(markdown)}, lazy_stats=study.internet.lazy_stats()
        )
        for name, run in sorted(study.recorded.items()):
            outcome.ops[name] = run_digest(run)
            outcome.addresses += run.probes_sent
            if run_violations(run):
                outcome.failed.append(name)
        outcome.cell_walls = sorted(study.cell_walls)
        return outcome


@dataclass(frozen=True)
class WarmGrid:
    """A ``StudySpec`` grid whose prepared models load from a primed store."""

    name: str = "warm-grid"
    budget: int = 10_000
    prime_budget: int = 200
    ports: tuple[str, ...] = ("icmp", "tcp443")
    tgas: tuple[str, ...] = ALL_TGA_NAMES

    def spec(self, inputs: dict, budget: int) -> StudySpec:
        return StudySpec(
            scale="tiny",
            seed=inputs["world_seed"],
            budget=budget,
            dataset="active",
            tgas=self.tgas,
            ports=self.ports,
        )

    def inputs(self, seed: int, workdir) -> list[dict]:
        store = str(workdir / "model-store")
        return [{"world_seed": world, "store": store} for world in world_seeds(seed)]

    def prime(self, inputs: dict) -> None:
        """Fill the model store for one world: the same seeds at a small budget."""
        spec = self.spec(inputs, self.prime_budget)
        study = spec.build_study()
        run_grid(
            study,
            spec.grid_spec(study),
            policy=ExecutionPolicy(model_store=inputs["store"]),
        )

    def setup(self, inputs: dict):
        spec = self.spec(inputs, self.budget)
        study = spec.build_study()
        return study, spec.grid_spec(study), inputs["store"]

    def run(self, state):
        study, grid, store = state
        return run_grid(study, grid, policy=ExecutionPolicy(model_store=store))

    def outcome(self, state, results) -> Outcome:
        return _grid_outcome(state[0], results, state[1], workers=1)


@dataclass(frozen=True)
class ParallelGrid:
    """Two dataset constructions x every TGA x every port, on two workers."""

    name: str = "parallel-grid"
    budget: int = 500
    round_size: int = 100
    workers: int = 2
    tga_names: tuple[str, ...] = ALL_TGA_NAMES

    def inputs(self, seed: int, workdir) -> list[dict]:
        return [{"world_seed": world} for world in world_seeds(seed)]

    def setup(self, inputs: dict):
        study = Study(
            tiny_world(inputs["world_seed"]),
            budget=self.budget,
            round_size=self.round_size,
        )
        constructions = study.constructions
        grid = GridSpec(
            datasets=(constructions.joint_dealiased, constructions.all_active),
            tga_names=self.tga_names,
            ports=ALL_PORTS,
            budget=self.budget,
        )
        return study, grid

    def run(self, state):
        study, grid = state
        return run_grid(study, grid, policy=ExecutionPolicy(workers=self.workers))

    def outcome(self, state, results) -> Outcome:
        return _grid_outcome(state[0], results, state[1], workers=self.workers)


@dataclass(frozen=True)
class InternetProbe:
    """Chunked ``Scanner.scan`` over a probe pool spread across a 1M-AS world."""

    name: str = "internet-probe"
    chunks: int = 6
    chunk_size: int = 5_000
    preset: str = "internet"

    def inputs(self, seed: int, workdir) -> list[dict]:
        # One world: the pool spans ~1,900 ASes, so its run time hardly
        # changes with the seed.
        return [{"seed": seed}]

    def pool(self, config: InternetConfig, seed: int) -> list[int]:
        """The probe pool: per sampled AS, 8 observable addresses and 4
        random IIDs in one of its regions plus 4 random addresses in its /32.

        Derived with ``derive_as`` alone (through the module, so a traced
        run times it), which leaves the world it is later scanned against
        untouched.
        """
        total = self.chunks * self.chunk_size
        rng = random.Random(seed)
        pool: list[int] = []
        while len(pool) < total:
            rank = rng.randrange(config.num_ases)
            regions = topology.derive_as(config, rank)[1]
            if not regions:
                continue
            region = regions[rng.randrange(len(regions))]
            pool.extend(region.sample_observable(8, rank))
            pool.extend((region.net64 << 64) | rng.getrandbits(64) for _ in range(4))
            slash32 = topology.slash32_for_rank(config, rank)
            pool.extend(slash32 | rng.getrandbits(96) for _ in range(4))
        pool = pool[:total]
        rng.shuffle(pool)
        return pool

    def setup(self, inputs: dict):
        config = getattr(InternetConfig, self.preset)(master_seed=inputs["seed"])
        pool = self.pool(config, inputs["seed"])
        return Scanner(SimulatedInternet(config)), pool

    def _chunks(self, pool: list[int]) -> list[list[int]]:
        size = self.chunk_size
        return [pool[i * size : (i + 1) * size] for i in range(self.chunks)]

    def run(self, state) -> list[set[int]]:
        scanner, pool = state
        return [scanner.scan(chunk, Port.ICMP).hits for chunk in self._chunks(pool)]

    def outcome(self, state, scans) -> Outcome:
        scanner, pool = state
        outcome = Outcome(lazy_stats=scanner.internet.lazy_stats())
        for index, (chunk, hits) in enumerate(zip(self._chunks(pool), scans)):
            name = f"chunk{index:02d}"
            outcome.ops[name] = digest(hits)
            outcome.addresses += len(chunk)
            if not hits <= set(chunk):
                outcome.failed.append(name)
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (ColdReport(), WarmGrid(), ParallelGrid(), InternetProbe())
}
