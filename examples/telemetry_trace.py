"""Telemetry & tracing: record a JSONL trace of an RQ1 pipeline slice.

Attaches a :class:`repro.telemetry.Telemetry` registry with a
``JsonlSink`` to a small RQ1.a slice (two dealias treatments on ICMP),
then shows the three ways to consume what was recorded:

* the JSONL event log (one ``round``/``cell``/``span`` object per
  line, written as the run progresses, byte-identical for a fixed
  master seed — even with ``workers=2``);
* the in-memory registry (counters, histograms, span tree) for
  programmatic checks;
* the human summary table from :func:`repro.telemetry.render_summary`.

The same trace is available from the shell on any pipeline command:

    python -m repro --telemetry trace.jsonl --telemetry-summary study rq1a

Run:  python examples/telemetry_trace.py
"""

import json
from pathlib import Path

from repro.dealias import DealiasMode
from repro.experiments import ExecutionPolicy, Study, run_rq1a
from repro.internet import InternetConfig, Port
from repro.telemetry import JsonlSink, Telemetry, render_summary

TRACE_PATH = Path("rq1a_trace.jsonl")


def main() -> None:
    study = Study(config=InternetConfig.tiny(), budget=1_000, round_size=250)

    # One registry, two sinks' worth of output: the JSONL file gets
    # every event plus a final snapshot line; the registry object keeps
    # the aggregates for inspection after the run.
    telemetry = Telemetry(sinks=[JsonlSink(TRACE_PATH)])
    result = run_rq1a(
        study,
        ports=(Port.ICMP,),
        modes=(DealiasMode.NONE, DealiasMode.JOINT),
        policy=ExecutionPolicy(telemetry=telemetry),
    )
    telemetry.close()
    print(f"RQ1.a slice: {len(result.runs)} cells")

    # 1. The event log: rounds and cells in execution order.
    lines = TRACE_PATH.read_text(encoding="utf-8").splitlines()
    events = [json.loads(line) for line in lines]
    rounds = [event for event in events if event["type"] == "round"]
    cells = [event for event in events if event["type"] == "cell"]
    print(f"trace: {len(lines)} lines ({len(rounds)} rounds, {len(cells)} cells)")
    best = max(cells, key=lambda event: event["hits"])
    print(
        f"best cell: {best['tga']} on {best['dataset']} -> "
        f"{best['hits']} hits in {best['rounds']} rounds"
    )

    # 2. The aggregates: counters are plain dict entries.
    probes = telemetry.counters["scan.probes"]
    dedup = telemetry.counters.get("tga.dedup_discards", 0)
    print(f"counters: {probes:,} probes sent, {dedup:,} duplicate candidates")

    # 3. The human summary (what --telemetry-summary prints).
    print()
    print(render_summary(telemetry))

    # The last trace line is a full deterministic snapshot: rerunning
    # this script produces a byte-identical file.
    snapshot = events[-1]
    assert snapshot["type"] == "snapshot"
    assert snapshot["counters"] == {
        name: value for name, value in sorted(telemetry.counters.items())
    }
    print(f"\nwrote {TRACE_PATH} (final line is the snapshot)")


if __name__ == "__main__":
    main()
