"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.tga import ALL_TGA_NAMES

from .golden_telemetry import GOLDEN_PATH


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["world", "describe"])
        assert args.scale == "tiny"
        assert args.seed == 42
        assert args.budget == 2500

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["study", "run", "6tree", "--port", "tcp80", "--dataset", "joint"]
        )
        assert args.tga == "6tree"
        assert args.port == "tcp80"
        assert args.dataset == "joint"

    def test_invalid_tga_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "7tree"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "planetary", "world", "describe"])


ALL_TGAS = ",".join(ALL_TGA_NAMES)

#: Every ``world`` and ``study`` verb, each with its defaults and with
#: its positional arguments and options given: (argv, parsed attributes).
VERB_CASES = [
    (["world", "describe"], {}),
    (["world", "sources"], {}),
    (["world", "overlap"], {"by": "ip"}),
    (["world", "overlap", "--by", "as"], {"by": "as"}),
    (["study", "run", "6gen"], {"tga": "6gen", "port": "icmp", "dataset": "active"}),
    (
        ["study", "run", "entropy_ip", "--port", "udp53", "--dataset", "offline"],
        {"tga": "eip", "port": "udp53", "dataset": "offline"},
    ),
    (["study", "grid"], {"tgas": ALL_TGAS, "ports": "icmp", "dataset": "active"}),
    (
        ["study", "grid", "--tgas", "6tree,6gen", "--ports", "icmp,tcp80",
         "--dataset", "joint"],
        {"tgas": "6tree,6gen", "ports": "icmp,tcp80", "dataset": "joint"},
    ),
    (
        ["study", "resume", "cp.jsonl"],
        {"checkpoint": "cp.jsonl", "tgas": ALL_TGAS, "ports": "icmp",
         "dataset": "active"},
    ),
    (
        ["study", "resume", "cp.jsonl", "--tgas", "6gen", "--ports", "tcp443",
         "--dataset", "online"],
        {"checkpoint": "cp.jsonl", "tgas": "6gen", "ports": "tcp443",
         "dataset": "online"},
    ),
    *(
        case
        for verb in ("rq1a", "rq1b", "rq2", "rq4")
        for case in (
            (["study", verb], {"port": "icmp"}),
            (["study", verb, "--port", "tcp80"], {"port": "tcp80"}),
        )
    ),
    (["study", "rq3"], {"sources": "censys,scamper,hitlist"}),
    (["study", "rq3", "--sources", "censys"], {"sources": "censys"}),
    (["study", "convergence", "6tree"], {"tga": "6tree", "port": "icmp"}),
    (
        ["study", "convergence", "6scan", "--port", "tcp443"],
        {"tga": "6scan", "port": "tcp443"},
    ),
    (["study", "recommend"], {"port": "tcp443"}),
    (["study", "recommend", "--port", "udp53"], {"port": "udp53"}),
    (["study", "report"], {"out": ""}),
    (["study", "report", "--out", "report.md"], {"out": "report.md"}),
]


@pytest.mark.parametrize(
    "argv, expected", VERB_CASES, ids=[" ".join(argv) for argv, _ in VERB_CASES]
)
def test_world_and_study_verbs_parse(argv, expected):
    args = build_parser().parse_args(argv)
    assert args.command_name == " ".join(argv[:2])
    assert {name: getattr(args, name) for name in expected} == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["world", "describe", "--by", "as"],
        ["study", "rq3", "--port", "icmp"],
        ["study", "report", "--port", "icmp"],
        ["study", "recommend", "--dataset", "joint"],
    ],
    ids=" ".join,
)
def test_verbs_reject_arguments_they_do_not_take(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


class TestCommands:
    def test_describe(self, capsys):
        assert main(["world", "describe"]) == 0
        out = capsys.readouterr().out
        assert "regions" in out
        assert "ases" in out

    def test_sources_with_export(self, capsys, tmp_path):
        export = tmp_path / "sources.json"
        assert main(["--export", str(export), "world", "sources"]) == 0
        rows = json.loads(export.read_text())
        assert len(rows) == 12
        assert {"source", "kind", "unique", "ases"} <= set(rows[0])

    def test_run_cell(self, capsys):
        assert (
            main(["--budget", "400", "study", "run", "6gen", "--port", "icmp"]) == 0
        )
        out = capsys.readouterr().out
        assert "hits" in out
        assert "6gen" in out

    def test_run_export_csv(self, tmp_path, capsys):
        export = tmp_path / "run.csv"
        assert (
            main(
                ["--budget", "400", "--export", str(export), "study", "run", "6tree"]
            )
            == 0
        )
        header = export.read_text().splitlines()[0]
        assert "tga" in header and "hits" in header

    def test_rq4(self, capsys):
        assert main(["--budget", "400", "study", "rq4", "--port", "icmp"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out.lower()

    def test_recommend(self, capsys):
        assert (
            main(["--budget", "400", "study", "recommend", "--port", "udp53"]) == 0
        )
        out = capsys.readouterr().out
        assert "ENSEMBLE" in out


class TestNewCommands:
    def test_rq3(self, capsys):
        assert (
            main(
                ["--budget", "400", "study", "rq3", "--sources", "censys,scamper"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pooled" in out

    def test_overlap_heatmap(self, capsys):
        assert main(["world", "overlap", "--by", "ip"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_convergence(self, capsys):
        assert main(["--budget", "400", "study", "convergence", "6gen"]) == 0
        out = capsys.readouterr().out
        assert "budget to 50% yield" in out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert (
            main(["--budget", "300", "study", "report", "--out", str(out)]) == 0
        )
        text = out.read_text()
        assert text.startswith("# Seeds of Scanning")
        assert "RQ1.a" in text and "RQ5" in text


class TestNounVerbCLI:
    def test_study_run_parses(self):
        args = build_parser().parse_args(
            ["study", "run", "6tree", "--port", "tcp80", "--dataset", "joint"]
        )
        assert args.command == "study"
        assert args.command_name == "study run"
        assert args.tga == "6tree"
        assert args.port == "tcp80"

    def test_new_spelling_runs_without_deprecation(self, capsys):
        assert main(["world", "describe"]) == 0
        captured = capsys.readouterr()
        assert "regions" in captured.out
        assert "deprecated" not in captured.err

    def test_flat_spelling_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["describe"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'describe'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--cell-timeout", "0"),
            ("--cell-timeout", "nan"),
            ("--sample-resources", "0"),
            ("--max-retries", "-1"),
        ],
    )
    def test_bad_policy_value_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, value, "study", "grid", "--tgas", "6gen"])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_study_resume_reruns_from_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "grid.jsonl"
        assert (
            main(
                ["--budget", "400", "--checkpoint", str(checkpoint),
                 "study", "grid", "--tgas", "6gen"]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert checkpoint.exists()
        assert (
            main(
                ["--budget", "400", "study", "resume", str(checkpoint),
                 "--tgas", "6gen"]
            )
            == 0
        )
        assert capsys.readouterr().out == first

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command_name == "serve"
        assert args.http_port == 8674
        assert args.pool == 2
        assert args.max_queue == 64
        assert args.rate == 50.0

    def test_manifest_records_the_noun_verb_command(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                ["--budget", "400", "--telemetry", str(trace),
                 "study", "run", "6gen"]
            )
            == 0
        )
        manifest = json.loads(trace.read_text().splitlines()[0])
        assert manifest["command"] == "study run"


def run_traced(tmp_path, name, extra=(), budget="400"):
    """Run a tiny cell with --telemetry and return the trace path."""
    trace = tmp_path / name
    argv = [
        "--budget", budget, "--telemetry", str(trace),
        *extra, "study", "run", "6gen", "--port", "icmp",
    ]
    assert main(argv) == 0
    return trace


class TestTelemetryFlags:
    def test_trace_opens_with_manifest_and_ends_with_snapshot(
        self, tmp_path, capsys
    ):
        trace = run_traced(tmp_path, "trace.jsonl")
        assert "wrote telemetry trace" in capsys.readouterr().err
        lines = trace.read_text(encoding="utf-8").splitlines()
        manifest = json.loads(lines[0])
        assert manifest["type"] == "manifest"
        assert manifest["master_seed"] == 42
        assert manifest["scale"] == "tiny"
        assert manifest["config_hash"].startswith("sha256:")
        assert json.loads(lines[-1])["type"] == "snapshot"
        assert any(json.loads(line)["type"] == "cell" for line in lines[1:-1])

    def test_telemetry_summary_goes_to_stderr(self, capsys):
        assert (
            main(
                ["--budget", "400", "--telemetry-summary", "study", "run",
                 "6gen", "--port", "icmp"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "counters" in captured.err and "spans" in captured.err
        assert "counters" not in captured.out  # the run table stays clean

    def test_fixed_seed_traces_are_byte_identical(self, tmp_path, capsys):
        a = run_traced(tmp_path, "a.jsonl")
        b = run_traced(tmp_path, "b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_progress_renders_but_leaves_the_trace_untouched(
        self, tmp_path, capsys
    ):
        plain = run_traced(tmp_path, "plain.jsonl")
        plain_stdout = capsys.readouterr().out
        shown = run_traced(tmp_path, "shown.jsonl", extra=("--progress",))
        captured = capsys.readouterr()
        assert shown.read_bytes() == plain.read_bytes()  # byte-identical
        assert captured.out == plain_stdout  # stdout untouched too
        assert "cells]" in captured.err
        assert "finished:" in captured.err

    def test_export_writes_manifest_sidecar(self, tmp_path, capsys):
        export = tmp_path / "rows.json"
        trace = tmp_path / "trace.jsonl"
        argv = [
            "--budget", "400", "--telemetry", str(trace),
            "--export", str(export), "study", "run", "6gen", "--port", "icmp",
        ]
        assert main(argv) == 0
        sidecar = tmp_path / "rows.manifest.json"
        assert "manifest:" in capsys.readouterr().out
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        assert manifest["master_seed"] == 42
        assert manifest["snapshot_digest"].startswith("sha256:")

    def test_export_sidecar_without_telemetry_has_no_snapshot(
        self, tmp_path, capsys
    ):
        export = tmp_path / "rows.json"
        assert (
            main(
                ["--budget", "400", "--export", str(export), "study", "run",
                 "6gen", "--port", "icmp"]
            )
            == 0
        )
        manifest = json.loads(
            (tmp_path / "rows.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["config_hash"].startswith("sha256:")
        assert "snapshot_digest" not in manifest


def inflate_counter(trace_path, out_path, factor=10):
    """Copy a JSONL trace, multiplying the first scan.* counter by ``factor``."""
    lines = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "snapshot":
            name = next(k for k in record["counters"] if k.startswith("scan."))
            record["counters"][name] *= factor
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path


class TestTraceCommands:
    def test_summary_on_golden_fixture(self, capsys):
        assert main(["trace", "summary", str(GOLDEN_PATH)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "Counters" in out
        assert "tga.rounds" in out

    def test_summary_on_recorded_run(self, tmp_path, capsys):
        trace = run_traced(tmp_path, "trace.jsonl")
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "master_seed=42" in out
        assert "config: sha256:" in out
        # The opening manifest is written before the run so it cannot
        # carry a final-snapshot digest; only export sidecars do.
        assert "snapshot: sha256:" not in out

    def test_attribution_on_golden_fixture(self, capsys):
        assert main(["trace", "attribution", str(GOLDEN_PATH), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "scan" in out and "dealias" in out
        assert "%" in out
        assert "total" in out

    def test_check_clean_against_itself(self, tmp_path, capsys):
        trace = run_traced(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert (
            main(["trace", "check", str(trace), "--baseline", str(trace)]) == 0
        )
        assert "OK:" in capsys.readouterr().out

    def test_check_fails_on_inflated_counters(self, tmp_path, capsys):
        baseline = run_traced(tmp_path, "baseline.jsonl")
        inflated = inflate_counter(baseline, tmp_path / "inflated.jsonl")
        capsys.readouterr()
        assert (
            main(["trace", "check", str(inflated), "--baseline", str(baseline)])
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_tolerance_admits_the_drift(self, tmp_path, capsys):
        baseline = run_traced(tmp_path, "baseline.jsonl")
        inflated = inflate_counter(baseline, tmp_path / "inflated.jsonl")
        assert (
            main(
                ["trace", "check", str(inflated), "--baseline", str(baseline),
                 "--rel-tol", "100"]
            )
            == 0
        )

    def test_diff_detects_budget_change(self, tmp_path, capsys):
        small = run_traced(tmp_path, "small.jsonl", budget="400")
        large = run_traced(tmp_path, "large.jsonl", budget="800")
        capsys.readouterr()
        assert main(["trace", "diff", str(large), str(small)]) == 1
        out = capsys.readouterr().out
        assert "figures differ" in out

    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])
