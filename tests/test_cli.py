"""Tests for the command-line experiment runner and CSV export."""

import csv
import json

import pytest

from repro.harness.cli import build_parser, main, run
from repro.harness.results import write_csv
from repro.workloads import WORKLOADS


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.system == "eris"
    assert args.workload == "srw"
    assert args.shards == 3


def test_parser_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--system", "mystery"])


def test_list_systems(capsys):
    assert main(["--list-systems"]) == 0
    out = capsys.readouterr().out
    assert "eris" in out and "lockstore" in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_srw_small(workload, capsys):
    """Every workload of the table runs end to end and commits (TPC-C
    counts new-order commits only)."""
    code = main(["--system", "eris", "--workload", workload,
                 "--shards", "2", "--clients", "5", "--keys", "100",
                 "--distributed", "0.5", "--warehouses", "2",
                 "--warmup", "0.002", "--duration", "0.005"])
    assert code == 0
    header, _, row = capsys.readouterr().out.splitlines()[-3:]
    assert "txn/s" in header
    assert row.split()[:2] == ["eris", workload]
    committed = header.split().index("committed")
    assert int(row.split()[committed]) > 0


def test_run_returns_result_object():
    args = build_parser().parse_args(
        ["--system", "ntur", "--workload", "mrmw", "--distributed", "0.5",
         "--shards", "2", "--clients", "5", "--keys", "100",
         "--warmup", "0.002", "--duration", "0.005"])
    cluster, result = run(args)
    assert result.committed > 0
    assert cluster.config.system == "ntur"


def test_csv_export(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["--system", "ntur", "--shards", "2", "--clients", "4",
                 "--keys", "100", "--warmup", "0.002",
                 "--duration", "0.004", "--csv", str(target)])
    assert code == 0
    rows = list(csv.reader(open(target)))
    assert rows[0][0] == "system"
    assert rows[1][0] == "ntur"


def test_write_csv_append_keeps_single_header(tmp_path):
    target = tmp_path / "sweep.csv"
    write_csv(str(target), ["a", "b"], [[1, 2]], append=True)
    write_csv(str(target), ["a", "b"], [[3, 4]], append=True)
    rows = list(csv.reader(open(target)))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


@pytest.fixture
def traced_run(tmp_path):
    """One small traced Eris run exported to JSONL."""
    trace = tmp_path / "run.jsonl"
    code = main(["--system", "eris", "--workload", "srw",
                 "--shards", "2", "--clients", "5", "--keys", "100",
                 "--warmup", "0.002", "--duration", "0.005",
                 "--trace", str(trace)])
    assert code == 0
    return trace


def test_trace_analyze_reports_phase_attribution(traced_run, capsys):
    capsys.readouterr()
    assert main(["trace", "analyze", str(traced_run)]) == 0
    out = capsys.readouterr().out
    assert "commit latency attribution" in out
    for phase in ("client_to_seq", "sequencer", "replica_apply",
                  "quorum_wait", "end_to_end"):
        assert phase in out
    assert "phase sums vs end-to-end" in out
    assert "slowest counted quorum member" in out


def test_trace_analyze_json_and_chrome_export(traced_run, tmp_path, capsys):
    breakdown = tmp_path / "breakdown.json"
    chrome = tmp_path / "run.trace.json"
    code = main(["trace", "analyze", str(traced_run),
                 "--json", str(breakdown), "--chrome", str(chrome),
                 "--top", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slowest transactions" in out
    report = json.load(open(breakdown))
    assert report["txns"]["attributed"] > 0
    assert report["trace"] == str(traced_run)
    assert set(report["phase_order"]) <= set(report["phases"])
    payload = json.load(open(chrome))
    assert payload["traceEvents"]


def test_trace_analyze_missing_file(capsys):
    assert main(["trace", "analyze", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_trace_analyze_malformed_line_names_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts": 0.0, "kind": "send", "node": "a", "cause": 1}\n'
                   "garbage\n")
    assert main(["trace", "analyze", str(bad)]) == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


def test_trace_summary_malformed_line_names_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    assert main(["trace", str(bad)]) == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_write_csv_overwrite(tmp_path):
    target = tmp_path / "fresh.csv"
    write_csv(str(target), ["x"], [[1]])
    write_csv(str(target), ["x"], [[2]])
    rows = list(csv.reader(open(target)))
    assert rows == [["x"], ["2"]]


# -- observability subcommands (stats, drop breakdown, CI gates) -----------

def test_sim_metrics_out_exports_series(tmp_path, capsys):
    series = tmp_path / "series.jsonl"
    code = main(["--system", "eris", "--workload", "srw",
                 "--shards", "2", "--clients", "5", "--keys", "100",
                 "--warmup", "0.002", "--duration", "0.005",
                 "--metrics-out", str(series)])
    assert code == 0
    assert "metrics series" in capsys.readouterr().out
    from repro.obs import load_series
    meta, samples = load_series(str(series))
    assert meta["backend"] == "sim"
    assert samples
    # Deterministic simulated timestamps, not wall clock.
    assert samples[0]["t"] < 1.0


def test_stats_renders_series_tables(tmp_path, capsys):
    series = tmp_path / "series.jsonl"
    main(["--system", "eris", "--workload", "srw",
          "--shards", "2", "--clients", "5", "--keys", "100",
          "--warmup", "0.002", "--duration", "0.005",
          "--metrics-out", str(series)])
    capsys.readouterr()
    assert main(["stats", str(series)]) == 0
    out = capsys.readouterr().out
    assert "counters" in out
    assert "mean rate/s" in out
    assert "events_processed" in out   # sim dispatch-rate counter
    assert "gauges (final sample)" in out


def test_stats_component_filter(tmp_path, capsys):
    series = tmp_path / "series.jsonl"
    main(["--system", "eris", "--workload", "srw",
          "--shards", "2", "--clients", "5", "--keys", "100",
          "--warmup", "0.002", "--duration", "0.005",
          "--metrics-out", str(series)])
    capsys.readouterr()
    assert main(["stats", str(series), "--component", "sim"]) == 0
    out = capsys.readouterr().out
    assert "sim" in out and "fc" not in out
    assert main(["stats", str(series), "--component", "bogus"]) == 2
    assert "no component" in capsys.readouterr().err


def test_stats_missing_file(capsys):
    assert main(["stats", "/nonexistent/series.jsonl"]) == 2
    assert "cannot read series" in capsys.readouterr().err


def test_trace_summary_breaks_drops_down_by_reason(tmp_path, capsys):
    trace = tmp_path / "droppy.jsonl"
    code = main(["--system", "eris", "--workload", "srw",
                 "--shards", "2", "--clients", "5", "--keys", "100",
                 "--warmup", "0.002", "--duration", "0.005",
                 "--drop-rate", "0.2", "--trace", str(trace)])
    assert code == 0
    capsys.readouterr()
    assert main(["trace", str(trace)]) == 0
    out = capsys.readouterr().out
    # Random fabric loss is recorded per-reason and surfaced as
    # drop.<reason> rows, not one collapsed count.
    assert "drop.random-loss" in out


def test_trace_analyze_require_attributed_gates_empty_traces(tmp_path,
                                                             capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"ts": 0.0, "kind": "send", "node": "a", '
                     '"cause": 1, "msg": "X", "dst": "b"}\n')
    assert main(["trace", "analyze", str(empty)]) == 0
    capsys.readouterr()
    assert main(["trace", "analyze", str(empty),
                 "--require-attributed"]) == 1
    assert "--require-attributed" in capsys.readouterr().err


def test_trace_analyze_require_attributed_passes_real_trace(traced_run):
    assert main(["trace", "analyze", str(traced_run),
                 "--require-attributed"]) == 0


def test_udpsmoke_parser_accepts_observability_flags():
    from repro.harness.cli import build_udpsmoke_parser

    args = build_udpsmoke_parser().parse_args(
        ["--trace", "t.jsonl", "--metrics-out", "m.jsonl",
         "--metrics-interval", "0.01", "--recorder", "fr.jsonl",
         "--recorder-capacity", "512"])
    assert args.trace == "t.jsonl"
    assert args.metrics_out == "m.jsonl"
    assert args.metrics_interval == 0.01
    assert args.recorder == "fr.jsonl"
    assert args.recorder_capacity == 512


@pytest.mark.parametrize("argv", [
    ["--run-dir", "runs"],
    ["--processes", "single", "--run-dir", "runs"],
    ["--workload", "counters", "--run-dir", "runs"],
])
def test_udpsmoke_rejects_per_node_flags_in_single_mode(argv, capsys):
    """The per-node-only flag without ``--processes per-node`` is a
    usage error naming the flag, not silently ignored (and no run
    starts)."""
    with pytest.raises(SystemExit) as exc:
        main(["udpsmoke", *argv])
    assert exc.value.code == 2
    assert "--run-dir" in capsys.readouterr().err


def test_per_node_udpsmoke_writes_to_the_flag_paths(tmp_path, capsys):
    """``--trace`` and ``--metrics-out`` name files in both process
    layouts. Per-node, the merged trace and the driver's metrics series
    land at the given paths (the flags used to act as switches and the
    paths were ignored), next to the per-worker shards in the run
    directory."""
    trace = tmp_path / "merged.jsonl"
    metrics = tmp_path / "driver-metrics.jsonl"
    run_dir = tmp_path / "run"
    code = main(["udpsmoke", "--processes", "per-node",
                 "--run-dir", str(run_dir), "--clients", "2",
                 "--min-commits", "10", "--keys", "120", "--timeout", "60",
                 "--trace", str(trace), "--metrics-out", str(metrics),
                 "--recorder", str(tmp_path / "rec.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert f"-> {trace}" in out and f"-> {metrics}" in out
    assert main(["trace", str(trace), "--check"]) == 0
    assert main(["stats", str(metrics)]) == 0
    assert (run_dir / "trace-1.jsonl").exists()
    assert (run_dir / "metrics-1.jsonl").exists()


def test_udpsmoke_rejects_removed_batch_flag(capsys):
    """Flags of deleted knobs are usage errors, not silently ignored."""
    for argv in (["--batch", "8"], ["--timer-slack", "0.001"]):
        with pytest.raises(SystemExit) as exc:
            main(["udpsmoke", *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err


def _load_docs_check():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
        "docs_check.py"
    spec = importlib.util.spec_from_file_location("docs_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_check_matches_whole_flags():
    """A documented flag that is only a prefix of a real one is
    reported: ``--commutative`` is gone even though the help still
    shows ``--commutative-fraction``."""
    docs_check = _load_docs_check()
    problems = docs_check.check_command("repro", ["--commutative"])
    assert len(problems) == 1 and "--commutative" in problems[0]
    assert docs_check.check_command(
        "repro", ["--commutative-fraction", "0.2", "--read-fraction",
                  "0.5"]) == []
