"""Command-line experiment runner.

Runs one measurement — any system, any YCSB+T workload or TPC-C — and
prints (optionally CSV-exports) the result, so parameter sweeps can be
scripted without writing Python::

    python -m repro.harness.cli --system eris --workload mrmw \
        --distributed 0.2 --zipf 0.9 --shards 3 --clients 200
    python -m repro.harness.cli --system lockstore --workload tpcc
    python -m repro.harness.cli --list-systems

With ``--trace PATH`` the run records a causal trace (``repro.obs``)
and exports it as JSONL; ``--metrics`` prints the per-component metric
table after the run. The ``trace`` subcommand summarizes a previously
exported trace, and ``trace analyze`` reconstructs per-transaction
span trees and attributes commit latency to protocol phases::

    python -m repro.harness.cli --system eris --trace run.jsonl --metrics
    python -m repro.harness.cli trace run.jsonl
    python -m repro.harness.cli trace analyze run.jsonl \
        --json breakdown.json --chrome run.trace.json

The same stack runs over real sockets: ``udpsmoke --trace --metrics-out``
records a wall-clock causal trace plus a sampled metrics time-series
from the asyncio-UDP backend, and ``stats`` renders any series file::

    python -m repro udpsmoke --trace udp.jsonl --metrics-out udp-metrics.jsonl
    python -m repro trace analyze udp.jsonl
    python -m repro stats udp-metrics.jsonl

(``python -m repro`` is shorthand for this module.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.harness.cluster import SYSTEMS, ClusterConfig, build_cluster
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.results import format_metrics, format_table, write_csv
from repro.net.network import NetConfig
from repro.sim.randomness import SplitRandom
from repro.workloads import WORKLOADS, build_workload
from repro.workloads.tpcc.schema import TPCCScale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Run one Eris-reproduction measurement.")
    parser.add_argument("--system", choices=SYSTEMS, default="eris")
    parser.add_argument("--workload", choices=WORKLOADS, default="srw")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--clients", type=int, default=100)
    parser.add_argument("--keys", type=int, default=2000,
                        help="YCSB key-space size")
    parser.add_argument("--distributed", type=float, default=0.0,
                        help="fraction of multi-shard txns (mrmw/crmw)")
    parser.add_argument("--zipf", type=float, default=0.0,
                        help="Zipf exponent for key access")
    parser.add_argument("--warehouses", type=int, default=6,
                        help="TPC-C warehouses")
    parser.add_argument("--remote", type=float, default=0.10,
                        help="TPC-C remote fraction")
    parser.add_argument("--read-fraction", type=float, default=0.5,
                        help="counters: fraction of READ_ONLY point "
                             "reads")
    parser.add_argument("--commutative-fraction", type=float, default=0.4,
                        help="counters: fraction of increments/"
                             "tag-unions (remainder are resets)")
    parser.add_argument("--drop-rate", type=float, default=0.0)
    parser.add_argument("--kill-sequencer", type=float, default=None,
                        metavar="T",
                        help="kill the active sequencing element (the "
                             "routed sequencer) at simulated time T")
    parser.add_argument("--warmup", type=float, default=4e-3,
                        help="simulated seconds before measurement")
    parser.add_argument("--duration", type=float, default=10e-3,
                        help="simulated measurement window")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--csv", metavar="PATH",
                        help="append the result as a CSV row")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a causal trace and export it as JSONL")
    parser.add_argument("--metrics", action="store_true",
                        help="print the per-component metric table")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="sample the metrics registry periodically "
                             "(simulated time) and export the JSONL "
                             "time-series for `stats`")
    parser.add_argument("--metrics-interval", type=float, default=1e-3,
                        metavar="SECS",
                        help="sampling period for --metrics-out "
                             "(simulated seconds)")
    parser.add_argument("--list-systems", action="store_true")
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli trace",
        description="Summarize an exported JSONL causal trace.")
    parser.add_argument("path", help="trace file (JSONL)")
    parser.add_argument("--check", action="store_true",
                        help="also run the trace-backed invariant checkers")
    return parser


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli trace analyze",
        description="Reconstruct transaction span trees from a JSONL "
                    "trace and attribute commit latency to protocol "
                    "phases along the critical path.")
    parser.add_argument("path", help="trace file (JSONL)")
    parser.add_argument("--json", metavar="PATH",
                        help="export the full breakdown as JSON")
    parser.add_argument("--chrome", metavar="PATH",
                        help="export a Chrome trace-event / Perfetto "
                             "JSON timeline of every span tree")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N slowest transactions")
    parser.add_argument("--require-attributed", action="store_true",
                        help="exit non-zero when no transaction could "
                             "be phase-attributed (CI gate: an empty "
                             "breakdown means tracing was not actually "
                             "wired)")
    return parser


def build_udpsmoke_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli udpsmoke",
        description="Run Eris end-to-end over real UDP loopback sockets "
                    "(asyncio runtime backend) and check the §6.7 "
                    "invariants.")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--min-commits", type=int, default=50)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="real seconds to wait for --min-commits")
    parser.add_argument("--workload",
                        choices=("srw", "mrmw", "crmw", "counters"),
                        default="mrmw")
    parser.add_argument("--distributed", type=float, default=0.5,
                        help="fraction of multi-shard txns (counters: "
                             "fraction of cross-shard increments)")
    parser.add_argument("--keys", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", metavar="PATH",
                        help="record a full causal trace (clocked off "
                             "the asyncio loop's monotonic clock) and "
                             "export it as JSONL for `trace analyze` "
                             "(per-node: the merge of every process's "
                             "shard)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="sample this process's metrics registry "
                             "periodically and export the JSONL "
                             "time-series for `stats` (per-node: each "
                             "worker's series goes to the run directory)")
    parser.add_argument("--metrics-interval", type=float, default=0.05,
                        metavar="SECS",
                        help="sampling period for --metrics-out")
    parser.add_argument("--recorder", metavar="PATH",
                        default="flight-recorder.jsonl",
                        help="this process's flight-recorder dump path "
                             "(written only when a check fails or the "
                             "run crashes; per-node: each worker dumps "
                             "into the run directory)")
    parser.add_argument("--recorder-capacity", type=int, default=4096,
                        metavar="N", help="flight-recorder ring size")
    parser.add_argument("--processes", choices=("single", "per-node"),
                        default="single",
                        help="'single' runs everything in this process; "
                             "'per-node' spawns one OS process per "
                             "replica/sequencer/controller/FC via the "
                             "cluster launcher (driver hosts the clients)")
    parser.add_argument("--run-dir", metavar="DIR",
                        help="per-node mode: directory for worker logs, "
                             "trace/metrics shards, and recorder dumps "
                             "(default: a fresh temp directory)")
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli stats",
        description="Render a metrics time-series (JSONL, written by "
                    "--metrics-out / udpsmoke --metrics-out) as "
                    "per-component tables: totals and mean/peak rates "
                    "for counters, last values for gauges, count/p50/"
                    "p99 for histograms.")
    parser.add_argument("path", help="metrics series file (JSONL)")
    parser.add_argument("--component", metavar="NAME",
                        help="only show this component")
    return parser


def _fmt_stat(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.6g}"
    return str(value)


def stats_main(argv: Sequence[str]) -> int:
    """The ``stats`` subcommand: metrics time-series -> tables."""
    from repro.obs import load_series, summarize_series

    args = build_stats_parser().parse_args(argv)
    try:
        meta, samples = load_series(args.path)
    except OSError as exc:
        print(f"error: cannot read series: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = summarize_series(meta, samples)
    span = report["span"]
    duration = ((span["t_last"] - span["t_first"])
                if span["samples"] else 0.0)
    print(format_table(
        ["stat", "value"],
        [["backend", span["backend"]],
         ["samples", span["samples"]],
         ["interval", _fmt_stat(span["interval"])],
         ["series span (s)", f"{duration:.3f}"]],
        title=args.path))
    rows = report["rows"]
    if args.component:
        rows = [r for r in rows if r["component"] == args.component]
        if not rows:
            print(f"error: no component {args.component!r} in series "
                  f"(have: {sorted({r['component'] for r in report['rows']})})",
                  file=sys.stderr)
            return 2
    rates = [r for r in rows if r["kind"] == "rate"]
    if rates:
        print(format_table(
            ["component", "counter", "total", "mean rate/s", "peak rate/s"],
            [[r["component"], r["name"], _fmt_stat(r["total"]),
              _fmt_stat(r.get("rate_mean", 0.0)),
              _fmt_stat(r.get("rate_peak", 0.0))] for r in rates],
            title="\ncounters"))
    gauges = [r for r in rows if r["kind"] == "gauge"]
    if gauges:
        print(format_table(
            ["component", "gauge", "last"],
            [[r["component"], r["name"], _fmt_stat(r["last"])]
             for r in gauges],
            title="\ngauges (final sample)"))
    hists = [r for r in rows if r["kind"] == "hist"]
    if hists:
        print(format_table(
            ["component", "histogram", "count", "mean", "p50", "p99", "max"],
            [[r["component"], r["name"], r["count"],
              _fmt_stat(r.get("mean")), _fmt_stat(r.get("p50")),
              _fmt_stat(r.get("p99")), _fmt_stat(r.get("max"))]
             for r in hists],
            title="\nhistograms (final sample)"))
    return 0


def udpsmoke_main(argv: Sequence[str]) -> int:
    """The ``udpsmoke`` subcommand: real-transport smoke run."""
    from repro.errors import ExperimentError, InvariantViolation
    from repro.harness.udp_smoke import run_udp_smoke

    parser = build_udpsmoke_parser()
    args = parser.parse_args(argv)
    if args.processes != "per-node" and args.run_dir is not None:
        parser.error("--run-dir requires --processes per-node")
    try:
        result = run_udp_smoke(
            n_shards=args.shards, n_replicas=args.replicas,
            n_clients=args.clients, min_commits=args.min_commits,
            timeout=args.timeout, workload=args.workload,
            distributed_fraction=args.distributed, n_keys=args.keys,
            seed=args.seed,
            processes=args.processes, run_dir=args.run_dir,
            trace_path=args.trace, metrics_path=args.metrics_out,
            metrics_interval=args.metrics_interval,
            recorder_path=args.recorder,
            recorder_capacity=args.recorder_capacity)
    except (ExperimentError, InvariantViolation) as exc:
        print(f"udp smoke: FAILED\n  {exc}", file=sys.stderr)
        print(f"  flight recorder dump (last events before the "
              f"failure): {args.recorder}", file=sys.stderr)
        if args.processes == "per-node":
            print("  per-process logs and worker recorder dumps are in "
                  "the run directory", file=sys.stderr)
        return 1
    backend = ("asyncio-udp-mp (process per node)"
               if args.processes == "per-node"
               else "asyncio-udp (loopback)")
    rows = [["backend", backend],
            ["shards x replicas", f"{args.shards} x {args.replicas}"],
            ["committed", result.committed],
            ["aborted", result.aborted],
            ["retries", result.retries],
            ["wall seconds", f"{result.wall_seconds:.3f}"],
            ["packets sent", result.packets_sent],
            ["packets delivered", result.packets_delivered],
            ["frames / datagrams", f"{result.frames_sent} / "
                                   f"{result.datagrams_sent}"],
            ["invariant checks", "OK"]]
    if result.processes > 1:
        rows.insert(1, ["processes", result.processes])
        rows.insert(2, ["run dir", result.run_dir])
    if result.trace_path:
        rows.append(["trace", f"{result.trace_events} events -> "
                              f"{result.trace_path}"])
    if result.metrics_path:
        rows.append(["metrics series", f"{result.metrics_samples} samples "
                                       f"-> {result.metrics_path}"])
    print(format_table(["stat", "value"], rows, title="udp smoke"))
    return 0


def run(args: argparse.Namespace):
    config = ClusterConfig(system=args.system, n_shards=args.shards,
                           n_replicas=args.replicas, seed=args.seed,
                           net=NetConfig(drop_rate=args.drop_rate))
    workload = build_workload(
        args.workload, args.shards, SplitRandom(args.seed + 1),
        n_keys=args.keys, distributed=args.distributed, zipf=args.zipf,
        read_fraction=args.read_fraction,
        commutative_fraction=args.commutative_fraction,
        tpcc_scale=TPCCScale(n_warehouses=args.warehouses),
        remote_fraction=args.remote)
    cluster = build_cluster(config, workload.registry, workload.partitioner,
                            loader=workload.loader)
    if args.kill_sequencer is not None:
        from repro.harness.faults import FaultPlan
        FaultPlan(cluster).kill_sequencer_at(args.kill_sequencer)
    sampler = None
    if args.metrics_out:
        from repro.obs import MetricsSampler
        cluster.instrument_metrics()
        sampler = MetricsSampler(cluster.runtime, cluster.metrics,
                                 interval=args.metrics_interval)
        sampler.start()
    try:
        result = run_experiment(cluster, workload.ops, ExperimentConfig(
            n_clients=args.clients, warmup=args.warmup,
            duration=args.duration, count_filter=workload.count_filter,
            trace_path=args.trace))
    finally:
        if sampler is not None:
            sampler.stop()
            count = sampler.export(args.metrics_out)
            print(f"metrics series: {count} samples -> {args.metrics_out}")
    return cluster, result


def analyze_main(argv: Sequence[str]) -> int:
    """``trace analyze``: span reconstruction + per-phase latency
    attribution along the commit critical path."""
    import json

    from repro.obs import (
        analyze_spans,
        build_spans,
        export_chrome_trace,
        load_trace,
    )

    args = build_analyze_parser().parse_args(argv)
    try:
        events = load_trace(args.path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    forest = build_spans(events)
    report = analyze_spans(forest)

    txns = report["txns"]
    print(format_table(
        ["stat", "value"],
        [["transactions", txns["total"]],
         ["completed", txns["completed"]],
         ["committed", txns["committed"]],
         ["timed out", txns["timedout"]],
         ["attributed", txns["attributed"]],
         ["recoveries", report["recovery"]["count"]],
         ["fc escalations", report["recovery"]["fc_escalated"]]],
        title=args.path))

    def fmt(stats: dict, key: str) -> str:
        value = stats.get(key)
        return "-" if value is None else f"{value:.1f}"

    if txns["attributed"]:
        rows = []
        for name in report["phase_order"]:
            stats = report["phases"][name]
            rows.append([name, fmt(stats, "mean_us"), fmt(stats, "p50_us"),
                         fmt(stats, "p99_us"),
                         f"{stats['share'] * 100:.1f}%"])
        e2e = report["end_to_end"]
        rows.append(["end_to_end", fmt(e2e, "mean_us"), fmt(e2e, "p50_us"),
                     fmt(e2e, "p99_us"), "100.0%"])
        print(format_table(
            ["phase", "mean_us", "p50_us", "p99_us", "share"], rows,
            title="\ncommit latency attribution (fastest reply chain)"))
        consistency = report["consistency"]
        print(f"\nphase sums vs end-to-end: "
              f"{consistency['mean_phase_sum_us']:.3f}us vs "
              f"{consistency['mean_e2e_us']:.3f}us "
              f"(residual {consistency['residual_us']:+.3g}us)")
        members = report["critical_path"]["by_member"]
        if members:
            print(format_table(
                ["critical-path member", "txns"],
                [[node, count] for node, count in members.items()],
                title="\nslowest counted quorum member"))
        queue = report["sequencer_queue"]
        if queue["count"]:
            print(f"\nsequencer queue delay: mean {fmt(queue, 'mean_us')}us"
                  f"  p99 {fmt(queue, 'p99_us')}us"
                  f"  max {fmt(queue, 'max_us')}us"
                  f"  (n={queue['count']})")
    else:
        print("\nno attributable transactions "
              "(trace has no completed quorum-reaching txns)")
        if args.require_attributed:
            print("error: --require-attributed: empty phase breakdown",
                  file=sys.stderr)
            return 1

    if args.top:
        slowest = sorted(forest.attributed(),
                         key=lambda t: t.end_to_end, reverse=True)
        rows = [[t.txn, f"{t.end_to_end * 1e6:.1f}",
                 max(t.phases, key=t.phases.get), t.retries,
                 t.critical["node"] if t.critical else "-"]
                for t in slowest[:args.top]]
        if rows:
            print(format_table(
                ["txn", "e2e_us", "dominant phase", "retries",
                 "critical member"],
                rows, title=f"\n{len(rows)} slowest transactions"))

    if args.json:
        payload = dict(report, trace=args.path)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nbreakdown -> {args.json}")
    if args.chrome:
        count = export_chrome_trace(forest, args.chrome)
        print(f"chrome trace ({count} events) -> {args.chrome}  "
              "(open in Perfetto: https://ui.perfetto.dev)")
    return 0


def build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli trace merge",
        description="Merge per-process trace shards (written by "
                    "udpsmoke --processes per-node) into one "
                    "timestamp-sorted stream that `trace` / `trace "
                    "analyze` consume like a single-process trace.")
    parser.add_argument("shards", nargs="+",
                        help="per-process trace shard files (JSONL)")
    parser.add_argument("-o", "--out", required=True, metavar="PATH",
                        help="write the merged JSONL stream here")
    return parser


def merge_main(argv: Sequence[str]) -> int:
    """``trace merge``: shard files -> one merged stream."""
    from repro.obs import merge_trace_shards

    args = build_merge_parser().parse_args(argv)
    try:
        events = merge_trace_shards(args.shards, args.out)
    except OSError as exc:
        print(f"error: cannot read shard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"merged {len(args.shards)} shards ({len(events)} events) "
          f"-> {args.out}")
    return 0


def trace_main(argv: Sequence[str]) -> int:
    """The ``trace`` subcommand: summarize (and optionally check) a
    previously exported JSONL trace."""
    from repro.harness.checkers import run_trace_checks
    from repro.obs import load_trace, summarize_trace

    argv = list(argv)
    if argv and argv[0] == "analyze":
        return analyze_main(argv[1:])
    if argv and argv[0] == "merge":
        return merge_main(argv[1:])
    args = build_trace_parser().parse_args(argv)
    try:
        events = load_trace(args.path)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(events)
    rows = [["events", summary["events"]],
            ["sends", summary["sends"]],
            ["delivers", summary["delivers"]],
            ["drops", summary["drops"]],
            ["drop_rate", f"{summary['drop_rate'] * 100:.2f}%"],
            ["reorders", summary["reorders"]],
            ["view_changes", summary["view_changes"]],
            ["epoch_changes", summary["epoch_changes"]]]
    for reason, count in summary["drop_reasons"].items():
        rows.append([f"drop.{reason}", count])
    for name, count in summary["recoveries"].items():
        rows.append([f"recovery.{name}", count])
    print(format_table(["stat", "value"], rows, title=args.path))
    if summary["kinds"]:
        print(format_table(
            ["event kind", "count"],
            [[kind, count] for kind, count in summary["kinds"].items()],
            title="\nevents by kind"))
    if summary["stamps"]:
        print(format_table(
            ["sequence space", "stamped", "max_seq", "gaps"],
            [[space, s["stamped"], s["max_seq"], s["gaps"]]
             for space, s in summary["stamps"].items()],
            title="\nmulti-stamp statistics"))
    if args.check:
        from repro.errors import InvariantViolation
        try:
            run_trace_checks(events)
        except InvariantViolation as exc:
            print(f"\ntrace-backed invariant checks: FAILED\n  {exc}",
                  file=sys.stderr)
            return 1
        print("\ntrace-backed invariant checks: OK")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "udpsmoke":
        return udpsmoke_main(argv[1:])
    if argv and argv[0] == "node":
        from repro.runtime.worker import worker_main
        return worker_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_systems:
        print("\n".join(SYSTEMS))
        return 0
    if args.trace:
        # Fail on an unwritable path now, not after the simulation.
        try:
            open(args.trace, "w").close()
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 2
    cluster, result = run(args)
    headers = ["system", "workload", "shards", "clients", "txn/s",
               "mean_us", "p99_us", "committed", "aborted", "retries"]
    row = [args.system, args.workload, args.shards, args.clients,
           round(result.throughput), round(result.mean_latency * 1e6, 1),
           round(result.p99_latency * 1e6, 1), result.committed,
           result.aborted, result.retries]
    print(format_table(headers, [row]))
    if args.csv:
        write_csv(args.csv, headers, [row], append=True)
        print(f"appended to {args.csv}")
    if args.trace:
        print(f"trace: {len(cluster.tracer)} events -> {args.trace}")
    if args.metrics:
        print()
        print(format_metrics(cluster.metrics_snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
