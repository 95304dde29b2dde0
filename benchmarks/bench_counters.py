#!/usr/bin/env python
"""Coordination-free counters benchmark — the read fast path's speedup pin.

Sweeps the coordination-free fraction ``alpha`` of the counters
workload (see :mod:`repro.workloads.counters`): a fraction
``0.7 * alpha`` of operations are clean single-key reads and
``0.3 * alpha`` are commuting increments/tag unions; the remainder are
read-modify-write resets. Every write takes the ordered path. Each
point is measured twice on the simulator, on the same op stream — once
with every op declared GENERIC (every operation fully ordered and
replicated, so the sequencer never sees a read to start the fast path)
and once as generated — and the speedup is their throughput ratio.

Simulated throughput is deterministic and machine-independent, so the
committed ``BENCH_counters.json`` pins exact values; ``--check``
re-measures and fails (exit 1) on any drift, and additionally gates
the headline claim: at the gate point (``alpha = 0.9``) the fast path
must beat the baseline by at least :data:`SPEEDUP_REQUIREMENT`.

Usage::

    PYTHONPATH=src python benchmarks/bench_counters.py          # re-pin
    PYTHONPATH=src python benchmarks/bench_counters.py --check  # gate
    PYTHONPATH=src python benchmarks/bench_counters.py --quick  # gate point only
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if True:  # keep import block after sys.path fix-up
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.replica import ErisConfig                      # noqa: E402
from repro.harness.cluster import ClusterConfig, build_cluster  # noqa: E402
from repro.harness.experiment import (                         # noqa: E402
    ExperimentConfig,
    run_experiment,
)
from repro.sim.randomness import SplitRandom                   # noqa: E402
from repro.store.procedures import OpClass                     # noqa: E402
from repro.workloads import build_workload                     # noqa: E402

COUNTERS_PATH = os.path.join(REPO_ROOT, "BENCH_counters.json")

#: The headline gate: the read fast path must beat the ordered baseline by this
#: factor at the gate point. Checked on both the pinned file and the
#: live re-measure — the values are deterministic, so there is no
#: machine-noise tolerance.
SPEEDUP_REQUIREMENT = 1.5

#: Coordination-free fractions swept; the last entry is the gate point.
ALPHAS = (0.0, 0.3, 0.6, 0.9)

#: Split of the coordination-free fraction between clean reads and
#: commuting writes (the remaining 1 - alpha is resets).
READ_SHARE = 0.7
COMMUTATIVE_SHARE = 0.3

#: Workload/cluster shape. Keys are spread wide enough that the
#: sequencer's dirty-set rarely poisons an unrelated read, and the
#: watermark cadence is tightened so dirty entries clear at protocol
#: speed rather than sync-interval speed.
N_SHARDS = 3
N_KEYS = 20_000
N_CLIENTS = 220
SEED = 42
WARMUP = 4e-3
DURATION = 8e-3
DRAIN = 4e-3
WATERMARK_INTERVAL = 0.25e-3


class FullyOrdered:
    """The wrapped workload's op stream with every op declared GENERIC:
    the same mix, with no read eligible for the fast path."""

    def __init__(self, workload):
        self.workload = workload

    def next_op(self):
        return dataclasses.replace(self.workload.next_op(),
                                   op_class=OpClass.GENERIC)


def run_point(alpha: float, ordered: bool) -> dict:
    """One deterministic measurement: counters workload at ``alpha``,
    fully ordered or with reads declared READ_ONLY."""
    config = ClusterConfig(
        system="eris", n_shards=N_SHARDS, seed=SEED,
        eris=ErisConfig(watermark_interval=WATERMARK_INTERVAL))
    workload = build_workload(
        "counters", N_SHARDS, SplitRandom(SEED + 1), n_keys=N_KEYS,
        read_fraction=round(READ_SHARE * alpha, 6),
        commutative_fraction=round(COMMUTATIVE_SHARE * alpha, 6))
    cluster = build_cluster(config, workload.registry, workload.partitioner,
                            loader=workload.loader)
    ops = FullyOrdered(workload.ops) if ordered else workload.ops
    result = run_experiment(cluster, ops, ExperimentConfig(
        n_clients=N_CLIENTS, warmup=WARMUP, duration=DURATION,
        drain=DRAIN))
    point = {
        "throughput_txn_s": result.throughput,
        "committed": result.committed,
        "aborted": result.aborted,
    }
    if not ordered:
        sequencer = cluster.sequencers[0]
        point["fast_reads"] = sequencer.fast_reads
        point["fast_read_misses"] = sequencer.fast_read_misses
    return point


def measure(quick: bool) -> dict:
    alphas = ALPHAS[-1:] if quick else ALPHAS
    sweep = []
    t0 = time.perf_counter()
    for alpha in alphas:
        baseline = run_point(alpha, ordered=True)
        fast = run_point(alpha, ordered=False)
        sweep.append({
            "alpha": alpha,
            "baseline": baseline,
            "fast_path": fast,
            "speedup": round(fast["throughput_txn_s"]
                             / baseline["throughput_txn_s"], 3),
        })
    gate = sweep[-1]
    return {
        "schema": 1,
        "note": "simulated time; deterministic and machine-independent",
        "config": {
            "n_shards": N_SHARDS, "n_keys": N_KEYS,
            "n_clients": N_CLIENTS, "seed": SEED,
            "read_share": READ_SHARE,
            "commutative_share": COMMUTATIVE_SHARE,
            "watermark_interval": WATERMARK_INTERVAL,
            "warmup": WARMUP, "duration": DURATION, "drain": DRAIN,
        },
        "sweep": sweep,
        "gate": {
            "alpha": gate["alpha"],
            "speedup": gate["speedup"],
            "requirement": SPEEDUP_REQUIREMENT,
        },
        "wall_seconds": round(time.perf_counter() - t0, 3),
    }


def print_results(results: dict) -> None:
    print(f"  {'alpha':>6s} {'baseline':>12s} {'fast path':>12s} "
          f"{'speedup':>8s} {'fast reads':>11s} {'misses':>7s}")
    for row in results["sweep"]:
        fast = row["fast_path"]
        print(f"  {row['alpha']:>6.1f} "
              f"{row['baseline']['throughput_txn_s']:>12,.0f} "
              f"{fast['throughput_txn_s']:>12,.0f} "
              f"{row['speedup']:>7.2f}x "
              f"{fast.get('fast_reads', 0):>11,} "
              f"{fast.get('fast_read_misses', 0):>7,}")


def check(results: dict) -> list[str]:
    """Compare a fresh measurement against the committed baseline."""
    failures: list[str] = []
    try:
        with open(COUNTERS_PATH) as f:
            pinned = json.load(f)
    except FileNotFoundError as exc:
        return [f"missing committed baseline: {exc}"]

    pinned_rows = {row["alpha"]: row for row in pinned["sweep"]}
    for row in results["sweep"]:
        base_row = pinned_rows.get(row["alpha"])
        if base_row is None:
            failures.append(f"alpha={row['alpha']} not in committed pin")
            continue
        for side in ("baseline", "fast_path"):
            cur = row[side]["throughput_txn_s"]
            ref = base_row[side]["throughput_txn_s"]
            ok = cur >= ref * 0.999  # deterministic; tolerance float-only
            print(f"  alpha={row['alpha']:<4} {side:10s} {cur:>12,.0f} "
                  f"vs pinned {ref:>12,.0f}  "
                  f"[{'ok' if ok else 'REGRESSION'}]")
            if not ok:
                failures.append(
                    f"alpha={row['alpha']} {side} throughput "
                    f"{cur:,.0f} fell below pinned {ref:,.0f} "
                    "(simulated time — behaviour change, not noise)")
            if row[side]["committed"] != base_row[side]["committed"]:
                failures.append(
                    f"alpha={row['alpha']} {side} committed count "
                    f"changed: {row[side]['committed']} != "
                    f"{base_row[side]['committed']} (determinism drift)")

    gate = results["gate"]
    pinned_gate = pinned["gate"]
    ok = (gate["speedup"] >= SPEEDUP_REQUIREMENT
          and pinned_gate["speedup"] >= SPEEDUP_REQUIREMENT)
    print(f"  gate alpha={gate['alpha']}: speedup {gate['speedup']:.2f}x "
          f"(pinned {pinned_gate['speedup']:.2f}x, requires "
          f">={SPEEDUP_REQUIREMENT}x)  [{'ok' if ok else 'FAILED'}]")
    if pinned_gate["speedup"] < SPEEDUP_REQUIREMENT:
        failures.append(
            f"pinned gate speedup {pinned_gate['speedup']}x < "
            f"{SPEEDUP_REQUIREMENT}x — fix the fast path, not the pin")
    if gate["speedup"] < SPEEDUP_REQUIREMENT:
        failures.append(
            f"measured gate speedup {gate['speedup']}x < "
            f"{SPEEDUP_REQUIREMENT}x at alpha={gate['alpha']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Coordination-free counters speedup benchmark")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed "
                             "BENCH_counters.json instead of "
                             "overwriting it")
    parser.add_argument("--quick", action="store_true",
                        help="measure only the gate point")
    args = parser.parse_args(argv)

    print("running counters sweep"
          + (" (gate point only)" if args.quick else "") + " ...")
    results = measure(args.quick)
    print_results(results)

    if args.check:
        print("checking against committed baseline ...")
        failures = check(results)
        if failures:
            print("PERF CHECK FAILED:")
            for failure in failures:
                print("  -", failure)
            return 1
        print("perf check ok")
        return 0

    if args.quick:
        print("refusing to pin from a --quick run (partial sweep)")
        return 1
    with open(COUNTERS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {COUNTERS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
