#!/usr/bin/env python
"""Real-socket benchmarks: the smoke throughput over loopback UDP.

Pins the wall-clock performance facts the UDP runtime's design rests
on:

* ``udpsmoke_single``      — committed txn/s of the single-process
  loopback smoke run (whole stack in one event loop).
* ``udpsmoke_mp``          — committed txn/s of the same workload as a
  process-per-node cluster (launcher, port-map bootstrap, 11 OS
  processes, state-collection RPC).

Results are written to ``BENCH_udp.json`` at the repo root;
``bench_micro.py --check`` re-measures and gates on them with a wide
tolerance (real sockets + scheduler noise; these are sanity floors,
not tight perf pins). Standalone usage::

    PYTHONPATH=src python benchmarks/bench_udp.py          # re-pin
    PYTHONPATH=src python benchmarks/bench_udp.py --check  # gate
    PYTHONPATH=src python benchmarks/bench_udp.py --quick  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if True:  # keep import block after sys.path fix-up
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

UDP_PATH = os.path.join(REPO_ROOT, "BENCH_udp.json")

#: Wall-clock tolerance for --check. Deliberately wider than the
#: simulator microbench tolerance: these numbers cross the kernel UDP
#: stack and the OS scheduler, so run-to-run noise is large. The gate
#: catches order-of-magnitude regressions (a lost fast path), not
#: percent-level drift.
UDP_TOLERANCE = 0.60


def bench_udpsmoke(processes: str, min_commits: int) -> dict:
    """Committed txn/s of the smoke workload, single or per-node."""
    if processes == "per-node":
        import tempfile
        from repro.harness.mp_smoke import run_udp_smoke_mp
        result = run_udp_smoke_mp(
            min_commits=min_commits, timeout=120.0,
            run_dir=tempfile.mkdtemp(prefix="bench-udp-mp-"))
    else:
        from repro.harness.udp_smoke import run_udp_smoke
        result = run_udp_smoke(min_commits=min_commits, timeout=120.0,
                               recorder_path=os.devnull)
    return {
        "txn_s": round(result.committed / result.wall_seconds),
        "committed": result.committed,
        "wall_seconds": round(result.wall_seconds, 3),
        "processes": result.processes,
    }


def measure_udp(quick: bool) -> dict:
    scale = 0.2 if quick else 1.0
    single = bench_udpsmoke("single", int(300 * scale))
    mp = bench_udpsmoke("per-node", int(200 * scale))
    return {
        "schema": 1,
        "note": "wall-clock rates over real loopback sockets; "
                "comparable only on similar hardware",
        "benchmarks": {
            "udpsmoke_single": {
                "value": single["txn_s"], "unit": "txn/s",
                **{k: v for k, v in single.items() if k != "txn_s"},
            },
            "udpsmoke_mp": {
                "value": mp["txn_s"], "unit": "txn/s",
                **{k: v for k, v in mp.items() if k != "txn_s"},
            },
        },
    }


def check_udp(current: dict) -> list[str]:
    """Compare a fresh measurement against the committed baseline."""
    failures: list[str] = []
    try:
        with open(UDP_PATH) as f:
            base = json.load(f)
    except FileNotFoundError as exc:
        return [f"missing committed baseline: {exc}"]
    for name, entry in base["benchmarks"].items():
        baseline = entry["value"]
        cur = current["benchmarks"][name]["value"]
        floor = baseline * (1.0 - UDP_TOLERANCE)
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"  {name:22s} {cur:>12,} vs baseline {baseline:>12,}  "
              f"[{status}]")
        if cur < floor:
            failures.append(
                f"{name}: {cur:,} < {floor:,.0f} "
                f"(>{UDP_TOLERANCE:.0%} below baseline {baseline:,})")
    return failures


def print_udp(current: dict) -> None:
    for name, entry in current["benchmarks"].items():
        print(f"  {name:22s} {entry['value']:>12,} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Real-socket UDP benchmarks")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed BENCH_udp.json "
                             "instead of overwriting it")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized iteration counts")
    args = parser.parse_args(argv)

    print("running UDP benchmarks"
          + (" (quick)" if args.quick else "") + " ...")
    current = measure_udp(args.quick)
    print_udp(current)
    if args.check:
        print("checking against committed baseline ...")
        failures = check_udp(current)
        if failures:
            print("PERF CHECK FAILED:")
            for failure in failures:
                print("  -", failure)
            return 1
        print("perf check ok")
        return 0
    with open(UDP_PATH, "w") as f:
        json.dump(current, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {UDP_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
