#!/usr/bin/env python
"""Real-socket benchmarks: the UDP fast path and the smoke throughput.

Pins the wall-clock performance facts the UDP runtime's design rests
on:

* ``egress_flush_batch16`` — frames/s through one ``sendto`` per EWCB
  datagram of 16 packed frames vs one ``sendto`` per frame. The ratio
  is the syscall amortization the per-destination egress queues buy.
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
import socket
import sys
import time

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


def _socket_pair() -> tuple[socket.socket, socket.socket, tuple]:
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.bind(("127.0.0.1", 0))
    rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    return rx, tx, rx.getsockname()


def bench_egress_flush(n_frames: int,
                       frames_per: int = 16) -> tuple[float, float]:
    """(batched rate, per-frame rate) in frames/s.

    Batched: one ``sendto`` ships an EWCB datagram of ``frames_per``
    packed frames (the egress-queue flush path). Per-frame: one
    ``sendto`` per frame. The receiver drains inline either way so the
    kernel queue stays bounded.
    """
    from repro.net.message import Packet
    from repro.runtime.codec import encode_datagram, encode_packet

    frame = encode_packet(
        Packet(src="a", dst="b", payload=("reply", 7, True)))
    frames = [frame] * frames_per
    packed = encode_datagram(frames)
    rounds = n_frames // frames_per
    rates = []
    for variant in ("batched", "per-frame"):
        rx, tx, addr = _socket_pair()
        try:
            t0 = time.perf_counter()
            for _ in range(rounds):
                if variant == "batched":
                    tx.sendto(packed, addr)
                    rx.recv(65536)
                else:
                    for data in frames:
                        tx.sendto(data, addr)
                    for _ in range(frames_per):
                        rx.recv(65536)
            rates.append((rounds * frames_per)
                         / (time.perf_counter() - t0))
        finally:
            rx.close()
            tx.close()
    return rates[0], rates[1]


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
    batched, perframe = bench_egress_flush(int(160_000 * scale))
    single = bench_udpsmoke("single", int(300 * scale))
    mp = bench_udpsmoke("per-node", int(200 * scale))
    return {
        "schema": 1,
        "note": "wall-clock rates over real loopback sockets; "
                "comparable only on similar hardware",
        "benchmarks": {
            "egress_flush_batch16": {
                "value": round(batched), "unit": "frames/s",
                "per_frame_baseline": round(perframe),
                "speedup_vs_per_frame": round(batched / perframe, 2),
            },
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
    # The egress batching must actually amortize syscalls: the packed
    # path may never fall behind per-frame sends.
    ratio = current["benchmarks"]["egress_flush_batch16"][
        "speedup_vs_per_frame"]
    print(f"  {'egress_batch_speedup':22s} {ratio:>11,.2f}x "
          f"[{'ok' if ratio >= 1.0 else 'REGRESSION'}]")
    if ratio < 1.0:
        failures.append(
            f"egress batching slower than per-frame sends "
            f"({ratio}x) — the flush path lost its amortization")
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
