#!/usr/bin/env python
"""Simulator hot-path microbenchmarks — the repo's pinned perf trajectory.

Measures the layers every protocol and baseline sits on:

* ``event_loop_dispatch`` — schedule+dispatch rate of the discrete-event
  kernel (events/s). One event ≈ one packet hop or timer arm, so this
  bounds everything above it.
* ``timer_restart``       — re-arm rate of restartable timers
  (``Timer.start`` on an armed timer), the retransmission-timer churn
  path that used to pollute the heap with cancelled entries.
* ``network_fanout``      — sequencer-style ``Network.fan_out`` rate
  (per-recipient packet copies/s) through the fabric fast path.
* ``fig6_e2e``            — the Figure 6 Eris saturation point
  (220 closed-loop clients, YCSB+T SRW): end-to-end committed txn/s of
  *simulated* time (deterministic, machine-independent) plus the
  wall-clock events/s the simulator sustained while producing it.

Results are written to ``BENCH_micro.json`` and ``BENCH_fig6.json`` at
the repo root. Committing those files pins the baseline: ``--check``
re-measures and fails (exit 1) on a >20% wall-clock regression against
the committed values, or on *any* change to the simulated fig6
throughput — the latter is deterministic, so a change means behaviour
changed, not the machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_micro.py          # re-pin
    PYTHONPATH=src python benchmarks/bench_micro.py --check  # gate
    PYTHONPATH=src python benchmarks/bench_micro.py --quick  # CI-sized

Wall-clock rates are only comparable on similar hardware; the CI bench
job is therefore non-gating (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if True:  # keep import block after sys.path fix-up
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.net.message import GroupcastHeader, Packet          # noqa: E402
from repro.net.network import NetConfig, Network               # noqa: E402
from repro.net.endpoint import Node                            # noqa: E402
from repro.sim.event_loop import EventLoop                     # noqa: E402
from repro.sim.process import Timer                            # noqa: E402

MICRO_PATH = os.path.join(REPO_ROOT, "BENCH_micro.json")
FIG6_PATH = os.path.join(REPO_ROOT, "BENCH_fig6.json")

#: Wall-clock tolerance for --check (machine noise); simulated-time
#: metrics are deterministic and checked exactly.
REGRESSION_TOLERANCE = 0.20


# -- microbenchmarks -------------------------------------------------------

def bench_event_loop_dispatch(n_events: int) -> float:
    """Schedule+dispatch rate (events/s) of the bare kernel."""
    loop = EventLoop()
    fn = lambda: None  # noqa: E731 - minimal callback, measures the loop
    chunk = 10_000
    done = 0
    t0 = time.perf_counter()
    while done < n_events:
        for i in range(chunk):
            loop.schedule(1e-6 * i, fn)
        loop.run_until_idle()
        done += chunk
    return n_events / (time.perf_counter() - t0)


def bench_timer_restart(n_timers: int, rounds: int) -> tuple[float, int]:
    """Re-arm rate of armed timers; returns (restarts/s, final heap size).

    The heap size is the anti-pollution check: before the ``reschedule``
    primitive every restart leaked one cancelled entry until it drained.
    """
    loop = EventLoop()
    timers = [Timer(loop, 1.0, lambda: None) for _ in range(n_timers)]
    t0 = time.perf_counter()
    for _ in range(rounds):
        for timer in timers:
            timer.start()
    rate = (n_timers * rounds) / (time.perf_counter() - t0)
    return rate, len(loop._heap)


class _Sink(Node):
    def handle(self, src, message, packet):  # absorb anything
        pass


def bench_network_fanout(n_rounds: int, n_receivers: int = 3) -> float:
    """Per-recipient copy+transmit rate through Network.fan_out."""
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    receivers = tuple(_Sink(f"r{i}", net).address for i in range(n_receivers))
    packet = Packet(src="s", dst=None, payload={"op": "w", "k": 1},
                    groupcast=GroupcastHeader((0,)))
    # Periodic drains keep the heap from growing into a different
    # (colder) size regime than real runs.
    drain_every = 20_000 // n_receivers
    t0 = time.perf_counter()
    for i in range(n_rounds):
        net.fan_out(packet, receivers)
        if i % drain_every == drain_every - 1:
            loop.run_until_idle()
    loop.run_until_idle()
    return (n_rounds * n_receivers) / (time.perf_counter() - t0)


def _codec_corpus() -> list:
    """Representative protocol packets: a sequenced txn request, a
    single TxnReply, a coalesced reply batch, and a SyncLog segment —
    the frames that dominate the wire in normal-case operation."""
    from repro.core.log import LogEntry, SlotId, TxnRecord
    from repro.core.messages import (
        IndependentTxnRequest,
        SyncLog,
        TxnReply,
        TxnReplyBatch,
    )
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp

    txn = IndependentTransaction(
        txn_id=TxnId(client="client-7", seq=42),
        proc="rmw", args={"keys": ("k101", "k202"), "delta": 1},
        participants=(0, 1), read_keys=frozenset({"k101"}),
        write_keys=frozenset({"k202"}))
    stamp = MultiStamp(epoch=1, stamps=((0, 117), (1, 93)))
    req = Packet(src="client-7", dst="eris-r0.0",
                 payload=IndependentTxnRequest(txn),
                 groupcast=GroupcastHeader((0, 1)), multistamp=stamp,
                 sequenced=True, trace_id=12345)
    reply = TxnReply(txn_id=txn.txn_id, txn_index=117, view_num=0,
                     epoch_num=1, shard=0, replica_index=2, is_dl=True,
                     committed=True, result={"k101": 7})
    rep = Packet(src="eris-r0.2", dst="client-7", payload=reply)
    batch = TxnReplyBatch(replies=tuple(
        TxnReply(txn_id=TxnId(client="client-7", seq=40 + i),
                 txn_index=110 + i, view_num=0, epoch_num=1, shard=0,
                 replica_index=2, is_dl=True, committed=True,
                 result={"k101": i})
        for i in range(8)))
    repbatch = Packet(src="eris-r0.2", dst="client-7", payload=batch)
    entries = tuple(
        LogEntry(index=i, slot=SlotId(shard=0, epoch=1, seq=100 + i),
                 kind="txn",
                 record=TxnRecord(txn=txn, multistamp=stamp))
        for i in range(16))
    synclog = Packet(src="eris-r0.0", dst="eris-r0.1",
                     payload=SyncLog(shard=0, view_num=0, epoch_num=1,
                                     from_index=100, entries=entries,
                                     commit_upto=99))
    return [("req", req), ("rep", rep), ("repbatch", repbatch),
            ("synclog", synclog)]


def bench_codec_roundtrip(n_reps: int) -> float:
    """EWC2 encode+decode rate (packets/s) on the corpus: best-of-
    ``n_reps`` slices per packet, time-weighted across the corpus (sum
    of per-packet best times), i.e. the rate of round-tripping the
    whole mix."""
    from repro.runtime.codec import decode_packet, encode_packet
    corpus = _codec_corpus()
    inner = 200
    best: dict[str, float] = {}
    for _ in range(n_reps):
        for name, packet in corpus:
            t0 = time.perf_counter()
            for _ in range(inner):
                decode_packet(encode_packet(packet))
            dt = time.perf_counter() - t0
            best[name] = min(dt, best.get(name, dt))
    return inner * len(corpus) / sum(best.values())


def bench_datagram_batch(n_rounds: int, frames_per: int = 16) -> float:
    """EWCB container pack+unpack rate (frames/s): encode a burst of
    reply frames once, then round-trip the container."""
    from repro.runtime.codec import (
        decode_datagram,
        encode_datagram,
        encode_packet,
    )
    rep = next(p for name, p in _codec_corpus() if name == "rep")
    frames = [encode_packet(rep) for _ in range(frames_per)]
    t0 = time.perf_counter()
    for _ in range(n_rounds):
        decode_datagram(encode_datagram(frames))
    return (n_rounds * frames_per) / (time.perf_counter() - t0)


def bench_fig6_e2e() -> dict:
    """The Fig 6 Eris saturation point; simulated txn/s is deterministic."""
    from bench_common import YCSBBench, run_ycsb
    t0 = time.perf_counter()
    cluster, result = run_ycsb(YCSBBench(system="eris", workload="srw",
                                         n_clients=220))
    wall = time.perf_counter() - t0
    return {
        "throughput_txn_s": result.throughput,
        "committed": result.committed,
        "aborted": result.aborted,
        "n_clients": result.n_clients,
        "events_processed": cluster.loop.events_processed,
        "wall_seconds": round(wall, 3),
        "sim_events_per_wall_second": round(
            cluster.loop.events_processed / wall),
    }


# -- harness ---------------------------------------------------------------

def measure(quick: bool) -> tuple[dict, dict]:
    scale = 0.2 if quick else 1.0
    dispatch = bench_event_loop_dispatch(int(300_000 * scale))
    restarts, heap_after = bench_timer_restart(1000, int(200 * scale))
    fanout = bench_network_fanout(int(100_000 * scale))
    codec = bench_codec_roundtrip(3 if quick else 8)
    datagram = bench_datagram_batch(int(20_000 * scale))
    fig6 = bench_fig6_e2e()
    micro = {
        "schema": 1,
        "note": "wall-clock rates; comparable only on similar hardware",
        "benchmarks": {
            "event_loop_dispatch": {"value": round(dispatch),
                                    "unit": "events/s"},
            "timer_restart": {"value": round(restarts), "unit": "restarts/s",
                              "heap_entries_after": heap_after},
            "network_fanout": {"value": round(fanout), "unit": "packets/s"},
            "codec_ewc2_roundtrip": {"value": round(codec),
                                     "unit": "packets/s"},
            "datagram_batch16": {"value": round(datagram),
                                 "unit": "frames/s"},
        },
        # Pre-optimisation rates measured with this same harness on the
        # same machine that pinned this file (perf-trajectory record;
        # the pre-optimisation timer_restart run also left 200,000
        # cancelled entries in the heap where the current one leaves
        # one live entry per timer).
        "reference_pre_optimization": {
            "event_loop_dispatch": 553807,
            "timer_restart": 725784,
            "network_fanout": 200926,
        },
    }
    return micro, fig6


def check(micro: dict, fig6: dict) -> list[str]:
    """Compare a fresh measurement against the committed baselines."""
    failures: list[str] = []
    try:
        with open(MICRO_PATH) as f:
            base_micro = json.load(f)
        with open(FIG6_PATH) as f:
            base_fig6 = json.load(f)
    except FileNotFoundError as exc:
        return [f"missing committed baseline: {exc}"]

    for name, entry in base_micro["benchmarks"].items():
        baseline = entry["value"]
        current = micro["benchmarks"][name]["value"]
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if current >= floor else "REGRESSION"
        print(f"  {name:22s} {current:>12,} vs baseline {baseline:>12,}  "
              f"[{status}]")
        if current < floor:
            failures.append(
                f"{name}: {current:,} < {floor:,.0f} "
                f"(>{REGRESSION_TOLERANCE:.0%} below baseline {baseline:,})")

    base_tp = base_fig6["throughput_txn_s"]
    cur_tp = fig6["throughput_txn_s"]
    print(f"  {'fig6_throughput':22s} {cur_tp:>12,.0f} vs baseline "
          f"{base_tp:>12,.0f}  "
          f"[{'ok' if cur_tp >= base_tp * 0.999 else 'REGRESSION'}]")
    if cur_tp < base_tp * 0.999:  # deterministic; tolerance is float-only
        failures.append(
            f"fig6 throughput {cur_tp:,.0f} fell below baseline "
            f"{base_tp:,.0f} (simulated time — this is a behaviour "
            "change, not machine noise)")
    if fig6["committed"] != base_fig6["committed"]:
        failures.append(
            f"fig6 committed count changed: {fig6['committed']} != "
            f"{base_fig6['committed']} (determinism drift)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator hot-path microbenchmarks")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed BENCH_*.json "
                             "instead of overwriting them")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized iteration counts")
    parser.add_argument("--no-udp", action="store_true",
                        help="skip the real-socket UDP benchmarks "
                             "(bench_udp.py / BENCH_udp.json)")
    args = parser.parse_args(argv)

    print("running microbenchmarks"
          + (" (quick)" if args.quick else "") + " ...")
    micro, fig6 = measure(args.quick)
    for name, entry in micro["benchmarks"].items():
        print(f"  {name:22s} {entry['value']:>12,} {entry['unit']}")
    print(f"  {'fig6_throughput':22s} {fig6['throughput_txn_s']:>12,.0f} "
          f"txn/s (simulated; {fig6['committed']} committed, "
          f"{fig6['wall_seconds']}s wall)")
    udp = None
    if not args.no_udp:
        import bench_udp
        print("running UDP benchmarks"
              + (" (quick)" if args.quick else "") + " ...")
        udp = bench_udp.measure_udp(args.quick)
        bench_udp.print_udp(udp)

    if args.check:
        print("checking against committed baselines ...")
        failures = check(micro, fig6)
        if udp is not None:
            failures += bench_udp.check_udp(udp)
        if failures:
            print("PERF CHECK FAILED:")
            for failure in failures:
                print("  -", failure)
            return 1
        print("perf check ok")
        return 0

    with open(MICRO_PATH, "w") as f:
        json.dump(micro, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(FIG6_PATH, "w") as f:
        json.dump(fig6, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {MICRO_PATH} and {FIG6_PATH}")
    if udp is not None:
        with open(bench_udp.UDP_PATH, "w") as f:
            json.dump(udp, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {bench_udp.UDP_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
