"""The repository's benchmark: one command, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for S seconds and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``). Without ``--workload`` every workload
runs, windows interleaved round-robin so host drift lands on all of
them alike, followed by the traced windows; ``--out FILE`` keeps the
whole result set for ``bench/compare.py``.

The S seconds are split into three windows, each in a fresh process
(``bench/window.py``): rates report the median window, latencies the
pooled samples of all three, ``setup_s`` the median of three set-ups.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from driver import percentile  # noqa: E402

WINDOWS = 3
#: The overload probe: a ``udp_srw_closed``-shaped window with this many
#: closed-loop clients instead of 2.
OVERLOAD_WORKLOAD = "udp_srw_closed"
OVERLOAD_CLIENTS = 64


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one window in a child process ----------------------------------------

def spawn_window(spec: dict) -> dict:
    """Run one window; a crash or a timeout comes back as a failed
    window with the reason, never as an exception or a hang."""
    timeout = 40.0 + 5.0 * spec["seconds"]
    command = [sys.executable, os.path.join(HERE, "window.py"),
               json.dumps(spec)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return _broken(spec, f"window timed out after {timeout:.0f} s")
    stderr = done.stderr.splitlines()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(stderr[-15:]), file=sys.stderr)
        return _broken(spec, f"window exited with code {done.returncode}")
    # A window that ran keeps quiet, apart from the ledger's warnings:
    # an overloaded stack logs one traceback per lost reply.
    for line in stderr:
        if line.startswith("ledger:"):
            print(line, file=sys.stderr)
    return json.loads(lines[-1])


def _broken(spec: dict, reason: str) -> dict:
    return {"workload": spec["workload"], "seed": spec["seed"],
            "broken": True, "correct": False, "reasons": [reason],
            "attempted": 1, "failed": 1}


def window_spec(workload: str, seed: int, index: int, seconds: float,
                **extra) -> dict:
    # Each window draws its own op stream and schedule.
    return {"workload": workload, "seed": seed * 100 + index,
            "seconds": seconds, **extra}


# -- aggregation -----------------------------------------------------------

def end_to_end(windows: list[dict]) -> dict[str, dict]:
    """name -> {"value", "windows"}: medians over windows for rates and
    costs, pooled samples for the latency percentiles."""
    good = [w for w in windows if not w.get("broken")]
    if not good:
        return {}
    pooled = sorted(lat for w in good for lat in w["latencies_ms"])

    def per_window(fn) -> list[float]:
        return [fn(w) for w in good]

    def pct(values: list[float], p: float) -> float:
        return percentile(values, p) if values else math.inf

    result = {}
    for name, field in (("commit_tput", "tput"),
                        ("cpu_us_per_txn", "cpu_us_per_txn"),
                        ("setup_s", "setup_s"),
                        ("peak_rss_mb", "peak_rss_mb")):
        values = per_window(lambda w: w[field])
        result[name] = {"value": statistics.median(values),
                        "windows": values}
    for name, p in (("commit_p50_ms", 50.0), ("commit_p95_ms", 95.0)):
        result[name] = {
            "value": pct(pooled, p),
            "windows": per_window(lambda w: pct(w["latencies_ms"], p)),
            "samples": len(pooled)}
    return result


def per_layer(twins: list[dict], traced: dict,
              overload: dict | None) -> dict:
    """Every per-layer metric from one traced window, its untraced twins
    and (on the overload workload) the probe. A layer that does not run
    on this workload, or whose wrapped name is gone, reads 0."""
    txns = max(1, traced["committed"])
    ledger = traced["ledger"]
    self_ns, calls, counts = ledger["self_ns"], ledger["calls"], \
        traced["counts"]

    # Ledger spans are raw nanoseconds; scaling them by the window's
    # host speed keeps "the rows add up to cpu_us_per_txn" true.
    speed = traced["host_speed"]

    def us(*layers: str) -> float:
        return sum(self_ns.get(layer, 0) for layer in layers) / 1e3 / txns \
            * speed

    def n(*keys: str) -> float:
        return sum(calls.get(key, 0) for key in keys) / txns

    def count(key: str) -> float:
        return float(counts.get(key, 0.0))

    cpu_us = traced["raw"]["window_cpu_s"] * 1e6
    attributed_us = sum(self_ns.values()) / 1e3
    lat = traced["latencies_ms"]
    open_loop = traced["open_loop"]
    lag = traced["sched_lag_ms"]
    next_ops = calls.get("workloads:next_op", 0)
    sim = traced["backend"] == "sim"
    wall = traced["raw"]["window_wall_s"]
    metrics = {
        "codec.encode_us_per_txn": us("codec.encode"),
        "codec.decode_us_per_txn": us("codec.decode"),
        "codec.encode_calls_per_txn": n("codec.encode:encode_packet"),
        "codec.decode_calls_per_txn": n("codec.decode:decode_datagram",
                                        "codec.decode:decode_packet"),
        "codec.bytes_per_txn": count("udp.datagram_bytes.sum") / txns,
        "codec.decode_errors": count("udp.decode_errors"),
        "udp.send_us_per_txn": us("udp"),
        "udp.datagrams_per_txn": count("udp.datagrams_sent") / txns,
        "udp.frames_per_txn": count("udp.frames_sent") / txns,
        "udp.send_errors": count("udp.send_errors")
        + count("udp.socket_errors"),
        "udp.packets_dropped": count("udp.packets_dropped"),
        "udp.loop_lag_p99_ms": traced["loop_lag_p99_ms"],
        "sequencer.us_per_txn": us("sequencer"),
        "sequencer.stamps_per_txn": count("sequencer.packets_stamped") / txns,
        "sequencer.wakeups_per_txn": count("sequencer.stamp_wakeups") / txns,
        "libsequencer.us_per_txn": us("libsequencer"),
        "libsequencer.calls_per_txn": n("libsequencer:on_packet"),
        "libsequencer.drop_notifications":
            float(ledger["observed"].get("libsequencer:on_packet", 0)),
        "replica.us_per_txn": us("replica"),
        "replica.msgs_per_txn": n("replica:handle"),
        "replica.peer_recoveries": count("replica.peer_recoveries"),
        "replica.fc_escalations": count("replica.fc_escalations"),
        "engine.us_per_txn": us("engine"),
        "engine.feeds_per_txn": n("engine:feed"),
        "client.us_per_txn": us("client"),
        "client.retries_per_txn": traced["retries"] / txns,
        "client.timeouts": float(traced["timeouts"]),
        "fc.drops_decided": count("fc.drops_decided"),
        "fc.epoch_changes": count("fc.epoch_changes_completed"),
        "controller.failovers": float(traced["failovers"]),
        "sim.events_per_txn": traced["sim_events"] / txns,
        "sim.events_per_wall_s": traced["sim_events"] / wall,
        "sim.loop_us_per_txn": us("sim"),
        "network.us_per_txn": us("network"),
        "network.packets_per_txn": count("net.packets_delivered") / txns,
        "network.fanout_copies_per_txn": count("net.fanout_copies") / txns,
        "workloads.next_op_us":
            self_ns.get("workloads", 0) / 1e3 / max(1, next_ops) * speed,
        "checkers.check_s": traced["check_s"],
        "driver.us_per_txn": us("driver", "workloads"),
        "proc.unattributed_us_per_txn":
            (cpu_us - attributed_us) / txns * speed,
        "proc.ledger_coverage": attributed_us / cpu_us,
        "proc.gc_gen2_pauses": float(traced["gc"]["gen2_pauses"]),
        "proc.gc_pause_ms_max": traced["gc"]["pause_ms_max"],
        "proc.gc_ms_per_ktxn": traced["gc"]["pause_ms_total"] * 1e3 / txns,
        "driver.open_p90_ms": percentile(lat, 90.0) if open_loop and lat
        else 0.0,
        "driver.open_p99_ms": percentile(lat, 99.0) if open_loop and lat
        else 0.0,
        "driver.sched_lag_p99_ms": percentile(lag, 99.0) if lag else 0.0,
        "driver.delivered_ratio":
            traced["committed"] / max(1, traced["window_attempted"]),
        "driver.window_cv": traced["slice_cv"],
        # 1.0 = tracing is free; CPU per transaction, so it also reads
        # on the open loop and the simulator, where throughput is pinned.
        "driver.trace_overhead_ratio":
            statistics.fmean(w["cpu_us_per_txn"] for w in twins)
            / traced["cpu_us_per_txn"],
        "driver.host_speed": speed,
        "driver.overload_goodput_ratio":
            overload["tput"] / statistics.fmean(w["tput"] for w in twins)
            if overload and not overload.get("broken") else 0.0,
        # Named results that carry no bound: the unscaled readings, and
        # the numbers that are exact on a simulated clock.
        "commit_p99_ms": percentile(lat, 99.0) if lat else 0.0,
        "fail_ratio": traced["failed"] / max(1, traced["attempted"])
        if traced["correct"] else 1.0,
        "raw.commit_tput": traced["raw"]["tput"],
        "raw.commit_p50_ms": traced["raw"]["p50_ms"],
        "raw.cpu_us_per_txn": traced["raw"]["cpu_us_per_txn"],
        "sim_speed_txn_s": traced["committed"] / wall if sim else 0.0,
        "sim_tput_txn_s": traced["raw"]["tput"] if sim else 0.0,
        "sim_p50_us": percentile(lat, 50.0) * 1e3 if sim and lat else 0.0,
        "sim_p99_us": percentile(lat, 99.0) * 1e3 if sim and lat else 0.0,
        "outage_ms": traced.get("outage_ms", 0.0),
    }
    return {name: {"value": value} for name, value in metrics.items()}


def verdict(windows: list[dict]) -> dict:
    reasons = [f"{w['workload']} seed {w['seed']}: {reason}"
               for w in windows for reason in w.get("reasons", [])]
    return {"correct": all(w["correct"] for w in windows),
            "attempted": sum(w["attempted"] for w in windows),
            "failed": sum(w["failed"] for w in windows),
            "reasons": reasons}


# -- running ---------------------------------------------------------------

def run_plain(names: list[str], seed: int, seconds: float,
              n_windows: int) -> dict[str, list[dict]]:
    """``n_windows`` untraced windows per workload, round-robin."""
    share = seconds / n_windows
    windows: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(n_windows):
        for name in names:
            windows[name].append(
                spawn_window(window_spec(name, seed, index, share)))
    return windows


def run_traced(name: str, seed: int, seconds: float,
               n_windows: int) -> tuple[list[dict], dict]:
    """One traced window between two untraced twins of the same seed
    (host speed drifts within seconds, so the overhead ratio needs a
    twin on either side), plus the overload probe on its workload.
    Returns the windows that count toward the verdict (the probe is
    expected to collapse and does not) and the per-layer metrics."""
    share = seconds / n_windows
    twin = window_spec(name, seed, 0, share)
    counted = [spawn_window(twin),
               spawn_window({**twin, "traced": True}),
               spawn_window(twin)]
    overload = None
    if name == OVERLOAD_WORKLOAD:
        overload = spawn_window(window_spec(
            name, seed, 1, share, override={"clients": OVERLOAD_CLIENTS}))
    layers = {} if any(w.get("broken") for w in counted) \
        else per_layer([counted[0], counted[2]], counted[1], overload)
    return counted, layers


def contract_line(outcome: dict, values: dict, declared: list[dict]) -> str:
    metrics = {}
    for metric in declared:
        entry = values.get(metric["name"])
        if entry is None:
            raise SystemExit(f"metric {metric['name']} was not measured: "
                             + "; ".join(outcome["reasons"]))
        metrics[metric["name"]] = {"value": entry["value"],
                                   "unit": metric["unit"]}
    return json.dumps({"correct": outcome["correct"],
                       "attempted": max(1, outcome["attempted"]),
                       "failed": outcome["failed"], "metrics": metrics})


def print_table(title: str, values: dict, declared: list[dict]) -> None:
    print(title)
    for metric in declared:
        entry = values.get(metric["name"])
        shown = "not measured" if entry is None else f"{entry['value']:.6g}"
        print(f"  {metric['name']:<34}{shown:>14} {metric['unit']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="one 0.5 s window per workload")
    parser.add_argument("--out", help="write the full result set here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/; nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; pick one of {names}",
              file=sys.stderr)
        return 2
    n_windows = 1 if args.smoke else WINDOWS
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else float(contract["run_seconds"]))

    selected = [args.workload] if args.workload else names
    # With one workload, --trace picks the half the caller asked for;
    # with all of them, both halves run unless --trace narrows it.
    want_plain = args.trace in (None, 0)
    want_traced = args.trace == 1 or (args.workload is None
                                      and args.trace is None)
    results: dict[str, dict] = {name: {} for name in selected}
    windows: dict[str, list[dict]] = {name: [] for name in selected}
    if want_plain:
        windows = run_plain(selected, args.seed, seconds, n_windows)
        for name in selected:
            results[name]["end_to_end"] = end_to_end(windows[name])
    if want_traced:
        for name in selected:
            counted, layers = run_traced(name, args.seed, seconds, n_windows)
            windows[name] = windows[name] + counted
            results[name]["per_layer"] = layers
    for name in selected:
        results[name].update(verdict(windows[name]))

    failed = False
    lines = []
    for name in selected:
        outcome = results[name]
        for reason in outcome["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
        failed |= not outcome["correct"] or outcome["failed"] > 0
        if "end_to_end" in outcome:
            print_table(f"{name}: end to end", outcome["end_to_end"],
                        contract["end_to_end"])
        if "per_layer" in outcome:
            print_table(f"{name}: per layer", outcome["per_layer"],
                        contract["per_layer"])
        half, declared = ("per_layer", contract["per_layer"]) \
            if args.trace == 1 else ("end_to_end", contract["end_to_end"])
        lines.append(contract_line(outcome, outcome[half], declared))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "windows": n_windows, "workloads": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    for line in lines:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
