"""One measurement window of one workload, in a process of its own.

``python bench/window.py '<spec json>'`` builds the workload's cluster,
warms up, measures one window, drains, runs the §6.7 checkers outside
the timed region, and prints one JSON object. A fresh process per
window gives every window a clean heap and its own ``ru_maxrss``, and
lets the parent kill a collapsed run instead of hanging on it.

Every feature knob of the stack is left at its default: a later change
that promotes or deletes a knob shows as a metric change here, not as a
broken benchmark. The UDP protocol timers are today's
``smoke_cluster_config`` values, copied as literals.

**Reference time.** This host's vCPU speed wanders by up to 1.8x for
tens of minutes at a time, so the same commit measures 900 or 1,600 us
of CPU per transaction depending on the hour. The window is therefore
advanced in short slices with a fixed pure-Python spin timed between
them, and every duration the host's CPU speed paces — CPU per
transaction, wall-clock latency, closed-loop window length, set-up — is
scaled by the spin's speed next to it, relative to ``NOMINAL_MOPS``: the
numbers read as if the host had run undisturbed throughout. What the
schedule or the simulator's model paces (open-loop rate, simulated
latency) is not scaled. The unscaled values are reported beside them.
"""

from __future__ import annotations

import time

#: The reference spin's speed on this host class when nothing disturbs
#: it (CPython 3.11), in million iterations per CPU second.
NOMINAL_MOPS = 30.0


def _spin_mops() -> float:
    """Speed of a fixed pure-Python loop right now (about 0.7 ms)."""
    began = time.process_time()
    total = 0
    for i in range(20_000):
        total += i & 7
    return 20_000 / 1e6 / max(1e-9, time.process_time() - began)


_PROCESS_START = time.perf_counter()   # before the program is imported
_SPEED_AT_START = _spin_mops()

import gc
import json
import os
import resource
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from driver import LoadDriver, percentile, poisson_schedule  # noqa: E402

UDP_SYNC_INTERVAL = 20e-3
SIM_SYNC_INTERVAL = 2e-3
#: Wall seconds of window between two readings of the host's speed.
SLICE_S = 0.2
#: Wall seconds the condition-based drain may take before the ops still
#: outstanding are written off as failed.
DRAIN_DEADLINE_S = 4.0

#: name -> shape. ``sim_ms_per_s`` sizes a simulated window from the
#: wall seconds asked for, so that one window costs about that much
#: wall time on the reference host (2 cores); the modelled numbers are
#: then a pure function of (seed, seconds).
WORKLOADS = {
    "udp_srw_closed": dict(backend="udp", shards=2, keys=2000,
                           ops="ycsb", ycsb="srw", distributed=0.0,
                           clients=2, warmup=1.0),
    "udp_mrmw_closed": dict(backend="udp", shards=2, keys=2000,
                            ops="ycsb", ycsb="mrmw", distributed=1.0,
                            clients=2, warmup=1.0),
    "udp_mix_open": dict(backend="udp", shards=2, keys=2000,
                         ops="counters", clients=2, rate=200.0,
                         warmup=1.0),
    "sim_srw_sat": dict(backend="sim", shards=3, keys=2000,
                        ops="ycsb", ycsb="srw", distributed=0.0,
                        clients=220, warmup=2e-3, sim_ms_per_s=2.0),
    # The fault timeline is fixed (kill 30 ms into a 250 ms window, as
    # fig14: 3 x 10 ms pings to detect, 40 ms to reroute), so the wall
    # seconds asked for size the offered rate instead of the span.
    "sim_failover": dict(backend="sim", shards=2, keys=1000,
                         ops="ycsb", ycsb="srw", distributed=0.0,
                         clients=2, warmup=5e-3, span=250e-3,
                         kill_after=30e-3, rate_per_s=10_000.0),
}


def _build(shape: dict, seed: int):
    """Cluster + op generator for one workload (the compatibility
    surface of ``bench/README.md``)."""
    from repro.core.replica import ErisConfig
    from repro.harness.cluster import ClusterConfig, build_cluster
    from repro.net.controller import ControllerConfig
    from repro.sim.randomness import SplitRandom
    from repro.store import ProcedureRegistry
    from repro.workloads import (CountersConfig, CountersWorkload,
                                 Partitioner, YCSBConfig, YCSBWorkload,
                                 load_counters, register_counters_procedures,
                                 register_ycsb_procedures)
    from repro.workloads.ycsb import load_ycsb

    n_keys = shape["keys"]
    partitioner = Partitioner(shape["shards"])
    registry = ProcedureRegistry()
    if shape["ops"] == "counters":
        register_counters_procedures(registry)
        load = load_counters
        generator = CountersWorkload(
            CountersConfig(n_keys=n_keys, read_fraction=0.5,
                           commutative_fraction=0.4,
                           multi_shard_fraction=0.2, tag_fraction=0.2),
            partitioner, SplitRandom(seed + 1))
    else:
        register_ycsb_procedures(registry)
        load = load_ycsb
        generator = YCSBWorkload(
            YCSBConfig(workload=shape["ycsb"], n_keys=n_keys,
                       distributed_fraction=shape["distributed"]),
            partitioner, SplitRandom(seed + 1))
    if shape["backend"] == "udp":
        config = ClusterConfig(
            system="eris", backend="udp", n_shards=shape["shards"],
            n_replicas=3, seed=seed,
            server_service_time=0.0, execution_cost=0.0,
            client_retry_timeout=100e-3,
            eris=ErisConfig(sync_interval=UDP_SYNC_INTERVAL,
                            view_change_timeout=500e-3,
                            drop_detection_delay=5e-3,
                            peer_recovery_timeout=50e-3,
                            fc_retry_timeout=100e-3,
                            general_abort_timeout=500e-3,
                            execution_cost=0.0),
            controller=ControllerConfig(ping_interval=50e-3,
                                        failure_threshold=3,
                                        reroute_delay=100e-3))
    elif "kill_after" in shape:
        config = ClusterConfig(
            system="eris", n_shards=shape["shards"], seed=seed,
            controller=ControllerConfig(ping_interval=10e-3,
                                        failure_threshold=3,
                                        reroute_delay=40e-3))
    else:
        config = ClusterConfig(system="eris", n_shards=shape["shards"],
                               seed=seed)
    cluster = build_cluster(
        config, registry, partitioner,
        loader=lambda stores, p: load(stores, p, n_keys))
    return cluster, generator


class _Trace:
    """What a traced window adds to a plain one: the ledger, collector
    pauses through ``gc.callbacks``, and the program's own counters."""

    def __init__(self) -> None:
        from ledger import Ledger
        self.ledger = Ledger()
        self.ledger.install()
        self.pauses: list[tuple[int, float]] = []   # (generation, seconds)
        self._pause_began = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._pause_began = time.perf_counter()
        else:
            self.pauses.append((info["generation"],
                                time.perf_counter() - self._pause_began))

    def attach(self, cluster, driver) -> None:
        self.cluster = cluster
        self.counts()               # registers the gauges before start()
        wrap = self.ledger.wrap
        driver.next_op = wrap("workloads", "next_op", driver.next_op)
        driver._done = wrap("driver", "_done", driver._done)
        driver._fire_due = wrap("driver", "_fire_due", driver._fire_due)

    def counts(self) -> dict[str, float]:
        """Program-side counters summed over components
        (``metrics_snapshot`` instruments the cluster, so traced only)."""
        out: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            out[name] = out.get(name, 0.0) + value

        for component, values in self.cluster.metrics_snapshot().items():
            for name, value in values.items():
                if isinstance(value, dict):       # histogram summary
                    count = value["count"]
                    add(f"{component}.{name}.sum",
                        count * value["mean"] if count else 0.0)
                    out[f"{component}.{name}.p99"] = \
                        value["p99"] if count else 0.0
                elif component.startswith("replica/"):
                    add(f"replica.{name}", value)
                elif name in ("packets_stamped", "stamp_wakeups"):
                    add(f"sequencer.{name}", value)
                else:
                    add(f"{component}.{name}", value)
        return out

    def probe(self) -> dict:
        self_ns, calls, observed = self.ledger.snapshot()
        loop = getattr(self.cluster, "loop", None)
        return {"self_ns": self_ns, "calls": calls, "observed": observed,
                "counts": self.counts(), "pauses": len(self.pauses),
                "sim_events": loop.events_processed if loop else 0}

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self.ledger.uninstall()

    def report(self, before: dict, after: dict) -> dict:
        def delta(field: str) -> dict:
            keys = set(after[field]) | set(before[field])
            return {key: after[field].get(key, 0) - before[field].get(key, 0)
                    for key in keys}
        pauses = self.pauses[before["pauses"]:after["pauses"]]
        return {
            "ledger": {"self_ns": delta("self_ns"), "calls": delta("calls"),
                       "observed": delta("observed"),
                       "missing": self.ledger.missing},
            "counts": delta("counts"),
            "loop_lag_p99_ms":
                after["counts"].get("runtime.loop_lag.p99", 0.0) * 1e3,
            "gc": {"gen2_pauses": sum(1 for gen, _ in pauses if gen == 2),
                   "pause_ms_max":
                       max((p for _, p in pauses), default=0.0) * 1e3,
                   "pause_ms_total": sum(p for _, p in pauses) * 1e3},
            "sim_events": after["sim_events"] - before["sim_events"],
        }


def _plan(shape: dict, seed: int, seconds: float):
    """(warm-up, window, open-loop schedule or None), the first two on
    the runtime's clock, from the wall seconds asked for."""
    warmup = shape["warmup"]
    if shape["backend"] == "udp":
        window = seconds
        rate = shape.get("rate")
    elif "span" in shape:
        window = shape["span"]
        rate = shape["rate_per_s"] * seconds
    else:
        window = shape["sim_ms_per_s"] * 1e-3 * seconds
        rate = None
    schedule = None if rate is None else \
        poisson_schedule(seed, rate, warmup + window)
    return warmup, window, schedule


def _check(cluster, driver, kill_at) -> tuple[bool, list[str], float]:
    """The §6.7 checkers (and the failover's own assertion) on the
    drained cluster; every failure comes with its reason."""
    from repro.errors import InvariantViolation
    from repro.harness.checkers import run_all_checks

    reasons: list[str] = []
    if driver.outstanding:
        reasons.append(f"{driver.outstanding} ops outstanding at the drain "
                       "deadline")
    if driver.aborted:
        reasons.append(f"{driver.aborted} ops aborted or timed out")
    began = time.perf_counter()
    correct = True
    try:
        run_all_checks(cluster)
    except InvariantViolation as exc:
        correct = False
        reasons.append(f"checker failed: {exc}")
    check_s = time.perf_counter() - began
    if kill_at is not None:
        failovers = cluster.controller.failovers
        epochs = sorted({replica.epoch_num
                         for replicas in cluster.replicas.values()
                         for replica in replicas if not replica.crashed})
        if failovers != 1 or epochs != [2]:
            correct = False
            reasons.append(f"expected 1 failover and every live replica "
                           f"on epoch 2; saw {failovers} and {epochs}")
    return correct, reasons, check_s


def run_window(spec: dict) -> dict:
    shape = dict(WORKLOADS[spec["workload"]])
    shape.update(spec.get("override", {}))     # the overload probe
    seed, seconds = spec["seed"], spec["seconds"]
    udp = shape["backend"] == "udp"
    trace = _Trace() if spec.get("traced") else None

    cluster, generator = _build(shape, seed)
    runtime = cluster.runtime
    clients = [cluster.make_client() for _ in range(shape["clients"])]
    warmup, window, schedule = _plan(shape, seed, seconds)
    driver = LoadDriver(runtime, clients, generator.next_op, warmup, window,
                        schedule)
    if trace:
        trace.attach(cluster, driver)

    if udp:
        def advance(until: float) -> None:
            runtime.run_for(max(0.0, until - runtime.now))
    else:
        def advance(until: float) -> None:
            cluster.loop.run(until=until)

    runtime.start()
    speed_at_submit = _spin_mops()
    driver.start()
    advance(driver.t_start)
    setup_s = (driver.first_submit_perf or time.perf_counter()) \
        - _PROCESS_START
    kill_at = None
    if "kill_after" in shape:
        kill_at = driver.t_start + shape["kill_after"]
        runtime.call_at(kill_at, cluster.crash_active_sequencer)

    # The window, one slice at a time, the host's speed read in between.
    n_slices = max(1, round(seconds / SLICE_S))
    slice_wall, slice_cpu, speeds = [], [], []
    before = trace.probe() if trace else None
    speed = _spin_mops()
    for k in range(1, n_slices + 1):
        wall, cpu = time.perf_counter(), time.process_time()
        advance(driver.t_start + k * window / n_slices)
        slice_cpu.append(time.process_time() - cpu)
        slice_wall.append(time.perf_counter() - wall)
        following = _spin_mops()
        speeds.append((speed + following) / 2 / NOMINAL_MOPS)
        speed = following
    after = trace.probe() if trace else None

    # Condition-based drain, then three sync intervals of quiet so the
    # replicas the checkers read are in step.
    if udp:
        runtime.run_until(lambda: driver.idle, timeout=DRAIN_DEADLINE_S)
        runtime.run_for(3 * UDP_SYNC_INTERVAL)
    else:
        gave_up = time.perf_counter() + DRAIN_DEADLINE_S
        while not driver.idle and time.perf_counter() < gave_up:
            advance(runtime.now + SIM_SYNC_INTERVAL)
        advance(runtime.now + 3 * SIM_SYNC_INTERVAL)
    correct, reasons, check_s = _check(cluster, driver, kill_at)
    failovers = cluster.controller.failovers
    timeouts = sum(getattr(client.node, "timedout_count", 0)
                   for client in clients)
    runtime.stop()
    if trace:
        trace.close()

    samples = driver.samples
    committed = len(samples)
    raw_cpu_s, raw_wall_s = sum(slice_cpu), sum(slice_wall)
    ref_cpu_s = sum(c * f for c, f in zip(slice_cpu, speeds))
    ref_wall_s = sum(w * f for w, f in zip(slice_wall, speeds))
    raw_ms = sorted(lat * 1e3 for _, lat in samples)
    if udp:
        # A wall-clock latency is scaled by the host's speed in the
        # slice the op completed in.
        def scaled(reference: float, latency: float) -> float:
            done = (reference + latency - driver.t_start) / window
            return latency * speeds[min(n_slices - 1,
                                        max(0, int(done * n_slices)))]
        latencies_ms = sorted(scaled(*sample) * 1e3 for sample in samples)
    else:
        latencies_ms = raw_ms
    # Only a closed loop on real sockets is paced by the host's CPU.
    paced_by_cpu = udp and schedule is None
    # Steadiness inside the window: commits per eighth of the window.
    eighths = [0] * 8
    for reference, _ in samples:
        index = int((reference - driver.t_start) / window * 8)
        eighths[min(7, max(0, index))] += 1
    per_txn = 1e6 / max(1, committed)
    result = {
        "workload": spec["workload"], "seed": seed,
        "backend": shape["backend"],
        "correct": correct,
        "reasons": reasons,
        "attempted": driver.attempted,
        "failed": driver.aborted + driver.outstanding,
        "window_attempted": driver.window_attempted,
        "committed": committed,
        "tput": committed / (ref_wall_s if paced_by_cpu else window),
        "cpu_us_per_txn": ref_cpu_s * per_txn,
        "setup_s": setup_s * (_SPEED_AT_START + speed_at_submit) / 2
        / NOMINAL_MOPS,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": latencies_ms,
        "host_speed": ref_cpu_s / raw_cpu_s,     # 1.0 = undisturbed
        "raw": {"tput": committed / window,       # runtime clock
                "cpu_us_per_txn": raw_cpu_s * per_txn,
                "p50_ms": percentile(raw_ms, 50.0) if raw_ms else 0.0,
                "window_wall_s": raw_wall_s, "window_cpu_s": raw_cpu_s},
        "sched_lag_ms": sorted(lag * 1e3 for lag in driver.sched_lag),
        "open_loop": schedule is not None,
        "retries": driver.retries,
        "timeouts": timeouts,
        "failovers": failovers,
        "check_s": check_s,
        "slice_cv": (statistics.pstdev(eighths) / statistics.fmean(eighths)
                     if committed else 0.0),
    }
    if kill_at is not None:
        result["outage_ms"] = driver.longest_gap_after(kill_at) * 1e3
    if trace:
        result.update(trace.report(before, after))
    return result


def main(argv: list[str]) -> int:
    print(json.dumps(run_window(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
