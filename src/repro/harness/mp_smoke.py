"""Multi-process UDP smoke run: the driver side.

Same experiment as :func:`repro.harness.udp_smoke.run_udp_smoke`, but
the cluster is real OS processes: the driver (rank 0) hosts only the
clients on a :class:`~repro.runtime.udp_mp.WorkerUdpRuntime`, and the
:class:`~repro.runtime.launcher.ClusterLauncher` spawns one worker
process per role. Every replica/sequencer/controller/FC interaction
crosses process boundaries over UDP.

End of run, the distributed observability plumbing reassembles the
single-process picture:

- the state-collection RPC brings back per-replica snapshots, which
  rehydrate into a :class:`~repro.harness.snapshot.SnapshotCluster` so
  the unmodified §6.7 checkers run on merged state;
- per-process trace shards (collision-free causal ids via per-rank
  ``cause_base``) merge timestamp-sorted into one stream that feeds
  the trace checkers and the 7-phase span decomposition;
- per-process metrics shards and flight-recorder dumps land in the
  run directory next to each worker's log.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Callable, Optional

from repro.baselines.common import OpResult
from repro.errors import ExperimentError, InvariantViolation
from repro.harness.checkers import run_all_checks
from repro.harness.cluster import eris_client_factory
from repro.harness.snapshot import SnapshotCluster
from repro.harness.topology import (
    define_groups,
    eris_topology,
    topology_roles,
)
from repro.harness.udp_smoke import (
    _UDP_ERIS,
    GracefulInterrupt,
    SmokeResult,
    smoke_cluster_config,
)
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import Tracer, merge_trace_shards
from repro.runtime.launcher import ClusterLauncher
from repro.runtime.udp_mp import WorkerUdpRuntime
from repro.sim.randomness import SplitRandom
from repro.workloads import Partitioner
from repro.workloads.counters import CountersConfig, CountersWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: Default timer coalescing for worker processes: nearby protocol
#: timers (sync, ping, retry) share loop wakeups. Half a millisecond
#: only ever *delays* a timer, an order of magnitude under the
#: tightest protocol timeout (5 ms drop detection).
DEFAULT_TIMER_SLACK = 0.5e-3


def run_udp_smoke_mp(n_shards: int = 2, n_replicas: int = 3,
                     n_clients: int = 4, min_commits: int = 50,
                     timeout: float = 30.0, workload: str = "mrmw",
                     distributed_fraction: float = 0.5,
                     n_keys: int = 200, seed: int = 7,
                     check: bool = True, chain: int = 0,
                     batch: int = 1, fast_path: bool = False,
                     run_dir: Optional[str] = None,
                     trace: bool = False, metrics: bool = False,
                     metrics_interval: float = 0.05,
                     recorder_capacity: int = DEFAULT_CAPACITY,
                     timer_slack: float = DEFAULT_TIMER_SLACK,
                     _mid_run: Optional[Callable[[ClusterLauncher],
                                                 None]] = None,
                     ) -> SmokeResult:
    """Run the smoke workload against a process-per-node cluster.

    Raises on invariant violations, on a commit-count timeout, and on
    any worker process dying mid-run (the supervisor names the dead
    worker's log and recorder dump). All per-process artifacts —
    ``worker-<rank>-<role>.log``, ``trace-<rank>.jsonl``,
    ``metrics-<rank>.jsonl``, ``recorder-<rank>.jsonl`` — land in
    ``run_dir`` (a fresh temp directory when not given).

    ``_mid_run``, test-only, is called with the launcher once the
    workload is in flight — the fault-handling test uses it to kill a
    worker and assert supervision catches it.
    """
    if run_dir is None:
        run_dir = tempfile.mkdtemp(prefix="repro-udp-mp-")
    os.makedirs(run_dir, exist_ok=True)
    config = smoke_cluster_config(n_shards=n_shards,
                                  n_replicas=n_replicas, seed=seed,
                                  chain=chain, batch=batch,
                                  fast_path=fast_path)
    topology = eris_topology(config)
    roles = topology_roles(topology)
    runtime = WorkerUdpRuntime(rank=0, seed=seed, batch_frames=batch,
                               timer_slack=timer_slack)
    recorder = FlightRecorder(capacity=recorder_capacity)
    # Driver shard uses cause_base 0; workers use rank * stride — the
    # merged stream's causal ids are collision-free by construction.
    tracer = runtime.attach_tracer(Tracer(recorder=recorder,
                                          retain=trace))
    define_groups(runtime, topology)
    sampler = None
    if metrics:
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        runtime.instrument(registry)
        sampler = MetricsSampler(runtime, registry,
                                 interval=metrics_interval)

    # Clients must exist before the port map is merged: their reply
    # ports travel in the broadcast so replicas can answer them.
    build_client = eris_client_factory(runtime, topology.shard_sizes,
                                       config.client_retry_timeout)
    clients = [build_client(f"client-{i + 1}")
               for i in range(n_clients)]

    if workload == "counters":
        workload_gen = CountersWorkload(
            CountersConfig(n_keys=n_keys,
                           multi_shard_fraction=distributed_fraction),
            Partitioner(n_shards), SplitRandom(seed))
    else:
        workload_gen = YCSBWorkload(
            YCSBConfig(workload=workload, n_keys=n_keys,
                       distributed_fraction=distributed_fraction),
            Partitioner(n_shards), SplitRandom(seed))
    stats = {"committed": 0, "aborted": 0, "retries": 0}

    def issue(client) -> None:
        op = workload_gen.next_op()
        client.submit(op, lambda result, c=client: done(c, result))

    def done(client, result: OpResult) -> None:
        stats["retries"] += result.retries
        if result.committed:
            stats["committed"] += 1
        else:
            stats["aborted"] += 1
        if stats["committed"] < min_commits:
            issue(client)

    launcher = ClusterLauncher(run_dir)
    spec = {"shards": n_shards, "replicas": n_replicas, "keys": n_keys,
            "seed": seed, "chain": chain, "batch": batch,
            "fast_path": fast_path,
            "trace": trace, "metrics": metrics,
            "metrics_interval": metrics_interval, "run_dir": run_dir,
            "recorder_capacity": recorder_capacity,
            "timer_slack": timer_slack}
    interrupt = GracefulInterrupt()
    result = SmokeResult(committed=0, aborted=0, retries=0,
                         wall_seconds=0.0, packets_sent=0,
                         packets_delivered=0, processes=1 + len(roles),
                         run_dir=run_dir)
    recorder_path = os.path.join(run_dir, "recorder-0.jsonl")

    async def wait_until(predicate: Callable[[], bool],
                         deadline_s: float) -> bool:
        """Poll ``predicate`` while the loop serves UDP + control I/O;
        supervises children and honors interrupts on every tick."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + deadline_s
        while not predicate():
            launcher.check_children()
            if interrupt.triggered is not None:
                return False
            if loop.time() > deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def drive() -> tuple[list, list, float]:
        await launcher.open()
        launcher.spawn(roles, spec)
        await launcher.await_hellos()
        port_map = launcher.merged_port_map(dict(runtime._ports))
        runtime.install_port_map(launcher.host, port_map)
        runtime.start()
        if sampler is not None:
            sampler.start()
        await launcher.broadcast_start(port_map)
        # The controller worker broadcasts the sequencer route as it
        # starts; clients are useless until it lands here.
        routed = await wait_until(
            lambda: runtime.sequencer_address is not None, timeout)
        if not routed and interrupt.triggered is None:
            raise ExperimentError(
                f"no sequencer route reached the driver within "
                f"{timeout}s (logs in {run_dir})")

        start_t = runtime.now
        for client in clients:
            issue(client)
        if _mid_run is not None:
            _mid_run(launcher)
        reached = await wait_until(
            lambda: stats["committed"] >= min_commits, timeout)
        wall = runtime.now - start_t
        if (not reached and interrupt.triggered is None
                and stats["committed"] < min_commits):
            raise ExperimentError(
                f"only {stats['committed']}/{min_commits} transactions "
                f"committed within {timeout}s across "
                f"{result.processes} processes (logs in {run_dir})")
        replies = await launcher.collect_states(
            drain=3 * _UDP_ERIS["sync_interval"])
        acks = await launcher.shutdown()
        return replies, acks, wall

    replies: list = []
    acks: list = []
    try:
        with interrupt:
            replies, acks, wall = runtime.aloop.run_until_complete(
                drive())
        result.wall_seconds = wall
        result.committed = stats["committed"]
        result.aborted = stats["aborted"]
        result.retries = stats["retries"]
        totals: dict[str, int] = {}
        for reply in replies:
            for name, value in reply.counters:
                totals[name] = totals.get(name, 0) + value
        result.packets_sent = runtime.packets_sent + totals.get(
            "packets_sent", 0)
        result.packets_delivered = (runtime.packets_delivered
                                    + totals.get("packets_delivered", 0))
        result.frames_sent = runtime.frames_sent + totals.get(
            "frames_sent", 0)
        result.datagrams_sent = runtime.datagrams_sent + totals.get(
            "datagrams_sent", 0)

        merged_events = None
        if trace:
            driver_shard = os.path.join(run_dir, "trace-0.jsonl")
            tracer.export(driver_shard)
            shards = [driver_shard] + [
                os.path.join(run_dir, f"trace-{rank}.jsonl")
                for rank in sorted(launcher.workers)]
            shards = [s for s in shards if os.path.exists(s)]
            merged_path = os.path.join(run_dir, "trace-merged.jsonl")
            merged_events = merge_trace_shards(shards, merged_path)
            result.trace_path = merged_path
            result.trace_events = len(merged_events)

        if interrupt.triggered is not None:
            result.notes.append(
                f"interrupted by {interrupt.triggered}; checks skipped")
            result.checks_passed = False
            if len(recorder):
                recorder.dump(recorder_path,
                              reason=f"interrupted: {interrupt.triggered}",
                              context={"origin": "run_udp_smoke_mp"})
                result.recorder_dump = recorder_path
            return result

        if check:
            snapshots = [snap for reply in replies
                         for snap in reply.snapshots]
            cluster = SnapshotCluster(snapshots)
            run_all_checks(cluster, trace=merged_events,
                           recorder=recorder,
                           recorder_path=recorder_path)
            result.notes.append(
                f"§6.7 invariant checks passed on merged state from "
                f"{len(replies)} workers")
        return result
    except InvariantViolation:
        result.checks_passed = False
        if len(recorder):
            result.recorder_dump = recorder_path
        raise
    except Exception as exc:
        result.checks_passed = False
        launcher.emergency_teardown()
        if len(recorder):
            recorder.dump(recorder_path, reason=str(exc),
                          context={"origin": "run_udp_smoke_mp"})
            result.recorder_dump = recorder_path
        raise
    finally:
        if sampler is not None:
            sampler.stop()
            metrics_path = os.path.join(run_dir, "metrics-0.jsonl")
            result.metrics_samples = sampler.export(metrics_path)
            result.metrics_path = metrics_path
        runtime.stop()
