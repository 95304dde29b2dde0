"""End-to-end smoke run of Eris over real UDP loopback sockets.

Builds the same Eris deployment the simulator experiments use — shards,
replica groups, multi-sequencer, SDN controller, FC — but on the
:class:`repro.runtime.asyncio_udp.AsyncioUdpRuntime` backend, drives a
short closed-loop YCSB workload across real sockets, and then runs the
§6.7 invariant checkers on the finished cluster. The protocol classes
are byte-for-byte the ones the simulator runs; only the runtime
differs. Used by ``python -m repro udpsmoke`` and the CI smoke job.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.baselines.common import OpResult, WorkloadOp
from repro.core.replica import ErisConfig
from repro.errors import ExperimentError, InvariantViolation
from repro.harness.checkers import run_all_checks
from repro.harness.cluster import Cluster, ClusterConfig, build_cluster
from repro.net.controller import ControllerConfig
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import Tracer
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import Partitioner, register_ycsb_procedures
from repro.workloads.counters import (
    CountersConfig,
    CountersWorkload,
    load_counters,
    register_counters_procedures,
)
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload, load_ycsb


#: Protocol timers rescaled from simulated microseconds to real
#: milliseconds: loopback RTTs are tens of microseconds, but Python
#: callback scheduling is not, so everything gets generous headroom.
_UDP_ERIS = dict(sync_interval=20e-3, view_change_timeout=500e-3,
                 drop_detection_delay=5e-3, peer_recovery_timeout=50e-3,
                 fc_retry_timeout=100e-3, general_abort_timeout=500e-3,
                 execution_cost=0.0)
_UDP_CONTROLLER = dict(ping_interval=50e-3, failure_threshold=3,
                       reroute_delay=100e-3)


@dataclass
class SmokeResult:
    committed: int
    aborted: int
    retries: int
    wall_seconds: float
    packets_sent: int
    packets_delivered: int
    #: Encoded frames and datagrams written; one datagram carries one
    #: frame, so the two are equal.
    frames_sent: int = 0
    datagrams_sent: int = 0
    checks_passed: bool = True
    notes: list[str] = field(default_factory=list)
    #: Observability outputs (None when the corresponding feature was
    #: off or nothing was written).
    trace_path: Optional[str] = None
    trace_events: int = 0
    metrics_path: Optional[str] = None
    metrics_samples: int = 0
    recorder_dump: Optional[str] = None
    #: OS processes that participated (1 = single-process; a
    #: multi-process run counts the driver plus every worker).
    processes: int = 1
    run_dir: Optional[str] = None


def smoke_cluster_config(n_shards: int = 2, n_replicas: int = 3,
                         seed: int = 7, chain: int = 0,
                         fast_path: bool = False) -> ClusterConfig:
    """The canonical UDP-smoke :class:`ClusterConfig`.

    Shared between the single-process path (:func:`build_udp_cluster`)
    and the per-node workers of a multi-process run — every process
    must derive the identical config so address names, group
    membership, and protocol timers agree across the cluster.

    ``fast_path`` turns on the read fast path (Harmonia fast reads);
    replicas report execution watermarks on their sync cadence."""
    return ClusterConfig(
        system="eris", backend="udp", n_shards=n_shards,
        n_replicas=n_replicas, seed=seed,
        # Real sockets cost real CPU; the simulator's synthetic
        # service-time model would only double-charge it.
        server_service_time=0.0, execution_cost=0.0,
        client_retry_timeout=100e-3,
        sequencer_chain=chain,
        read_fast_path=fast_path,
        eris=ErisConfig(**_UDP_ERIS),
        controller=ControllerConfig(**_UDP_CONTROLLER),
    )


def build_udp_cluster(n_shards: int = 2, n_replicas: int = 3,
                      n_keys: int = 200, seed: int = 7, chain: int = 0,
                      counters: bool = False,
                      fast_path: bool = False) -> Cluster:
    """An Eris cluster on the asyncio-UDP runtime, keys loaded.

    ``chain`` fronts the system with an N-node chain-replicated
    sequencer as in the simulator experiments.
    ``counters`` registers/loads the coordination-free counters
    workload instead of YCSB; ``fast_path`` turns on the read fast
    path."""
    registry = ProcedureRegistry()
    if counters:
        register_counters_procedures(registry)
        loader = lambda stores, p: load_counters(stores, p, n_keys)  # noqa: E731
    else:
        register_ycsb_procedures(registry)
        loader = lambda stores, p: load_ycsb(stores, p, n_keys)  # noqa: E731
    partitioner = Partitioner(n_shards)
    config = smoke_cluster_config(n_shards=n_shards,
                                  n_replicas=n_replicas, seed=seed,
                                  chain=chain, fast_path=fast_path)
    return build_cluster(config, registry, partitioner, loader=loader)


class GracefulInterrupt:
    """Flag-based SIGINT/SIGTERM handling for real-socket runs.

    A first signal sets :attr:`triggered` — the run loop notices, stops
    issuing work, drains, and still exports the recorder, metrics, and
    trace before exiting. A second SIGINT falls through to the default
    handler (KeyboardInterrupt) so a wedged run can be killed. Use as a
    context manager; previous handlers are restored on exit."""

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.triggered: Optional[str] = None
        self._previous: dict = {}

    def _handle(self, signum: int, _frame) -> None:
        if self.triggered is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self.triggered = signal.Signals(signum).name

    def __enter__(self) -> "GracefulInterrupt":
        for sig in self.signals:
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:
                # Not the main thread (e.g. pytest-xdist worker):
                # interruption handling is a no-op there.
                pass
        return self

    def __exit__(self, *_exc) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)


def run_udp_smoke(n_shards: int = 2, n_replicas: int = 3,
                  n_clients: int = 4, min_commits: int = 50,
                  timeout: float = 30.0, workload: str = "mrmw",
                  distributed_fraction: float = 0.5, n_keys: int = 200,
                  seed: int = 7, check: bool = True, chain: int = 0,
                  fast_path: bool = False,
                  trace_path: Optional[str] = None,
                  metrics_path: Optional[str] = None,
                  metrics_interval: float = 0.05,
                  recorder_path: str = "flight-recorder.jsonl",
                  recorder_capacity: int = DEFAULT_CAPACITY,
                  _inject_fault: Optional[Callable[[Cluster], None]] = None,
                  ) -> SmokeResult:
    """Run the loopback smoke test; raises on invariant violations or
    if fewer than ``min_commits`` transactions commit within
    ``timeout`` real seconds.

    Observability wiring:

    - ``trace_path`` turns on full causal tracing (the tracer is
      attached via :meth:`Runtime.attach_tracer`, so every timestamp
      comes from the loop's monotonic clock) and exports JSONL there —
      the file feeds ``trace analyze`` / the 7-phase span
      decomposition unmodified.
    - ``metrics_path`` instruments every component plus the runtime's
      health metrics and runs a :class:`MetricsSampler` at
      ``metrics_interval``, exporting the JSONL series there.
    - The flight recorder is **always on**: without ``trace_path`` the
      tracer runs ring-only (``retain=False`` — bounded memory, events
      land only in the ring), and the ring is dumped to
      ``recorder_path`` whenever a §6.7 checker fails or the harness
      errors out. In ring-only mode only the state-based checkers run
      (``cluster.tracer`` stays ``None``): the ring holds a *window*,
      and trace checkers on a partial stream would report false gaps.

    ``_inject_fault``, test-only, runs against the finished cluster
    just before the checkers — the recorder auto-dump test uses it to
    plant a §6.7 violation.
    """
    cluster = build_udp_cluster(n_shards=n_shards, n_replicas=n_replicas,
                                n_keys=n_keys, seed=seed, chain=chain,
                                counters=(workload == "counters"),
                                fast_path=fast_path)
    runtime = cluster.runtime
    recorder = FlightRecorder(capacity=recorder_capacity)
    if trace_path is not None:
        cluster.tracer = runtime.attach_tracer(Tracer(recorder=recorder))
    else:
        runtime.attach_tracer(Tracer(recorder=recorder, retain=False))
    sampler = None
    if metrics_path is not None:
        cluster.instrument_metrics()
        sampler = MetricsSampler(runtime, cluster.metrics,
                                 interval=metrics_interval)
    if workload == "counters":
        workload_gen = CountersWorkload(
            CountersConfig(n_keys=n_keys,
                           multi_shard_fraction=distributed_fraction),
            cluster.partitioner, SplitRandom(seed))
    else:
        workload_gen = YCSBWorkload(
            YCSBConfig(workload=workload, n_keys=n_keys,
                       distributed_fraction=distributed_fraction),
            cluster.partitioner, SplitRandom(seed))

    stats = {"committed": 0, "aborted": 0, "retries": 0}
    clients = [cluster.make_client() for _ in range(n_clients)]
    runtime.start()
    if sampler is not None:
        sampler.start()
    start = runtime.now

    def issue(client) -> None:
        op = workload_gen.next_op()
        client.submit(op, lambda result, c=client: done(c, result))

    def done(client, result: OpResult) -> None:
        stats["retries"] += result.retries
        if result.committed:
            stats["committed"] += 1
        else:
            stats["aborted"] += 1
        # Closed loop: one outstanding op per client until the target
        # commit count is reached.
        if stats["committed"] < min_commits:
            issue(client)

    interrupt = GracefulInterrupt()
    with interrupt:
        for client in clients:
            issue(client)

        reached = runtime.run_until(
            lambda: (stats["committed"] >= min_commits
                     or interrupt.triggered is not None),
            timeout=timeout)
        # Let in-flight replies, syncs, and FC traffic drain so replica
        # state is quiescent before the checkers read it.
        runtime.run_for(3 * _UDP_ERIS["sync_interval"])
    wall = runtime.now - start

    result = SmokeResult(
        committed=stats["committed"], aborted=stats["aborted"],
        retries=stats["retries"], wall_seconds=wall,
        packets_sent=runtime.packets_sent,
        packets_delivered=runtime.packets_delivered,
        frames_sent=runtime.frames_sent,
        datagrams_sent=runtime.datagrams_sent,
    )
    try:
        if interrupt.triggered is not None:
            # Interrupted run: exit cleanly with whatever completed —
            # the finally block still exports metrics and trace, and
            # the recorder window is preserved for post-mortem.
            result.notes.append(
                f"interrupted by {interrupt.triggered}; checks skipped")
            result.checks_passed = False
            if len(recorder):
                recorder.dump(recorder_path,
                              reason=f"interrupted: {interrupt.triggered}",
                              context={"origin": "run_udp_smoke"})
                result.recorder_dump = recorder_path
            return result
        if not reached:
            raise ExperimentError(
                f"only {stats['committed']}/{min_commits} transactions "
                f"committed within {timeout}s over UDP loopback")
        if _inject_fault is not None:
            _inject_fault(cluster)
        if check:
            run_all_checks(cluster, recorder=recorder,
                           recorder_path=recorder_path)
            result.notes.append("§6.7 invariant checks passed")
    except InvariantViolation:
        # run_all_checks already dumped the recorder (when non-empty).
        result.checks_passed = False
        if len(recorder):
            result.recorder_dump = recorder_path
        raise
    except Exception as exc:
        # Commit-count timeout or an unexpected harness crash: dump
        # here so the last window of activity always survives.
        result.checks_passed = False
        if len(recorder):
            recorder.dump(recorder_path, reason=str(exc),
                          context={"origin": "run_udp_smoke"})
            result.recorder_dump = recorder_path
        raise
    finally:
        if sampler is not None:
            sampler.stop()
            result.metrics_samples = sampler.export(metrics_path)
            result.metrics_path = metrics_path
        if trace_path is not None and cluster.tracer is not None:
            result.trace_events = cluster.tracer.export(trace_path)
            result.trace_path = trace_path
        runtime.stop()
    return result
