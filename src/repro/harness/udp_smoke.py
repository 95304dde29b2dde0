"""End-to-end smoke run of Eris over real UDP loopback sockets.

Builds the same Eris deployment the simulator experiments use — shards,
replica groups, multi-sequencer, SDN controller, FC — on real sockets,
drives a short closed-loop workload, and runs the §6.7 invariant
checkers on the finished cluster; only the runtime differs from the
simulator. :func:`run_udp_smoke` hosts every role in this process
(``processes="single"``), or only the clients while the
:class:`~repro.runtime.launcher.ClusterLauncher` spawns one OS process
per role (``processes="per-node"``). The two layouts differ only in how
the cluster comes up, how the driver waits, and where the checkers'
state and trace come from (DESIGN.md, "Multi-process clusters"). Used
by ``python -m repro udpsmoke`` and the CI smoke jobs.
"""

from __future__ import annotations

import os
import signal
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.replica import ErisConfig
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    InvariantViolation,
)
from repro.harness.checkers import run_all_checks
from repro.harness.cluster import (
    Cluster,
    ClusterConfig,
    build_cluster,
    wire_eris,
)
from repro.harness.experiment import closed_loop
from repro.net.controller import ControllerConfig
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import Tracer, merge_trace_shards
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import (
    Partitioner,
    build_workload,
    register_counters_procedures,
    register_ycsb_procedures,
)
from repro.workloads.partition import load_keys

PROCESSES = ("single", "per-node")

#: Runtime counters summed over every process into the
#: :class:`SmokeResult` (per-node workers report them at end of run).
SMOKE_COUNTERS = ("packets_sent", "packets_delivered", "frames_sent",
                  "datagrams_sent")

#: Protocol timers rescaled from simulated microseconds to real
#: milliseconds: loopback RTTs are tens of microseconds, but Python
#: callback scheduling is not, so everything gets generous headroom.
_UDP_ERIS = dict(sync_interval=20e-3, view_change_timeout=500e-3,
                 drop_detection_delay=5e-3, peer_recovery_timeout=50e-3,
                 fc_retry_timeout=100e-3, general_abort_timeout=500e-3)
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
                         seed: int = 7) -> ClusterConfig:
    """The canonical UDP-smoke :class:`ClusterConfig`.

    Every process of a per-node run derives it from the same
    arguments, so address names, group membership, and protocol timers
    agree across the cluster."""
    return ClusterConfig(
        system="eris", backend="udp", n_shards=n_shards,
        n_replicas=n_replicas, seed=seed,
        client_retry_timeout=100e-3,
        eris=ErisConfig(**_UDP_ERIS),
        controller=ControllerConfig(**_UDP_CONTROLLER),
    )


def smoke_registry() -> ProcedureRegistry:
    """Both smoke workloads' procedures. Every process registers both:
    a per-node worker does not know which workload the driver runs,
    and an unused registration costs nothing."""
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    register_counters_procedures(registry)
    return registry


def build_udp_cluster(n_shards: int = 2, n_replicas: int = 3,
                      n_keys: int = 200, seed: int = 7) -> Cluster:
    """An Eris cluster on the asyncio-UDP runtime, keys loaded."""
    config = smoke_cluster_config(n_shards=n_shards,
                                  n_replicas=n_replicas, seed=seed)
    return build_cluster(
        config, smoke_registry(), Partitioner(n_shards),
        loader=lambda stores, p: load_keys(stores, p, n_keys))


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


class _InProcess:
    """``processes="single"``: the whole cluster in this process."""

    processes = 1

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def start(self, timeout: float, interrupted: Callable[[], bool]) -> None:
        self.cluster.runtime.start()

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        return self.cluster.runtime.run_until(predicate, timeout)

    def collect(self, drain: float):
        """Quiesce for ``drain`` seconds; return the checkers' state and
        the runtime counters of every other process (none here)."""
        self.cluster.runtime.run_for(drain)
        return self.cluster, {}

    def trace(self, tracer: Tracer, path: str):
        tracer.export(path)
        return tracer

    def abort(self) -> None:
        pass


class _PerNode:
    """``processes="per-node"``: this process hosts only the clients;
    the launcher spawns one worker process per role."""

    def __init__(self, config: ClusterConfig, n_keys: int, run_dir: str,
                 trace: bool, metrics: bool, metrics_interval: float,
                 recorder_capacity: int):
        from repro.harness.topology import topology_roles
        from repro.runtime.asyncio_udp import AsyncioUdpRuntime
        from repro.runtime.launcher import ClusterLauncher

        self.run_dir = run_dir
        self.cluster = Cluster(config, smoke_registry(),
                               Partitioner(config.n_shards),
                               runtime=AsyncioUdpRuntime(seed=config.seed,
                                                         rank=0))
        self.roles = topology_roles(wire_eris(self.cluster))
        self.processes = 1 + len(self.roles)
        self.launcher = ClusterLauncher(run_dir)
        self.spec = {"shards": config.n_shards,
                     "replicas": config.n_replicas, "keys": n_keys,
                     "seed": config.seed,
                     "trace": trace, "metrics": metrics,
                     "metrics_interval": metrics_interval,
                     "run_dir": run_dir,
                     "recorder_capacity": recorder_capacity}

    def start(self, timeout: float, interrupted: Callable[[], bool]) -> None:
        runtime = self.cluster.runtime
        launcher = self.launcher

        # Clients exist already: their reply ports travel in the merged
        # port map so replicas can answer them. Datagrams that reach
        # this process before its transport is up wait in its socket.
        port_map = runtime.aloop.run_until_complete(
            launcher.start(self.roles, self.spec,
                           dict.fromkeys(runtime._endpoints, runtime._port)))
        runtime.install_port_map(launcher.host, port_map)
        runtime.start()
        # The controller worker broadcasts the sequencer route as it
        # starts; clients are useless until it lands here.
        if not self.wait(lambda: (runtime.sequencer_address is not None
                                  or interrupted()), timeout):
            raise ExperimentError(
                f"no sequencer route reached the driver within "
                f"{timeout}s (logs in {self.run_dir})")

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        def supervised() -> bool:
            self.launcher.check_children()
            return predicate()

        return self.cluster.runtime.run_until(supervised, timeout,
                                             poll=0.005)

    def collect(self, drain: float):
        """The stop exchange: every worker drains, exports its shards,
        and acks with its snapshots and runtime counters, which come
        back merged and summed."""
        acks = self.cluster.runtime.aloop.run_until_complete(
            self.launcher.shutdown(drain=drain))
        counters: dict[str, int] = {}
        for ack in acks:
            for name, value in ack.counters:
                counters[name] = counters.get(name, 0) + value
        return [snap for ack in acks for snap in ack.snapshots], counters

    def trace(self, tracer: Tracer, path: str) -> list:
        shards = [os.path.join(self.run_dir, f"trace-{rank}.jsonl")
                  for rank in [0, *sorted(self.launcher.workers)]]
        tracer.export(shards[0])
        return merge_trace_shards([s for s in shards if os.path.exists(s)],
                                  path)

    def abort(self) -> None:
        self.launcher.emergency_teardown()


def run_udp_smoke(n_shards: int = 2, n_replicas: int = 3,
                  n_clients: int = 4, min_commits: int = 50,
                  timeout: float = 30.0, workload: str = "mrmw",
                  distributed_fraction: float = 0.5, n_keys: int = 200,
                  seed: int = 7, check: bool = True,
                  processes: str = "single",
                  run_dir: Optional[str] = None,
                  trace_path: Optional[str] = None,
                  metrics_path: Optional[str] = None,
                  metrics_interval: float = 0.05,
                  recorder_path: str = "flight-recorder.jsonl",
                  recorder_capacity: int = DEFAULT_CAPACITY,
                  _mid_run: Optional[Callable] = None,
                  _inject_fault: Optional[Callable] = None,
                  ) -> SmokeResult:
    """Run the loopback smoke test; raises on invariant violations, if
    fewer than ``min_commits`` transactions commit within ``timeout``
    real seconds, and (per-node) when any worker process dies mid-run —
    the supervisor names the dead worker's log and recorder dump.

    ``processes`` picks the layout (:data:`PROCESSES`). Per-node runs
    put every per-process artifact — ``worker-<rank>-<role>.log``,
    ``trace-<rank>.jsonl``, ``metrics-<rank>.jsonl``,
    ``recorder-<rank>.jsonl`` — in ``run_dir`` (a fresh temp directory
    when not given); single-process runs have none and reject it.

    Observability wiring, the same in both layouts:

    - ``trace_path`` turns on full causal tracing (the tracer is
      attached via :meth:`Runtime.attach_tracer`, so every timestamp
      comes from the loop's monotonic clock) and exports JSONL there —
      per-node, the merge of every process's shard. The file feeds
      ``trace analyze`` / the 7-phase span decomposition unmodified.
    - ``metrics_path`` instruments every component of this process
      plus the runtime's health metrics and runs a
      :class:`MetricsSampler` at ``metrics_interval``, exporting the
      JSONL series there (per-node, each worker writes its own series
      into ``run_dir``).
    - The flight recorder is **always on**: without ``trace_path`` the
      tracer runs ring-only (``retain=False`` — bounded memory, events
      land only in the ring), and this process's ring is dumped to
      ``recorder_path`` whenever a §6.7 checker fails or the harness
      errors out. In ring-only mode only the state-based checkers run:
      the ring holds a *window*, and trace checkers on a partial
      stream would report false gaps.

    Test-only hooks: ``_mid_run`` is called with the layout object once
    the workload is in flight (a per-node test kills a worker through
    its ``launcher``); ``_inject_fault`` runs against the checkers'
    state just before they run (a test plants a §6.7 violation).
    """
    if processes == "single":
        if run_dir is not None:
            raise ConfigurationError("run_dir requires processes='per-node'")
        host = _InProcess(build_udp_cluster(
            n_shards=n_shards, n_replicas=n_replicas, n_keys=n_keys,
            seed=seed))
    elif processes == "per-node":
        if run_dir is None:
            run_dir = tempfile.mkdtemp(prefix="repro-udp-mp-")
        host = _PerNode(
            smoke_cluster_config(n_shards=n_shards, n_replicas=n_replicas,
                                 seed=seed),
            n_keys, run_dir, trace=trace_path is not None,
            metrics=metrics_path is not None,
            metrics_interval=metrics_interval,
            recorder_capacity=recorder_capacity)
    else:
        raise ConfigurationError(
            f"unknown processes {processes!r}; pick one of {PROCESSES}")
    cluster = host.cluster
    runtime = cluster.runtime
    recorder = FlightRecorder(capacity=recorder_capacity)
    tracer = runtime.attach_tracer(Tracer(recorder=recorder,
                                          retain=trace_path is not None))
    sampler = None
    if metrics_path is not None:
        cluster.instrument_metrics()
        sampler = MetricsSampler(runtime, cluster.metrics,
                                 interval=metrics_interval)
    ops = build_workload(workload, n_shards, SplitRandom(seed),
                         n_keys=n_keys,
                         distributed=distributed_fraction).ops
    stats = {"committed": 0, "aborted": 0, "retries": 0}

    def on_complete(_op, result) -> None:
        stats["retries"] += result.retries
        stats["committed" if result.committed else "aborted"] += 1

    def keep_going() -> bool:
        # One outstanding op per client until the target commit count
        # is reached.
        return stats["committed"] < min_commits

    clients = [cluster.make_client() for _ in range(n_clients)]

    interrupt = GracefulInterrupt()

    def interrupted() -> bool:
        return interrupt.triggered is not None

    result = SmokeResult(committed=0, aborted=0, retries=0,
                         wall_seconds=0.0, packets_sent=0,
                         packets_delivered=0, processes=host.processes,
                         run_dir=run_dir)
    try:
        with interrupt:
            host.start(timeout, interrupted)
            if sampler is not None:
                sampler.start()
            start = runtime.now
            for client in clients:
                closed_loop(client, ops.next_op, on_complete, keep_going)
            if _mid_run is not None:
                _mid_run(host)
            reached = host.wait(
                lambda: stats["committed"] >= min_commits or interrupted(),
                timeout)
            result.wall_seconds = runtime.now - start
            if not reached:
                # Raised before collecting: a cluster too wedged to
                # commit may not answer the stop exchange either, and
                # that error must not hide this one.
                where = (f" across {host.processes} processes (logs in "
                         f"{run_dir})" if run_dir else "")
                raise ExperimentError(
                    f"only {stats['committed']}/{min_commits} "
                    f"transactions committed within {timeout}s over UDP "
                    f"loopback{where}")
            # Let in-flight replies, syncs, and FC traffic drain so
            # replica state is quiescent before the checkers read it.
            state, counters = host.collect(
                drain=3 * _UDP_ERIS["sync_interval"])
        result.committed = stats["committed"]
        result.aborted = stats["aborted"]
        result.retries = stats["retries"]
        for name in SMOKE_COUNTERS:
            setattr(result, name,
                    getattr(runtime, name) + counters.get(name, 0))
        trace = None
        if trace_path is not None:
            trace = host.trace(tracer, trace_path)
            result.trace_path = trace_path
            result.trace_events = len(trace)
        if interrupted():
            # Interrupted run: exit cleanly with whatever completed —
            # metrics and trace are still exported, and the recorder
            # window is preserved for post-mortem.
            result.notes.append(
                f"interrupted by {interrupt.triggered}; checks skipped")
            result.checks_passed = False
            if len(recorder):
                recorder.dump(recorder_path,
                              reason=f"interrupted: {interrupt.triggered}",
                              context={"origin": "run_udp_smoke"})
                result.recorder_dump = recorder_path
            return result
        if _inject_fault is not None:
            _inject_fault(state)
        if check:
            run_all_checks(state, trace=trace, recorder=recorder,
                           recorder_path=recorder_path)
            result.notes.append("§6.7 invariant checks passed")
    except InvariantViolation:
        # run_all_checks already dumped the recorder (when non-empty).
        result.checks_passed = False
        if len(recorder):
            result.recorder_dump = recorder_path
        raise
    except Exception as exc:
        # Commit-count timeout, a dead worker, or an unexpected harness
        # crash: dump here so the last window of activity survives.
        result.checks_passed = False
        host.abort()
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
        runtime.stop()
    return result
