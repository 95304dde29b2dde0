"""Worker process entry point: ``python -m repro node --role ...``.

One worker hosts one role's protocol objects (see
:mod:`repro.harness.topology`) on an :class:`~repro.runtime.asyncio_udp.
AsyncioUdpRuntime` with its process rank and follows the launcher's control-plane protocol:

1. bind its socket, connect to the launcher, and send
   :class:`WorkerHello` with its role's addresses — before any protocol
   object exists, so no protocol timer can fire while other processes
   are still unreachable;
2. on :class:`ClusterStart`, build the role and load its keys, install
   the merged port map, bring the transport (and, for the controller
   role, the controller) up, and ack;
3. serve until told to stop — the UDP data plane runs on the same
   event loop as the control connection, so protocol traffic flows
   while the worker waits for control frames;
4. on :class:`ClusterStop`, drain, export trace and metrics shards,
   answer a :class:`StopAck` with replica snapshots and runtime
   counters, and exit 0.

Failure paths always leave evidence: SIGTERM and unexpected crashes
dump the flight-recorder ring to the run directory before exiting
nonzero, and a dead control connection (the launcher vanished) does
the same.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Optional, Sequence

from repro.core.log import ReplicaSnapshot
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import CAUSE_ID_STRIDE, Tracer
from repro.runtime.launcher import (
    ClusterStart,
    ClusterStop,
    StartAck,
    StopAck,
    WorkerHello,
    read_frame,
    write_frame,
)
from repro.runtime.asyncio_udp import AsyncioUdpRuntime

#: Exit codes: abnormal-termination dumps use distinct codes so the
#: supervisor's error message says *how* the worker died.
EXIT_OK = 0
EXIT_CRASH = 2
EXIT_ORPHANED = 3
EXIT_SIGTERM = 143


def build_node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli node",
        description="Run one multi-process cluster worker (spawned by "
                    "the launcher; not meant to be run by hand).")
    parser.add_argument("--role", required=True,
                        help="role string (replica:<shard>:<i>, "
                             "seq:<i>, controller, fc)")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--control-host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--spec", required=True,
                        help="cluster spec as a JSON object")
    return parser


class Worker:
    """One role's runtime, protocol objects, and control client. The
    protocol objects are built only by :meth:`start`."""

    def __init__(self, role: str, rank: int, spec: dict):
        from repro.harness.cluster import Cluster, wire_eris
        from repro.harness.topology import role_addresses
        from repro.harness.udp_smoke import (
            smoke_cluster_config,
            smoke_registry,
        )
        from repro.workloads.partition import Partitioner

        self.role = role
        self.rank = rank
        self.spec = spec
        self.run_dir = spec["run_dir"]
        config = smoke_cluster_config(
            n_shards=spec["shards"], n_replicas=spec["replicas"],
            seed=spec["seed"])
        self.runtime = AsyncioUdpRuntime(seed=config.seed, rank=rank)
        self.recorder = FlightRecorder(
            capacity=spec.get("recorder_capacity", DEFAULT_CAPACITY))
        # Disjoint causal-id space per process: ids assigned here never
        # alias ids assigned by any other rank, so the driver can merge
        # the per-process shards into one causally-consistent stream.
        self.tracer = self.runtime.attach_tracer(Tracer(
            recorder=self.recorder, retain=bool(spec.get("trace")),
            cause_base=rank * CAUSE_ID_STRIDE))
        self.cluster = Cluster(config, smoke_registry(),
                               Partitioner(spec["shards"]),
                               runtime=self.runtime)
        self.topology = wire_eris(self.cluster)
        self.ports = dict.fromkeys(self.runtime._endpoints,
                                   self.runtime._port)
        for address in role_addresses(self.topology, role):
            self.ports[address] = self.runtime._port
        self.sampler: Optional[MetricsSampler] = None

    # -- shard paths -------------------------------------------------------
    def _shard_path(self, prefix: str) -> str:
        return os.path.join(self.run_dir, f"{prefix}-{self.rank}.jsonl")

    def dump_recorder(self, reason: str) -> Optional[str]:
        if not len(self.recorder):
            return None
        path = self._shard_path("recorder")
        self.recorder.dump(path, reason=reason,
                           context={"origin": "worker", "role": self.role,
                                    "rank": self.rank})
        return path

    # -- start and stop ----------------------------------------------------
    def start(self, start: ClusterStart) -> None:
        """Build the role, load its keys, and bring it up on the
        merged port map."""
        from repro.harness.topology import build_role, replica_config
        from repro.workloads.partition import load_keys

        cluster = self.cluster
        build_role(cluster, self.role, self.topology,
                   replica_config(cluster.config))
        load_keys(cluster.stores, cluster.partitioner, self.spec["keys"])
        if self.spec.get("metrics"):
            cluster.instrument_metrics()
            self.sampler = MetricsSampler(
                self.runtime, cluster.metrics,
                interval=self.spec.get("metrics_interval", 0.05))
        self.runtime.install_port_map(start.host, dict(start.port_map))
        self.runtime.start()
        if cluster.controller is not None:
            cluster.controller.start()
        if self.sampler is not None:
            self.sampler.start()

    async def stop(self, drain: float) -> StopAck:
        """Drain, export the shards, and report end-of-run state."""
        from repro.harness.udp_smoke import SMOKE_COUNTERS

        # The loop keeps delivering datagrams and firing protocol
        # timers while we sleep, so in-flight syncs and FC traffic
        # settle before the snapshot.
        await asyncio.sleep(drain)
        if self.spec.get("trace"):
            self.tracer.export(self._shard_path("trace"))
        if self.sampler is not None:
            self.sampler.stop()
            self.sampler.export(self._shard_path("metrics"))
        return StopAck(
            rank=self.rank, role=self.role,
            snapshots=tuple(ReplicaSnapshot.of(r)
                            for replicas in self.cluster.replicas.values()
                            for r in replicas),
            counters=tuple((name, getattr(self.runtime, name))
                           for name in SMOKE_COUNTERS))

    # -- the control-plane session ----------------------------------------
    async def serve(self, host: str, port: int) -> int:
        reader, writer = await asyncio.open_connection(host, port)
        write_frame(writer, WorkerHello(
            role=self.role, rank=self.rank, pid=os.getpid(),
            ports=tuple(sorted(self.ports.items()))))
        await writer.drain()

        start = await read_frame(reader)
        if not isinstance(start, ClusterStart):
            raise RuntimeError(f"expected ClusterStart, got {start!r}")
        self.start(start)
        write_frame(writer, StartAck(rank=self.rank))
        await writer.drain()

        stop = await read_frame(reader)
        if not isinstance(stop, ClusterStop):
            raise RuntimeError(f"unexpected control frame {stop!r}")
        write_frame(writer, await self.stop(stop.drain))
        await writer.drain()
        writer.close()
        return EXIT_OK


def worker_main(argv: Sequence[str]) -> int:
    args = build_node_parser().parse_args(list(argv))
    spec = json.loads(args.spec)
    worker = Worker(args.role, args.rank, spec)

    def on_sigterm(_signum: int, _frame: Any) -> None:
        # The supervisor (or an operator) is tearing us down outside
        # the normal stop protocol: leave the flight-recorder window
        # behind, then exit without unwinding through asyncio.
        worker.dump_recorder(reason="sigterm")
        os._exit(EXIT_SIGTERM)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return worker.runtime.aloop.run_until_complete(
            worker.serve(args.control_host, args.control_port))
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        # Control connection died: the launcher process is gone, so
        # there is nobody left to tell — dump and exit.
        dump = worker.dump_recorder(reason=f"control connection lost: "
                                           f"{exc}")
        print(f"worker {worker.role}: control connection lost ({exc}); "
              f"recorder dump: {dump}", file=sys.stderr)
        return EXIT_ORPHANED
    except Exception as exc:  # noqa: BLE001 - terminal crash report
        dump = worker.dump_recorder(reason=f"worker crash: {exc}")
        print(f"worker {worker.role}: crashed: {exc!r}; recorder "
              f"dump: {dump}", file=sys.stderr)
        return EXIT_CRASH
    finally:
        try:
            worker.runtime.stop()
        except Exception:  # noqa: BLE001 - teardown best-effort
            pass
