"""Worker process entry point: ``python -m repro node --role ...``.

One worker hosts one role's protocol objects (see
:mod:`repro.harness.topology`) on a :class:`~repro.runtime.udp_mp.
WorkerUdpRuntime` and follows the launcher's control-plane protocol:

1. bind sockets, connect to the launcher, send :class:`WorkerHello`;
2. wait for :class:`ClusterStart`, install the merged port map, bring
   the transport (and, for the controller role, the controller) up,
   ack;
3. serve until told to stop — the UDP data plane runs on the same
   event loop as the control connection, so protocol traffic flows
   while the worker waits for control frames;
4. on :class:`StateRequest`, quiesce and reply with replica snapshots
   and runtime counters; on :class:`ClusterStop`, export trace and
   metrics shards and exit 0.

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

from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import CAUSE_ID_STRIDE, Tracer
from repro.runtime.launcher import (
    ClusterStart,
    ClusterStop,
    StartAck,
    StateReply,
    StateRequest,
    StopAck,
    WorkerHello,
    read_frame,
    write_frame,
)
from repro.runtime.udp_mp import WorkerUdpRuntime

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
                             "seq:<i>, chain:<i>, controller, fc)")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--control-host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--spec", required=True,
                        help="cluster spec as a JSON object")
    return parser


class Worker:
    """One role's runtime, protocol objects, and control client."""

    def __init__(self, role: str, rank: int, spec: dict):
        from repro.harness.cluster import Cluster, wire_eris
        from repro.harness.topology import build_role, replica_config
        from repro.harness.udp_smoke import (
            smoke_cluster_config,
            smoke_registry,
        )
        from repro.workloads.partition import Partitioner, load_keys

        self.role = role
        self.rank = rank
        self.spec = spec
        self.run_dir = spec["run_dir"]
        config = smoke_cluster_config(
            n_shards=spec["shards"], n_replicas=spec["replicas"],
            seed=spec["seed"], chain=spec["chain"],
            fast_path=bool(spec.get("fast_path", False)))
        self.runtime = WorkerUdpRuntime(rank=rank, seed=config.seed)
        self.recorder = FlightRecorder(
            capacity=spec.get("recorder_capacity", DEFAULT_CAPACITY))
        # Disjoint causal-id space per process: ids assigned here never
        # alias ids assigned by any other rank, so the driver can merge
        # the per-process shards into one causally-consistent stream.
        self.tracer = self.runtime.attach_tracer(Tracer(
            recorder=self.recorder, retain=bool(spec.get("trace")),
            cause_base=rank * CAUSE_ID_STRIDE))
        partitioner = Partitioner(spec["shards"])
        self.cluster = Cluster(config, smoke_registry(), partitioner,
                               runtime=self.runtime)
        build_role(self.cluster, role, wire_eris(self.cluster),
                   replica_config(config))
        load_keys(self.cluster.stores, partitioner, spec["keys"])
        self.sampler: Optional[MetricsSampler] = None
        if spec.get("metrics"):
            self.cluster.instrument_metrics()
            self.sampler = MetricsSampler(
                self.runtime, self.cluster.metrics,
                interval=spec.get("metrics_interval", 0.05))

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

    # -- state -------------------------------------------------------------
    def state_reply(self) -> StateReply:
        from repro.harness.snapshot import snapshot_replica
        from repro.harness.udp_smoke import SMOKE_COUNTERS

        return StateReply(
            rank=self.rank, role=self.role,
            snapshots=tuple(snapshot_replica(r)
                            for replicas in self.cluster.replicas.values()
                            for r in replicas),
            counters=tuple((name, getattr(self.runtime, name))
                           for name in SMOKE_COUNTERS))

    def export_shards(self) -> StopAck:
        if self.spec.get("trace"):
            self.tracer.export(self._shard_path("trace"))
        if self.sampler is not None:
            self.sampler.stop()
            self.sampler.export(self._shard_path("metrics"))
        return StopAck(rank=self.rank)

    # -- the control-plane session ----------------------------------------
    async def serve(self, host: str, port: int) -> int:
        reader, writer = await asyncio.open_connection(host, port)
        write_frame(writer, WorkerHello(
            role=self.role, rank=self.rank, pid=os.getpid(),
            ports=tuple(sorted(self.runtime._ports.items()))))
        await writer.drain()

        start = await read_frame(reader)
        if not isinstance(start, ClusterStart):
            raise RuntimeError(f"expected ClusterStart, got {start!r}")
        self.runtime.install_port_map(start.host, dict(start.port_map))
        self.runtime.start()
        if self.cluster.controller is not None:
            self.cluster.controller.start()
        if self.sampler is not None:
            self.sampler.start()
        write_frame(writer, StartAck(rank=self.rank))
        await writer.drain()

        while True:
            message = await read_frame(reader)
            if isinstance(message, StateRequest):
                # Quiesce: the loop keeps delivering datagrams and
                # firing protocol timers while we sleep, so in-flight
                # syncs and FC traffic settle before the snapshot.
                await asyncio.sleep(message.drain)
                write_frame(writer, self.state_reply())
                await writer.drain()
            elif isinstance(message, ClusterStop):
                write_frame(writer, self.export_shards())
                await writer.drain()
                writer.close()
                return EXIT_OK
            else:
                raise RuntimeError(f"unexpected control frame "
                                   f"{message!r}")


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
