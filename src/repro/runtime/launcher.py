"""Process-per-node launcher and its control-plane protocol.

The :class:`ClusterLauncher` turns a :class:`~repro.harness.cluster.
ClusterConfig` into a real multi-process deployment: one OS process per
role (``python -m repro node --role ...``), supervised from the driver
process. Coordination runs over a tiny TCP control plane — length-
prefixed EWC3 frames from the same ``encode_message`` the data plane
uses, so the control protocol gets the codec's validation for free.
The launching process and every worker load the same message modules
(this one and the worker runtime), so both ends derive the same
interned type table.

Bootstrap is a two-phase port-map exchange, because UDP ports are
ephemeral (no static assignment could survive collisions across
processes):

1. every worker binds its runtime's one socket, connects back to the
   launcher, and reports its role's ``address -> port`` plan in
   :class:`WorkerHello` before any protocol object exists;
2. the launcher merges all hellos with the driver's own local ports
   and broadcasts the complete map in :class:`ClusterStart`; workers
   build their role, install the map, bring their transport up, and
   ack. No protocol timer runs before every process can be reached.

After the workload, :class:`ClusterStop` asks every worker to drain,
export its trace/metrics shards, and answer a :class:`StopAck` that
carries its per-replica :class:`~repro.core.log.ReplicaSnapshot`
payloads (the state behind the distributed §6.7 checkers) and runtime
counters before it exits. Supervision is poll-based: a worker that
exits before it was told to is a failure, and the launcher tears the
rest down and raises.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import struct
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.log import ReplicaSnapshot
from repro.errors import ExperimentError
from repro.runtime.codec import (
    CodecError,
    decode_message,
    encode_message,
    register_messages,
)

#: Control frames above this size are treated as protocol corruption
#: (a length prefix read out of sync would otherwise allocate wildly).
_MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


# -- control-plane messages ------------------------------------------------

@dataclass(frozen=True)
class WorkerHello:
    """Worker -> launcher, immediately after binding its socket."""

    role: str
    rank: int
    pid: int
    #: (protocol address, bound UDP port) for every address the role
    #: hosts, plus the runtime-control endpoint ``_rt.<rank>``.
    ports: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ClusterStart:
    """Launcher -> every worker: the complete merged port map."""

    host: str
    port_map: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class StartAck:
    rank: int


@dataclass(frozen=True)
class ClusterStop:
    """Launcher -> worker: drain for ``drain`` seconds, report, exit."""

    drain: float


@dataclass(frozen=True)
class StopAck:
    """Worker -> launcher: end-of-run state, shards exported, exiting."""

    rank: int
    role: str
    snapshots: tuple[ReplicaSnapshot, ...]
    #: Runtime counters (name, value), aggregated into the smoke result.
    counters: tuple[tuple[str, int], ...]


register_messages([WorkerHello, ClusterStart, StartAck, ClusterStop,
                   StopAck])


# -- framing ---------------------------------------------------------------

def write_frame(writer: asyncio.StreamWriter, message: Any) -> None:
    """Queue one length-prefixed control frame."""
    data = encode_message(message)
    writer.write(_LEN.pack(len(data)) + data)


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one control frame; raises ``IncompleteReadError`` on EOF."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise CodecError(f"control frame of {length} bytes exceeds "
                         f"{_MAX_FRAME_BYTES}")
    return decode_message(await reader.readexactly(length))


# -- the launcher ----------------------------------------------------------

@dataclass
class _Worker:
    rank: int
    role: str
    proc: subprocess.Popen
    log_path: str
    hello: Optional[WorkerHello] = None
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    stopped: bool = False

    @property
    def recorder_path(self) -> str:
        return os.path.join(os.path.dirname(self.log_path),
                            f"recorder-{self.rank}.jsonl")


class ClusterLauncher:
    """Spawns, coordinates, and supervises one worker process per role.

    All coroutine methods must run on the driver runtime's event loop
    (``runtime.aloop``) so control-plane I/O interleaves with the
    driver's own UDP traffic on a single thread.
    """

    def __init__(self, run_dir: str, host: str = "127.0.0.1"):
        self.run_dir = run_dir
        self.host = host
        self.workers: dict[int, _Worker] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        os.makedirs(run_dir, exist_ok=True)

    # -- start -------------------------------------------------------------
    async def start(self, roles: list[str], spec: dict,
                    driver_ports: dict[str, int],
                    timeout: float = 30.0) -> dict[str, int]:
        """Spawn one worker per role, wait for every hello, and
        broadcast the merged port map — every worker's reported ports
        plus the driver's own — in :class:`ClusterStart`. Returns the
        map once every worker has built its role and acked."""
        self._server = await asyncio.start_server(
            self._on_connect, self.host, 0)
        self._spawn(roles, spec, self._server.sockets[0].getsockname()[1])
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while any(w.hello is None for w in self.workers.values()):
            self.check_children()
            if loop.time() > deadline:
                missing = [w.role for w in self.workers.values()
                           if w.hello is None]
                raise ExperimentError(
                    f"workers never reported in: {missing} "
                    f"(logs in {self.run_dir})")
            await asyncio.sleep(0.01)
        port_map = dict(driver_ports)
        for worker in self.workers.values():
            for address, port in worker.hello.ports:
                if address in port_map:
                    raise ExperimentError(
                        f"address {address!r} bound by two processes")
                port_map[address] = port
        start = ClusterStart(host=self.host,
                             port_map=tuple(sorted(port_map.items())))
        for worker in self.workers.values():
            write_frame(worker.writer, start)
            await worker.writer.drain()
        for worker in self.workers.values():
            ack = await asyncio.wait_for(read_frame(worker.reader), timeout)
            if not isinstance(ack, StartAck) or ack.rank != worker.rank:
                raise ExperimentError(
                    f"worker {worker.role} sent {ack!r} instead of a "
                    f"start ack")
        return port_map

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            hello = await read_frame(reader)
        except (asyncio.IncompleteReadError, CodecError, OSError):
            hello = None
        worker = (self.workers.get(hello.rank)
                  if isinstance(hello, WorkerHello) else None)
        if worker is None or worker.hello is not None:
            writer.close()
            return
        worker.hello, worker.reader, worker.writer = hello, reader, writer

    def _spawn(self, roles: list[str], spec: dict, control_port: int) -> None:
        """One worker process per role; ranks start at 1 (the driver is
        rank 0). Worker stdout/stderr go to per-rank log files in the
        run directory so a post-mortem can see every process's view."""
        import repro
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
        for rank, role in enumerate(roles, start=1):
            log_path = os.path.join(
                self.run_dir, f"worker-{rank}-{role.replace(':', '.')}.log")
            log = open(log_path, "w")
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "node",
                     "--role", role, "--rank", str(rank),
                     "--control-host", self.host,
                     "--control-port", str(control_port),
                     "--spec", json.dumps(spec)],
                    stdout=log, stderr=subprocess.STDOUT, env=env)
            finally:
                log.close()
            self.workers[rank] = _Worker(rank=rank, role=role, proc=proc,
                                         log_path=log_path)

    # -- supervision -------------------------------------------------------
    def check_children(self) -> None:
        """Raise if any worker exited before it was told to stop. The
        raising path names the dead worker's log and recorder-dump
        locations: the child dumps its flight-recorder ring on the way
        down (SIGTERM / crash handler), which is the evidence a
        post-mortem starts from."""
        for worker in self.workers.values():
            code = worker.proc.poll()
            if code is not None and not worker.stopped:
                self.emergency_teardown()
                dump = worker.recorder_path
                dump_note = (f"; recorder dump: {dump}"
                             if os.path.exists(dump) else "")
                raise ExperimentError(
                    f"worker {worker.role} (rank {worker.rank}, pid "
                    f"{worker.proc.pid}) exited with code {code} "
                    f"mid-run; log: {worker.log_path}{dump_note}")

    # -- shutdown ----------------------------------------------------------
    async def shutdown(self, drain: float,
                       timeout: float = 15.0) -> list[StopAck]:
        """Graceful stop: every worker drains for ``drain`` seconds,
        exports its shards, answers a :class:`StopAck` with its end-of-
        run state, and exits 0. The driver's own loop keeps running
        while it awaits, so its in-flight client traffic drains over
        the same interval."""
        for worker in self.workers.values():
            worker.stopped = True
            write_frame(worker.writer, ClusterStop(drain=drain))
            await worker.writer.drain()
        acks = []
        for worker in self.workers.values():
            try:
                ack = await asyncio.wait_for(read_frame(worker.reader),
                                             timeout + drain)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    CodecError, OSError) as exc:
                ack = exc
            if not isinstance(ack, StopAck) or ack.rank != worker.rank:
                raise ExperimentError(
                    f"worker {worker.role} sent {ack!r} instead of a "
                    f"stop ack; log: {worker.log_path}")
            acks.append(ack)
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        for worker in self.workers.values():
            while worker.proc.poll() is None and loop.time() < deadline:
                await asyncio.sleep(0.01)
            if worker.proc.poll() is None:
                worker.proc.kill()
                worker.proc.wait()
        self._close_server()
        return acks

    def emergency_teardown(self) -> None:
        """Non-graceful teardown after a failure: SIGTERM everyone (so
        the survivors still dump their recorder rings), then SIGKILL
        stragglers. Synchronous on purpose — callable from except/
        finally blocks outside the event loop."""
        for worker in self.workers.values():
            worker.stopped = True
            if worker.proc.poll() is None:
                try:
                    worker.proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        for worker in self.workers.values():
            try:
                worker.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()
        self._close_server()

    def _close_server(self) -> None:
        for worker in self.workers.values():
            if worker.writer is not None:
                worker.writer.close()
                worker.writer = None
        if self._server is not None:
            self._server.close()
            self._server = None
