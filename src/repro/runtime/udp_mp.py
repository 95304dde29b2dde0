"""Multi-process variant of the asyncio-UDP runtime.

One :class:`WorkerUdpRuntime` per OS process. It hosts only the
endpoints of its own role (one replica, one sequencer, the controller,
the FC, or the driver's clients) and resolves every other protocol
address through a **remote port map** distributed by the launcher at
bootstrap — no process ever holds a reference to another process's
protocol objects, so every interaction that the single-process runtime
could have satisfied in memory is forced onto the wire.

Differences from the parent (single-process) runtime:

- **receive fast path** — sockets are serviced by ``loop.add_reader``
  callbacks that drain each socket to EAGAIN with ``recvmsg_into`` on
  one preallocated buffer: one loop wakeup amortizes over every
  datagram the kernel has queued, and the receive path allocates only
  the exact-size copy handed to the decoder (eRPC's batched-socket
  observation, on commodity UDP).
- **raw-socket egress** — sends go through a plain non-blocking
  ``socket.sendto`` instead of an asyncio DatagramTransport. The
  runtime owns its file descriptors outright (no transport-ownership
  close hazard), and the per-destination egress queues of the parent's
  ``batch_frames`` path flush straight into EWCB datagrams.
- **coalesced timers** — with ``timer_slack`` > 0, relative timer
  deadlines are quantized onto a slack-sized grid so nearby protocol
  timers (sync, ping, retry) share loop wakeups. Slack only ever
  *delays* a timer, never fires it early, so protocol timeouts remain
  conservative.
- **synchronous lifecycle** — :meth:`start` never enters the event
  loop, so a worker can bring the transport up from inside a running
  coroutine (the control-plane handshake) without nesting
  ``run_until_complete``.

Routing state is wire-distributed too: the controller's
``install_sequencer_route`` becomes a :class:`RouteInstall` broadcast
to every process's ``_rt.<rank>`` runtime-control endpoint, because a
groupcast is routed to the sequencer by the *sender's* runtime and the
senders live in other processes.
"""

from __future__ import annotations

import math
import socket
from typing import Any, Callable, Optional

from dataclasses import dataclass

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.message import Address, Packet
from repro.runtime.asyncio_udp import (
    AsyncioUdpRuntime,
    _AsyncioPeriodic,
    _AsyncioTimer,
)
from repro.runtime.codec import register_messages

#: Receive buffer: the maximum UDP payload fits with room to spare.
_RECV_BUFFER_BYTES = 65536

#: Datagrams drained per reader wakeup before yielding back to the
#: loop, so one chatty peer cannot starve timers and the control plane.
_RECV_BATCH = 128


@dataclass(frozen=True)
class RouteInstall:
    """Controller-process runtime -> every other process's runtime:
    point the sequenced-groupcast route at ``address`` (None = black
    hole, used while no sequencer is routable)."""

    address: Optional[Address]


register_messages([RouteInstall])


def control_address(rank: int) -> Address:
    """The runtime-control endpoint address of process ``rank``."""
    return f"_rt.{rank}"


class _RuntimeControl(Node):
    """Per-process endpoint for runtime-level control messages. It is
    a real endpoint with a real socket, so routing state propagates
    over exactly the same data plane the protocol uses."""

    def __init__(self, runtime: "WorkerUdpRuntime", rank: int):
        super().__init__(control_address(rank), runtime)

    def on_RouteInstall(self, src: Address, msg: RouteInstall,
                        packet: Packet) -> None:
        self.runtime._install_route_local(msg.address)


class _TimerLoopShim:
    """Loop stand-in handed to the parent's timer classes so their
    rearm path goes through the runtime's (slack-quantizing)
    ``call_later`` instead of raw ``loop.call_later``."""

    __slots__ = ("_runtime",)

    def __init__(self, runtime: "WorkerUdpRuntime"):
        self._runtime = runtime

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any):
        return self._runtime.call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any):
        return self._runtime.aloop.call_at(when, fn, *args)

    def time(self) -> float:
        return self._runtime.aloop.time()


class WorkerUdpRuntime(AsyncioUdpRuntime):
    """One process's slice of a multi-process UDP cluster."""

    backend = "asyncio-udp-mp"

    def __init__(self, rank: int, seed: int = 0, host: str = "127.0.0.1",
                 batch_frames: int = 1, timer_slack: float = 0.0):
        super().__init__(seed=seed, host=host, batch_frames=batch_frames)
        if rank < 0:
            raise NetworkError(f"rank must be >= 0: {rank}")
        if timer_slack < 0:
            raise NetworkError(f"timer_slack must be >= 0: {timer_slack}")
        self.rank = rank
        self.timer_slack = timer_slack
        #: Remote protocol address -> (host, port), installed from the
        #: launcher's merged port map. Local addresses stay in
        #: ``_ports`` and take precedence.
        self._remote: dict[Address, tuple[str, int]] = {}
        #: Runtime-control endpoints of the *other* processes (route
        #: broadcast fan-out list).
        self._peer_controls: list[Address] = []
        self._egress_sock: Optional[socket.socket] = None
        self._recv_buf = bytearray(_RECV_BUFFER_BYTES)
        self._timer_shim = _TimerLoopShim(self)
        #: Reader callback invocations vs datagrams drained: the ratio
        #: is the syscall amortization the fast path exists to buy.
        self.recv_wakeups = 0
        self.recv_datagrams = 0
        self.route_installs = 0
        self._control = _RuntimeControl(self, rank)

    # -- name resolution ---------------------------------------------------
    def install_port_map(self, host: str,
                         port_map: dict[Address, int]) -> None:
        """Adopt the launcher's merged address plan. Local endpoints
        keep their own sockets; everything else resolves to a remote
        socket address from here on."""
        self._peer_controls = []
        for address, port in port_map.items():
            if address not in self._ports:
                self._remote[address] = (host, port)
            if address.startswith("_rt.") \
                    and address != self._control.address:
                self._peer_controls.append(address)

    def _resolve(self, dst: Optional[Address]) -> Optional[tuple[str, int]]:
        port = self._ports.get(dst)
        if port is not None:
            return (self.host, port)
        return self._remote.get(dst)

    # -- routing -----------------------------------------------------------
    def _install_route_local(self, address: Optional[Address]) -> None:
        self.route_installs += 1
        self.sequencer_address = address

    def install_sequencer_route(self, address: Optional[Address]) -> None:
        """Install locally and broadcast to every peer process: the
        route is consulted by whichever runtime *sends* a sequenced
        groupcast, and senders are everywhere."""
        self._install_route_local(address)
        for peer in self._peer_controls:
            self.send(Packet(src=self._control.address, dst=peer,
                             payload=RouteInstall(address)))

    # -- timers (coalesced) ------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any):
        slack = self.timer_slack
        if slack <= 0.0:
            return super().call_later(delay, fn, *args)
        # Quantize the absolute deadline up onto the slack grid: timers
        # due within the same slack window fire in one loop wakeup.
        deadline = self.aloop.time() + max(0.0, delay)
        return self.aloop.call_at(math.ceil(deadline / slack) * slack,
                                  fn, *args)

    def timer(self, delay: float, fn: Callable[..., Any], *args: Any):
        return _AsyncioTimer(self._timer_shim, delay, fn, *args)

    def periodic(self, period: float, fn: Callable[..., Any], *args: Any):
        return _AsyncioPeriodic(self._timer_shim, period, fn, *args)

    # -- egress ------------------------------------------------------------
    def _egress_up(self) -> bool:
        return self._egress_sock is not None

    def _sendto(self, data: bytes, addr: tuple[str, int]) -> None:
        self.datagrams_sent += 1
        if self._hist_datagram_bytes is not None:
            self._hist_datagram_bytes.record(len(data))
        try:
            self._egress_sock.sendto(data, addr)
        except BlockingIOError:
            # Kernel send buffer full: UDP gives no delivery promise
            # anyway, and Eris's §6.3/§6.5 drop machinery recovers lost
            # stamps, so counting the loss is the honest response.
            self.send_errors += 1
        except OSError:
            self.send_errors += 1

    # -- ingress -----------------------------------------------------------
    def _attach_reader(self, address: Address, sock: socket.socket) -> None:
        self.aloop.add_reader(sock.fileno(), self._on_readable,
                              address, sock)

    def _on_readable(self, address: Address, sock: socket.socket) -> None:
        """Drain the socket: one wakeup, many datagrams, zero receive
        allocations beyond the exact-size copy handed to the decoder."""
        self.recv_wakeups += 1
        buf = self._recv_buf
        for _ in range(_RECV_BATCH):
            try:
                nbytes, _ancdata, _flags, _addr = sock.recvmsg_into([buf])
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.socket_errors += 1
                return
            self.recv_datagrams += 1
            self._on_datagram(address, bytes(buf[:nbytes]))

    # -- registration ------------------------------------------------------
    def register(self, node: Any) -> None:
        address = node.address
        if address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {address!r}")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.bind((self.host, 0))
        self._endpoints[address] = node
        self._socks[address] = sock
        self._ports[address] = sock.getsockname()[1]
        if self._started:
            self._attach_reader(address, sock)

    def unregister(self, address: Address) -> None:
        self._endpoints.pop(address, None)
        self._ports.pop(address, None)
        sock = self._socks.pop(address, None)
        if sock is not None:
            if self._started and not self._closed:
                try:
                    self.aloop.remove_reader(sock.fileno())
                except (OSError, ValueError):
                    pass
            sock.close()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Attach readers and open the egress socket. Fully
        synchronous: never enters the event loop, so it is callable
        both from harness code and from inside a running coroutine."""
        if self._started:
            return
        self._started = True
        for address, sock in self._socks.items():
            self._attach_reader(address, sock)
        egress = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        egress.setblocking(False)
        egress.bind((self.host, 0))
        self._egress_sock = egress
        pending, self._pending_sends = self._pending_sends, []
        for dst, data in pending:
            addr = self._resolve(dst)
            if addr is not None:
                self.frames_sent += 1
                self._sendto(data, addr)
        if self._hist_loop_lag is not None:
            self._arm_lag_probe()

    def stop(self) -> None:
        """Detach readers and close every socket this runtime owns
        (there are no transports, hence no ownership hazard)."""
        if self._closed:
            return
        self._closed = True
        self._frame_queues.clear()
        for sock in self._socks.values():
            if self._started:
                try:
                    self.aloop.remove_reader(sock.fileno())
                except (OSError, ValueError):
                    pass
            sock.close()
        self._socks.clear()
        if self._egress_sock is not None:
            self._egress_sock.close()
            self._egress_sock = None
        if not self.aloop.is_running():
            self.aloop.close()

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        super().instrument(registry)
        registry.gauge("udp", "recv_wakeups",
                       lambda: self.recv_wakeups, monotone=True)
        registry.gauge("udp", "recv_datagrams",
                       lambda: self.recv_datagrams, monotone=True)
        registry.gauge("udp", "route_installs",
                       lambda: self.route_installs, monotone=True)
        registry.gauge("udp", "remote_addresses",
                       lambda: len(self._remote))
