"""Asyncio + real UDP sockets: the loopback backend of the runtime.

The runtime owns one UDP socket bound to ``127.0.0.1:<ephemeral>``,
through which every endpoint it hosts receives and sends, as a §5.4
end-host server has one endpoint; a logical-address → port map plays
the role of DNS. Packets are serialized with the typed wire codec (:mod:`repro.runtime.codec`), cross the kernel's
loopback path, and are decoded on receive — so unlike the simulator
nothing is ever shared by reference, and the exact bytes a real
deployment would emit are what travels.

Groupcast is provided the way §5.4's end-host deployment provides it:
a sequencer endpoint (the unmodified :class:`~repro.net.sequencer.
MultiSequencer`) receives sequenced groupcasts addressed to it,
stamps them, and fans unicast copies back out. Routing and delivery
are the fabric core's (:class:`~repro.runtime.interface.Runtime`).

Backend properties (full matrix in DESIGN.md):

- **delivery** — whatever the kernel does on loopback: effectively
  reliable and FIFO, but UDP makes no promises and neither do we.
- **groupcast** — user-space sequencer endpoint over UDP.
- **clock** — the asyncio event loop's monotonic clock (real seconds).
  The loop polls with ``select(2)`` (µs timeouts; fds below 1024 only),
  so a timer wakes at its deadline plus about 0.1 ms of kernel slack,
  not at the next whole millisecond as under epoll.
- **cost** — real CPU only: the nodes' modelled service times,
  execution charges and sequencer traversal latency are not charged
  (``models_cost`` is False).
- **determinism** — none; scheduling is the OS's business here. The
  §6.7 safety checkers still must pass on every run.

The socket layer is one path, in process and per node alike:

- **receive** — one ``loop.add_reader`` callback reads up to
  ``_RECV_BATCH`` queued datagrams per wakeup, for every co-hosted
  node at once (eRPC's batched-receive observation, on commodity UDP),
  and delivers each to the endpoint its decoded ``dst`` names, in
  registration order and FIFO per endpoint (:meth:`_on_readable`). An
  unknown ``dst`` is a ``dead-destination`` drop. A node that reads
  only headers (``opaque_bodies``: the sequencing element)
  gets each groupcast with its body undecoded, which a fan-out then
  forwards as it is.
- **send** — every packet is encoded into one frame and leaves at once,
  as one datagram, through the same socket's non-blocking ``sendto``; a
  full kernel buffer (EAGAIN) or any other ``OSError`` is counted in
  ``send_errors`` and the datagram is lost, which Eris's drop machinery
  already tolerates.
- **per node** — given a process ``rank``, the runtime hosts
  ``_rt.<rank>``, resolves what it does not host through the
  launcher's port map, and broadcasts each sequencer route to every
  other process's ``_rt.<rank>`` as a :class:`RouteInstall`.
- **lifecycle** — the socket is bound when the runtime is built, so
  the kernel buffers early arrivals and build-time sends until
  :meth:`start` attaches the reader. :meth:`start` and :meth:`stop` are
  synchronous and never enter the event loop.

The runtime is single-threaded: drive it with
:meth:`AsyncioUdpRuntime.run_for` / :meth:`run_until` from ordinary
synchronous harness code. Protocol callbacks run inside the asyncio
loop exactly as they run inside the simulated event loop.
"""

from __future__ import annotations

import asyncio
import selectors
import socket
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.message import Address, Packet
from repro.runtime.codec import (
    CodecError,
    decode_datagram,
    encode_packet,
    encode_packet_tail,
    register_messages,
)
from repro.runtime.interface import Runtime, TimerHandle
from repro.sim.randomness import SplitRandom

#: Receive size: the maximum UDP payload fits with room to spare.
_RECV_BUFFER_BYTES = 65536

#: Datagrams one reader wakeup reads before delivering them. The
#: registration-order delivery keeps the control plane ahead of client
#: traffic only across what one drain sees, so this must exceed the
#: queue a closed loop builds (DESIGN.md, "One socket runtime", has the
#: runs that chose it).
_RECV_BATCH = 1024

#: Receive buffer asked of the kernel, which caps it at
#: ``net.core.rmem_max`` (DESIGN.md records the measurement).
_RCVBUF_BYTES = 4 << 20

#: ``select(2)`` watches only descriptors below ``FD_SETSIZE``.
_SELECT_FD_LIMIT = 1024

#: Bucket growth of the ``runtime.loop_lag`` histogram: a percentile
#: reads at most 9% above the true lag.
_LOOP_LAG_GROWTH = 2 ** 0.125


class _AsyncioTimer:
    """Restartable one-shot timer over the runtime's ``call_later``
    with the same semantics as the simulator's
    :class:`repro.sim.process.Timer`: ``start()`` (re)arms, discarding
    any previous deadline."""

    def __init__(self, runtime: "AsyncioUdpRuntime", delay: float,
                 fn: Callable[..., Any], *args: Any):
        self._runtime = runtime
        self.delay = delay
        self._fn = fn
        self._args = args
        self._handle: Optional[asyncio.TimerHandle] = None

    def start(self, delay: Optional[float] = None) -> None:
        d = self.delay if delay is None else delay
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._runtime.call_later(d, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def restart(self, delay: Optional[float] = None) -> None:
        self.start(delay)

    @property
    def active(self) -> bool:
        return self._handle is not None and not self._handle.cancelled()

    def _fire(self) -> None:
        self._handle = None
        self._fn(*self._args)


class _AsyncioPeriodic:
    """Periodic timer matching :class:`repro.sim.process.PeriodicTimer`."""

    def __init__(self, runtime: "AsyncioUdpRuntime", period: float,
                 fn: Callable[..., Any], *args: Any):
        self._runtime = runtime
        self.period = period
        self._fn = fn
        self._args = args
        self._handle: Optional[asyncio.TimerHandle] = None
        self._stopped = True

    def start(self, initial_delay: Optional[float] = None) -> None:
        self.stop()
        self._stopped = False
        delay = self.period if initial_delay is None else initial_delay
        self._handle = self._runtime.call_later(delay, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        return not self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = self._runtime.call_later(self.period, self._fire)
        self._fn(*self._args)


@dataclass(frozen=True)
class RouteInstall:
    """One process's runtime -> every other process's runtime: point
    the sequenced-groupcast route at ``address`` (None = black hole,
    used while no sequencer is routable)."""

    address: Optional[Address]


register_messages([RouteInstall])


def control_address(rank: int) -> Address:
    """The runtime-control endpoint address of process ``rank``."""
    return f"_rt.{rank}"


class _RuntimeControl(Node):
    """Per-process endpoint for runtime-level control messages. It is
    a real endpoint on the process's socket, so routing state
    propagates over exactly the same data plane the protocol uses."""

    def __init__(self, runtime: "AsyncioUdpRuntime", rank: int):
        super().__init__(control_address(rank), runtime)

    def on_RouteInstall(self, src: Address, msg: RouteInstall,
                        packet: Packet) -> None:
        self.runtime._install_route_local(msg.address)


class AsyncioUdpRuntime(Runtime):
    """Runtime over real UDP sockets on loopback, driven by asyncio;
    with a ``rank``, one process's slice of a per-node cluster."""

    backend = "asyncio-udp"
    component = "udp"
    models_cost = False

    def __init__(self, seed: int = 0, host: str = "127.0.0.1",
                 rank: Optional[int] = None):
        if rank is not None and rank < 0:
            raise NetworkError(f"rank must be >= 0: {rank}")
        super().__init__()
        self.host = host
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if sock.fileno() >= _SELECT_FD_LIMIT:
            sock.close()
            raise NetworkError(
                f"the runtime's socket needs an fd below select(2)'s "
                f"limit of {_SELECT_FD_LIMIT}")
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
        sock.bind((host, 0))
        self._sock = sock
        self._port: int = sock.getsockname()[1]
        self._local = (host, self._port)
        self.aloop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.base_rng = SplitRandom(seed)
        #: The local addresses whose node has ``opaque_bodies``, and the
        #: delivery order.
        self._opaque: set[Address] = set()
        self._order: dict[Address, int] = {}
        #: Remote address -> (host, port), from the launcher's port map;
        #: local addresses take precedence.
        self._remote: dict[Address, tuple[str, int]] = {}
        #: Runtime-control endpoints of the other processes: where a
        #: route installed here is broadcast.
        self._peer_controls: list[Address] = []
        self._started = False
        self._closed = False
        self.route_installs = 0
        self.decode_errors = 0
        #: Encoded packet frames handed to the send path, one per
        #: packet.
        self.frames_sent = 0
        #: Datagrams written to the socket. One datagram carries one
        #: frame, so this always equals ``frames_sent``.
        self.datagrams_sent = 0
        #: ``sendto`` failures: a full kernel buffer (EAGAIN) or any
        #: other OSError. The datagram is lost, as UDP allows.
        self.send_errors = 0
        #: Receive-side OSErrors other than EAGAIN.
        self.socket_errors = 0
        #: Reader callback invocations vs datagrams drained: the ratio
        #: is the syscall amortization the drained reader buys.
        self.recv_wakeups = 0
        self.recv_datagrams = 0
        # Health instrumentation, attached by instrument(); each hot
        # path pays one ``is not None`` check while unattached.
        self._hist_datagram_bytes = None
        self._hist_loop_lag = None
        self._lag_probe_interval = 0.005
        self._lag_probe_expected: Optional[float] = None
        self._control = (_RuntimeControl(self, rank)
                         if rank is not None else None)

    # -- clock / scheduling / randomness -----------------------------------
    @property
    def now(self) -> float:
        return self.aloop.time()

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self.aloop.call_later(max(0.0, delay), fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any):
        return self.aloop.call_at(time, fn, *args)

    def timer(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> TimerHandle:
        return _AsyncioTimer(self, delay, fn, *args)

    def periodic(self, period: float, fn: Callable[..., Any],
                 *args: Any) -> TimerHandle:
        return _AsyncioPeriodic(self, period, fn, *args)

    def rng_stream(self, name: str) -> SplitRandom:
        return self.base_rng.split(name)

    # -- registration and name resolution ----------------------------------
    def register(self, node: Any) -> None:
        super().register(node)
        address = node.address
        self._order[address] = len(self._order)
        if getattr(node, "opaque_bodies", False):
            self._opaque.add(address)

    def unregister(self, address: Address) -> None:
        super().unregister(address)
        self._order.pop(address, None)
        self._opaque.discard(address)

    def install_port_map(self, host: str,
                         port_map: dict[Address, int]) -> None:
        """Adopt the launcher's merged address plan. Local endpoints
        stay on this process's socket; everything else resolves to a
        remote socket address from here on."""
        self._peer_controls = []
        for address, port in port_map.items():
            if address not in self._endpoints:
                self._remote[address] = (host, port)
            if address.startswith("_rt.") \
                    and address != self._control.address:
                self._peer_controls.append(address)

    def _resolve(self, dst: Optional[Address]) -> Optional[tuple[str, int]]:
        """Logical address → socket address, or ``None`` if unknown:
        the local endpoints first, then the launcher's port map."""
        if dst in self._endpoints:
            return self._local
        return self._remote.get(dst)

    def _routable(self, address: Address) -> bool:
        return self._resolve(address) is not None

    # -- routing (exercised by the SDN controller) -------------------------
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

    # -- sending -----------------------------------------------------------
    def _fanout_tail(self, packet: Packet) -> bytes:
        return encode_packet_tail(packet)

    def _transmit(self, packet: Packet, tail: Optional[bytes] = None) -> None:
        addr = self._resolve(packet.dst)
        if addr is None:
            self._drop(packet, "dead-destination")
            return
        data = encode_packet(packet, tail)
        if self.tracer is not None:
            self.tracer.packet_tx(packet)
        self.frames_sent += 1
        self._sendto(data, addr)

    def _sendto(self, data: bytes, addr: tuple[str, int]) -> None:
        """Single datagram egress point: accounting, size histogram,
        and error counting all live here."""
        self.datagrams_sent += 1
        if self._hist_datagram_bytes is not None:
            self._hist_datagram_bytes.record(len(data))
        try:
            self._sock.sendto(data, addr)
        except OSError:
            # EAGAIN included: UDP gives no delivery promise, and
            # Eris's §6.3/§6.5 drop machinery recovers lost stamps.
            self.send_errors += 1

    # -- receiving ---------------------------------------------------------
    def _on_readable(self) -> None:
        """Read what is queued, up to ``_RECV_BATCH`` datagrams, then
        deliver it in registration order, FIFO per endpoint. A cluster
        registers its sequencers and controller before its replicas and
        clients, so pings and stamps do not wait behind client traffic,
        and what the deliveries send waits for the next wakeup, so a
        drain cannot feed itself while timers wait."""
        self.recv_wakeups += 1
        recv = self._sock.recv
        packets = []
        for _ in range(_RECV_BATCH):
            try:
                data = recv(_RECV_BUFFER_BYTES)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.socket_errors += 1
                break
            self.recv_datagrams += 1
            try:
                packets.append(decode_datagram(data, self._opaque))
            except CodecError:
                self.decode_errors += 1
        order = self._order
        unknown = len(order)
        packets.sort(key=lambda packet: order.get(packet.dst, unknown))
        arrive = self._arrive
        for packet in packets:
            arrive(packet)

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        """Register this runtime's health metrics with ``registry``.

        Counter-style plain ints are exposed as monotone pull gauges
        (zero hot-path cost); two push histograms capture the shape
        eRPC says matters on commodity UDP — datagram sizes and
        event-loop lag (scheduled-vs-actual callback latency, the
        real-transport analog of simulated-time exactness).
        """
        super().instrument(registry)
        for counter in ("decode_errors", "frames_sent", "datagrams_sent",
                        "send_errors", "socket_errors", "recv_wakeups",
                        "recv_datagrams", "route_installs"):
            registry.gauge("udp", counter,
                           lambda counter=counter: getattr(self, counter),
                           monotone=True)
        registry.gauge("udp", "remote_addresses",
                       lambda: len(self._remote))
        # Datagrams are 64 B .. 64 KB: a coarser base bucket keeps the
        # histogram readable in that range.
        self._hist_datagram_bytes = registry.histogram(
            "udp", "datagram_bytes", scale=64.0)
        self._hist_loop_lag = registry.histogram(
            "runtime", "loop_lag", growth=_LOOP_LAG_GROWTH)
        if self._started and not self._closed:
            self._arm_lag_probe()

    def _arm_lag_probe(self) -> None:
        self._lag_probe_expected = self.now + self._lag_probe_interval
        self.aloop.call_later(self._lag_probe_interval, self._lag_probe_fire)

    def _lag_probe_fire(self) -> None:
        if self._closed or self._hist_loop_lag is None:
            return
        expected = self._lag_probe_expected
        if expected is not None:
            self._hist_loop_lag.record(max(0.0, self.now - expected))
        self._arm_lag_probe()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Attach the socket's reader. Never enters the event loop, so
        it is callable both from harness code and from inside a running
        coroutine."""
        if self._started:
            return
        self._started = True
        self.aloop.add_reader(self._sock.fileno(), self._on_readable)
        if self._hist_loop_lag is not None:
            self._arm_lag_probe()

    def stop(self) -> None:
        """Close the socket and the event loop (irreversible)."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            self.aloop.remove_reader(self._sock.fileno())
        self._sock.close()
        if not self.aloop.is_running():
            self.aloop.close()

    # -- driving (synchronous harness surface) -----------------------------
    def run_for(self, duration: float) -> None:
        """Run the loop for ``duration`` real seconds."""
        self.aloop.run_until_complete(asyncio.sleep(duration))

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  poll: float = 0.002) -> bool:
        """Run the loop until ``predicate()`` holds (polled every
        ``poll`` seconds) or ``timeout`` elapses; returns whether the
        predicate held."""

        async def _wait() -> bool:
            deadline = self.aloop.time() + timeout
            while self.aloop.time() < deadline:
                if predicate():
                    return True
                await asyncio.sleep(poll)
            return predicate()

        return self.aloop.run_until_complete(_wait())
