"""Asyncio + real UDP sockets: the loopback backend of the runtime.

Every registered endpoint gets its own UDP socket bound to
``127.0.0.1:<ephemeral>``; a logical-address → port map plays the role
of DNS. Packets are serialized with the typed wire codec
(:mod:`repro.runtime.codec`), cross the kernel's loopback path, and are
decoded on receive — so unlike the simulator nothing is ever shared by
reference, and the exact bytes a real deployment would emit are what
travels.

Groupcast is provided the way §5.4's end-host deployment provides it:
a sequencer endpoint (the unmodified :class:`~repro.net.sequencer.
MultiSequencer`) receives sequenced groupcasts over its own socket,
stamps them, and fans unicast copies back out. The SDN controller's
"route installation" becomes an entry in this runtime's routing state.

Backend properties (full matrix in DESIGN.md):

- **delivery** — whatever the kernel does on loopback: effectively
  reliable and FIFO, but UDP makes no promises and neither do we.
- **groupcast** — user-space sequencer endpoint over UDP.
- **clock** — the asyncio event loop's monotonic clock (real seconds).
- **determinism** — none; scheduling is the OS's business here. The
  §6.7 safety checkers still must pass on every run.

The socket layer is one path, shared with the multi-process subclass
(:mod:`repro.runtime.udp_mp`):

- **receive** — each endpoint socket is serviced by a
  ``loop.add_reader`` callback that drains up to 128 datagrams per
  wakeup with ``sock.recv``, so one loop wakeup amortizes over every
  datagram the kernel has queued (eRPC's batched-receive observation,
  on commodity UDP).
- **send** — every datagram leaves through one plain non-blocking
  ``socket.sendto``; a full kernel buffer (EAGAIN) or any other
  ``OSError`` is counted in ``send_errors`` and the datagram is lost,
  which Eris's drop machinery already tolerates.
- **lifecycle** — :meth:`start` and :meth:`stop` are synchronous and
  never enter the event loop; the runtime owns every file descriptor
  outright and closes each exactly once.

The runtime is single-threaded: drive it with
:meth:`AsyncioUdpRuntime.run_for` / :meth:`run_until` from ordinary
synchronous harness code. Protocol callbacks run inside the asyncio
loop exactly as they run inside the simulated event loop.

One performance knob, off by default: ``batch_frames=N`` packs up to
N frames per datagram in a length-prefixed EWCB container, flushed once
per event-loop iteration, so a sequencer wakeup's burst of stamped
copies (or a replica's coalesced replies) shares syscalls and headers.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.groupcast import GroupMembership
from repro.net.message import Address, Packet
from repro.runtime.codec import (
    MAX_DATAGRAM_FRAMES,
    CodecError,
    decode_datagram,
    encode_datagram,
    encode_packet,
)
from repro.runtime.interface import Runtime, TimerHandle
from repro.sim.randomness import SplitRandom

#: Stay under the 65,507-byte UDP payload ceiling with headroom: a
#: batch flushes early once its frames would exceed this many bytes.
_MAX_DATAGRAM_BYTES = 60_000

#: Receive size: the maximum UDP payload fits with room to spare.
_RECV_BUFFER_BYTES = 65536

#: Datagrams drained per reader wakeup before yielding back to the
#: loop, so one chatty peer cannot starve timers and the control plane.
_RECV_BATCH = 128


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


class AsyncioUdpRuntime(Runtime):
    """Runtime over real UDP sockets on loopback, driven by asyncio."""

    backend = "asyncio-udp"

    def __init__(self, seed: int = 0, host: str = "127.0.0.1",
                 batch_frames: int = 1):
        super().__init__()
        self.host = host
        if not 1 <= batch_frames <= MAX_DATAGRAM_FRAMES:
            raise NetworkError(
                f"batch_frames must be in [1, {MAX_DATAGRAM_FRAMES}]: "
                f"{batch_frames}")
        #: Frames packed per datagram (1 = one packet per datagram, the
        #: historical behaviour; >1 enables EWCB containers).
        self.batch_frames = batch_frames
        self.aloop = asyncio.new_event_loop()
        self.base_rng = SplitRandom(seed)
        self.groups = GroupMembership()
        self.sequencer_address: Optional[Address] = None
        self._endpoints: dict[Address, Any] = {}
        self._socks: dict[Address, socket.socket] = {}
        self._ports: dict[Address, int] = {}
        self._egress: Optional[socket.socket] = None
        self._pending_sends: list[tuple[Address, bytes]] = []
        # Per-destination frame queues (keyed by resolved socket
        # address), drained by one call_soon callback per loop
        # iteration so every frame queued within a callback burst
        # shares a datagram (batch_frames > 1 only).
        self._frame_queues: dict[tuple[str, int], list[bytes]] = {}
        self._flush_scheduled = False
        self._started = False
        self._closed = False
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.decode_errors = 0
        #: Per-recipient copies made by fan_out. Mirrors the simulated
        #: fabric's counter of the same name: ``packets_sent`` counts
        #: protocol-level sends, fan-out multiplication is accounted
        #: here — previously these copies were invisible to both.
        self.fanout_copies = 0
        #: Encoded packet frames handed to the send path (each frame is
        #: one packet; with batching several frames share a datagram).
        self.frames_sent = 0
        #: Actual datagrams written to the socket.
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
        self.tracer = None
        # Health instrumentation, attached by instrument(); each hot
        # path pays one ``is not None`` check while unattached.
        self._hist_datagram_bytes = None
        self._hist_batch_depth = None
        self._hist_loop_lag = None
        self._lag_probe_interval = 0.005
        self._lag_probe_expected: Optional[float] = None

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

    # -- registration ------------------------------------------------------
    def register(self, node: Any) -> None:
        address = node.address
        if address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {address!r}")
        # Bind now so the logical address resolves (and the kernel
        # buffers early arrivals) before the reader is attached.
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
            self._close_socket(sock)

    def endpoint(self, address: Address) -> Any:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def has_endpoint(self, address: Address) -> bool:
        return address in self._endpoints

    # -- routing (exercised by the SDN controller) -------------------------
    def install_sequencer_route(self, address: Optional[Address]) -> None:
        self.sequencer_address = address

    # -- sending -----------------------------------------------------------
    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.packet_send(packet)
        if packet.groupcast is not None and packet.multistamp is None:
            self._route_groupcast(packet)
        else:
            if packet.dst is None:
                raise NetworkError("unicast packet without destination")
            self._transmit(packet)

    def fan_out(self, packet: Packet,
                destinations: tuple[Address, ...]) -> None:
        self.fanout_copies += len(destinations)
        for dst in destinations:
            self._transmit(packet.copy_to(dst))

    def _route_groupcast(self, packet: Packet) -> None:
        if not packet.sequenced:
            for group in packet.groupcast.groups:
                self.fan_out(packet, self.groups.members(group))
            return
        if (self.sequencer_address is None
                or self._resolve(self.sequencer_address) is None):
            self._drop(packet, "no-sequencer-route")
            return
        self._transmit(packet.copy_to(self.sequencer_address))

    def _drop(self, packet: Packet, reason: str) -> None:
        self.packets_dropped += 1
        if self.tracer is not None:
            self.tracer.packet_drop(packet, reason)

    def _resolve(self, dst: Optional[Address]) -> Optional[tuple[str, int]]:
        """Logical address → socket address, or ``None`` if unknown.

        The single place name resolution happens: this runtime knows
        only its locally bound endpoints, while the multi-process
        subclass overlays a remote host/port map distributed by the
        launcher. Everything downstream (transmit, batching, pending
        flush) is location-transparent."""
        port = self._ports.get(dst)
        if port is None:
            return None
        return (self.host, port)

    def _transmit(self, packet: Packet) -> None:
        addr = self._resolve(packet.dst)
        if addr is None:
            self._drop(packet, "dead-destination")
            return
        data = encode_packet(packet)
        if self.tracer is not None:
            self.tracer.packet_tx(packet)
        if self._egress is None:
            # Egress not up yet (e.g. the controller pings its
            # sequencers at build time); flushed by start().
            self._pending_sends.append((packet.dst, data))
            return
        self.frames_sent += 1
        if self.batch_frames <= 1:
            self._sendto(data, addr)
            return
        # Batching: park the frame on the destination's queue and drain
        # every queue in one call_soon callback, so all frames queued
        # within the current callback burst (a sequencer wakeup, a
        # chain pipeline flush, a reply coalesce) share datagrams.
        self._frame_queues.setdefault(addr, []).append(data)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.aloop.call_soon(self._flush_frames)

    def _flush_frames(self) -> None:
        self._flush_scheduled = False
        queues, self._frame_queues = self._frame_queues, {}
        if self._egress is None:  # stop() raced the callback
            return
        limit = self.batch_frames
        for addr, frames in queues.items():
            if self._hist_batch_depth is not None:
                self._hist_batch_depth.record(len(frames))
            chunk: list[bytes] = []
            chunk_bytes = 0
            for frame in frames:
                if chunk and (len(chunk) >= limit
                              or chunk_bytes + len(frame) > _MAX_DATAGRAM_BYTES):
                    self._sendto(encode_datagram(chunk), addr)
                    chunk = []
                    chunk_bytes = 0
                chunk.append(frame)
                chunk_bytes += len(frame)
            if chunk:
                self._sendto(encode_datagram(chunk), addr)

    def _sendto(self, data: bytes, addr: tuple[str, int]) -> None:
        """Single datagram egress point: accounting, size histogram,
        and error counting all live here."""
        self.datagrams_sent += 1
        if self._hist_datagram_bytes is not None:
            self._hist_datagram_bytes.record(len(data))
        try:
            self._egress.sendto(data, addr)
        except OSError:
            # EAGAIN included: UDP gives no delivery promise, and
            # Eris's §6.3/§6.5 drop machinery recovers lost stamps.
            self.send_errors += 1

    # -- receiving ---------------------------------------------------------
    def _attach_reader(self, address: Address, sock: socket.socket) -> None:
        self.aloop.add_reader(sock.fileno(), self._on_readable,
                              address, sock)

    def _on_readable(self, address: Address, sock: socket.socket) -> None:
        """Drain the socket: one wakeup, up to ``_RECV_BATCH`` datagrams."""
        self.recv_wakeups += 1
        for _ in range(_RECV_BATCH):
            try:
                data = sock.recv(_RECV_BUFFER_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.socket_errors += 1
                return
            self.recv_datagrams += 1
            self._on_datagram(address, data)

    def _on_datagram(self, address: Address, data: bytes) -> None:
        try:
            packets = decode_datagram(data)
        except CodecError:
            self.decode_errors += 1
            return
        node = self._endpoints.get(address)
        for packet in packets:
            if node is None:
                self._drop(packet, "dead-destination")
                continue
            self.packets_delivered += 1
            if self.tracer is not None:
                self.tracer.packet_deliver(packet)
            node.deliver(packet)

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        """Register this runtime's health metrics with ``registry``.

        Counter-style plain ints are exposed as monotone pull gauges
        (zero hot-path cost); three push histograms capture the shape
        eRPC says matters on commodity UDP — datagram sizes, batch
        queue depths, and event-loop lag (scheduled-vs-actual callback
        latency, the real-transport analog of simulated-time exactness).
        """
        registry.gauge("udp", "packets_sent",
                       lambda: self.packets_sent, monotone=True)
        registry.gauge("udp", "packets_delivered",
                       lambda: self.packets_delivered, monotone=True)
        registry.gauge("udp", "packets_dropped",
                       lambda: self.packets_dropped, monotone=True)
        registry.gauge("udp", "decode_errors",
                       lambda: self.decode_errors, monotone=True)
        registry.gauge("udp", "fanout_copies",
                       lambda: self.fanout_copies, monotone=True)
        registry.gauge("udp", "frames_sent",
                       lambda: self.frames_sent, monotone=True)
        registry.gauge("udp", "datagrams_sent",
                       lambda: self.datagrams_sent, monotone=True)
        registry.gauge("udp", "send_errors",
                       lambda: self.send_errors, monotone=True)
        registry.gauge("udp", "socket_errors",
                       lambda: self.socket_errors, monotone=True)
        registry.gauge("udp", "recv_wakeups",
                       lambda: self.recv_wakeups, monotone=True)
        registry.gauge("udp", "recv_datagrams",
                       lambda: self.recv_datagrams, monotone=True)
        registry.gauge("udp", "endpoints", lambda: len(self._endpoints))
        # Datagrams are 64 B .. 64 KB: a coarser base bucket keeps the
        # histogram readable in that range.
        self._hist_datagram_bytes = registry.histogram(
            "udp", "datagram_bytes", scale=64.0)
        self._hist_batch_depth = registry.histogram(
            "udp", "batch_queue_depth", scale=1.0)
        self._hist_loop_lag = registry.histogram("runtime", "loop_lag")
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
        """Attach readers, open the egress socket, and flush sends
        queued during cluster construction. Never enters the event
        loop, so it is callable both from harness code and from inside
        a running coroutine."""
        if self._started:
            return
        self._started = True
        for address, sock in self._socks.items():
            self._attach_reader(address, sock)
        egress = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        egress.setblocking(False)
        egress.bind((self.host, 0))
        self._egress = egress
        pending, self._pending_sends = self._pending_sends, []
        for dst, data in pending:
            addr = self._resolve(dst)
            if addr is not None:
                self.frames_sent += 1
                self._sendto(data, addr)
        if self._hist_loop_lag is not None:
            self._arm_lag_probe()

    def _close_socket(self, sock: socket.socket) -> None:
        if self._started:
            self.aloop.remove_reader(sock.fileno())
        sock.close()

    def stop(self) -> None:
        """Close every socket and the event loop (irreversible)."""
        if self._closed:
            return
        self._closed = True
        self._frame_queues.clear()
        for sock in self._socks.values():
            self._close_socket(sock)
        self._socks.clear()
        if self._egress is not None:
            self._egress.close()
            self._egress = None
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
