"""The ``Node`` base class: message dispatch plus a CPU model.

Every protocol participant (replica, client, sequencer, FC, controller)
is a ``Node``. Two things live here:

**Dispatch.** Incoming payloads are routed to ``on_<ClassName>``
methods, e.g. an ``IndependentTxnRequest`` payload invokes
``on_IndependentTxnRequest(src, msg, packet)``. Unhandled types raise,
so protocol omissions fail loudly.

**CPU model.** A node serializes message processing: each message
occupies the (single-core) server for ``service_time_for(packet)``
seconds, and handlers can charge extra execution time with
:meth:`Node.busy`. Arrivals during a busy period queue. This is what
makes servers saturate, which in turn is what makes throughput
comparisons between protocols meaningful: a protocol that makes each
server process more messages per transaction gets a proportionally
lower ceiling, exactly the effect the paper measures. The model runs
only where the runtime ``models_cost`` (the simulator); over real
sockets a node processes each arrival at once and pays its real CPU.

A node talks to the outside world exclusively through its
:class:`~repro.runtime.interface.Runtime` (clock, timers, transport),
so the same protocol classes run over the simulator and over real
sockets (:mod:`repro.runtime.asyncio_udp`) without modification.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import NetworkError
from repro.net.message import Address, GroupcastHeader, Packet
from repro.runtime.interface import Runtime, TimerHandle


class Node:
    """Base class for all protocol endpoints."""

    #: Default per-message processing cost (seconds). Subclasses and
    #: cluster builders override this to model faster/slower servers.
    msg_service_time: float = 0.0
    #: True for a node that reads only packet headers: a transport that
    #: receives bytes may then hand it groupcasts with ``payload=None``
    #: and the undecoded ``body``.
    opaque_bodies: bool = False

    def __init__(self, address: Address, runtime: Runtime):
        self.address = address
        self.runtime = runtime
        self._models_cost = runtime.models_cost
        self._busy_until = 0.0
        self._inbox: deque[Packet] = deque()
        self._drain_pending = False
        self.messages_processed = 0
        self.crashed = False
        runtime.register(self)

    # -- runtime conveniences ----------------------------------------------
    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def tracer(self):
        return self.runtime.tracer

    def call_later(self, delay: float, fn, *args) -> Any:
        return self.runtime.call_later(delay, fn, *args)

    def fresh_tag(self, prefix: str) -> str:
        return self.runtime.fresh_tag(prefix)

    # -- sending -----------------------------------------------------------
    def send(self, dst: Address, message: Any) -> Optional[Packet]:
        """Unicast a protocol message. Returns the injected packet
        (``None`` when crashed) so trace hooks can read the causal id
        the tracer assigned at injection."""
        if self.crashed:
            return None
        packet = Packet(src=self.address, dst=dst, payload=message)
        self.runtime.send(packet)
        return packet

    def send_groupcast(self, groups: tuple[int, ...], message: Any,
                       sequenced: bool = True,
                       read_only: bool = False) -> Optional[Packet]:
        """Groupcast a message to a set of groups (§5.2).

        With ``sequenced=True`` the packet is routed through the
        installed sequencer and arrives multi-stamped. ``read_only``
        marks a READ_ONLY transaction in the groupcast header. Returns
        the injected packet (``None`` when crashed).
        """
        if self.crashed:
            return None
        packet = Packet(
            src=self.address,
            dst=None,
            payload=message,
            groupcast=GroupcastHeader(tuple(groups), read_only),
            sequenced=sequenced,
        )
        self.runtime.send(packet)
        return packet

    # -- timers --------------------------------------------------------------
    def timer(self, delay: float, fn, *args) -> TimerHandle:
        return self.runtime.timer(delay, fn, *args)

    def periodic(self, period: float, fn, *args) -> TimerHandle:
        return self.runtime.periodic(period, fn, *args)

    # -- CPU model -----------------------------------------------------------
    def service_time_for(self, packet: Packet) -> float:
        """Per-message processing cost; override for message-dependent
        costs."""
        return self.msg_service_time

    def busy(self, duration: float) -> None:
        """Charge extra CPU time (e.g. transaction execution)."""
        if duration <= 0.0 or not self._models_cost:
            return
        base = max(self._busy_until, self.runtime.now)
        self._busy_until = base + duration

    # -- delivery ------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Called by the transport on arrival; applies the CPU model.

        Arrivals enter a FIFO inbox drained one message at a time; each
        occupies the server for its service time plus whatever extra
        the handler charged via :meth:`busy`, so a long execution
        genuinely delays everything queued behind it.
        """
        if self.crashed:
            return
        if not self._models_cost:
            self._process(packet)
            return
        self._inbox.append(packet)
        self._drain_inbox()

    def _drain_inbox(self) -> None:
        runtime = self.runtime
        while not self._drain_pending and self._inbox and not self.crashed:
            start = max(self._busy_until, runtime.now)
            finish = start + self.service_time_for(self._inbox[0])
            self._busy_until = finish
            if finish <= runtime.now:
                self._process(self._inbox.popleft())
                continue
            self._drain_pending = True
            runtime.call_at(finish, self._drain_one)

    def _drain_one(self) -> None:
        self._drain_pending = False
        if self._inbox and not self.crashed:
            self._process(self._inbox.popleft())
        self._drain_inbox()

    def _process(self, packet: Packet) -> None:
        if self.crashed:
            return
        self.messages_processed += 1
        self.handle(packet.src, packet.payload, packet)

    def handle(self, src: Address, message: Any, packet: Packet) -> None:
        """Dispatch to ``on_<ClassName>``; override for custom routing."""
        handler = getattr(self, "on_" + type(message).__name__, None)
        if handler is None:
            raise NetworkError(
                f"{type(self).__name__} {self.address!r} has no handler for "
                f"{type(message).__name__}"
            )
        handler(src, message, packet)

    # -- failure injection -----------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop all future deliveries and sends."""
        self.crashed = True
        if self.tracer is not None:
            self.tracer.record("crash", self.address)
