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

**Client core.** :class:`ClientNode` is the one client every system
shares (§6.1's retry, in eRPC's shape): a pending table, a retry timer
per op, give-up, abort-and-resubmit and one completion record,
:class:`OpResult`. A system's client supplies only its messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.message import Address, GroupcastHeader, Packet
from repro.runtime.interface import PeriodicTimer, Runtime, Timer


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
    def timer(self, delay: float, fn, *args) -> Timer:
        return self.runtime.timer(delay, fn, *args)

    def periodic(self, period: float, fn, *args) -> PeriodicTimer:
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


@dataclass
class OpResult:
    """Uniform completion record handed to the harness."""

    committed: bool
    latency: float
    result: Any = None
    retries: int = 0


#: Uniform completion callback: ``done(OpResult)``.
DoneFn = Callable[[OpResult], None]


@dataclass(eq=False)
class Pending:
    """One op in flight. A system's client subclasses it (keyword-only)
    with its per-phase state."""

    done: DoneFn
    start: float
    key: Any = None
    timer: Optional[Timer] = None
    retries: int = 0


class ClientNode(Node):
    """The client core: one pending table, one retry loop, one
    completion.

    ``_pending`` maps each op's key (a tag, or Eris's ``TxnId``) to its
    :class:`Pending`, in insertion order. :meth:`_open` arms the op's
    retry timer before its first send; each expiry counts a retry and
    either calls :meth:`_send_phase` again and re-arms, or, past
    ``max_retries``, gives the op up as timed out. :meth:`_abort` backs
    off and starts a fresh :meth:`_attempt` under a new tag.
    :meth:`_finish` completes an op into exactly one of
    ``committed_count`` / ``aborted_count`` / ``timedout_count``. A
    client whose ``retry_timeout`` is None never retries (NT-UR).
    """

    #: Retransmissions (and abort resubmissions) before giving up.
    max_retries: int = 100
    #: Pause between an aborted attempt and its resubmission.
    backoff: float = 0.5e-3

    def __init__(self, address: Address, runtime: Runtime,
                 retry_timeout: Optional[float]):
        super().__init__(address, runtime)
        self.retry_timeout = retry_timeout
        self._pending: dict[Any, Pending] = {}
        self.committed_count = 0
        self.aborted_count = 0
        #: Ops given up after ``max_retries`` retransmissions. Every
        #: completed op lands in exactly one of committed/aborted/
        #: timedout, so their sum is the number of ``done`` calls.
        self.timedout_count = 0
        self.retry_count = 0
        self.aborts_retried = 0

    @property
    def inflight(self) -> int:
        return len(self._pending)

    # -- the protocol's part ---------------------------------------------------
    def _send_phase(self, pending: Pending) -> None:
        """Send what ``pending``'s current phase needs; the retry loop
        calls it again on every timeout."""
        raise NotImplementedError

    def _attempt(self, pending: Pending) -> None:
        """Start a fresh attempt of an aborted op (see :meth:`_abort`)."""
        raise NotImplementedError

    # -- the core --------------------------------------------------------------
    def _open(self, key: Any, pending: Pending,
              table: Optional[dict] = None) -> None:
        """Track ``pending`` under ``key`` in ``table`` (``_pending``
        unless given) and arm its retry timer; the caller sends next."""
        if table is None:
            table = self._pending
        pending.key = key
        if self.retry_timeout is not None:
            # The timer names the op by key, not by reference: a stopped
            # timer's event may sit in the heap until its deadline, and
            # must not keep a finished op alive that long.
            timer = pending.timer = self.timer(self.retry_timeout,
                                               self._timeout, table, key)
            timer.start()
        table[key] = pending

    def _timeout(self, table: dict, key: Any) -> None:
        pending = table.get(key)
        if pending is None:
            return
        pending.retries += 1
        self.retry_count += 1
        if pending.retries > self.max_retries:
            self._give_up(pending)
            return
        self._send_phase(pending)
        pending.timer.start()

    def _give_up(self, pending: Pending) -> None:
        """Past ``max_retries``: complete ``pending`` as timed out."""
        self._finish(pending, None)

    def _abort(self, pending: Pending) -> None:
        """The attempt aborted on a conflict: past ``max_retries`` the
        op completes aborted; otherwise it starts over after
        ``backoff``."""
        pending.retries += 1
        self.aborts_retried += 1
        if pending.retries > self.max_retries:
            self._finish(pending, False)
            return
        del self._pending[pending.key]
        pending.timer.stop()
        self.call_later(self.backoff, self._attempt, pending)

    def _finish(self, pending: Pending, committed: Optional[bool],
                result: Any = None) -> None:
        """Complete ``pending``; ``committed`` None means it timed out."""
        del self._pending[pending.key]
        if pending.timer is not None:
            pending.timer.stop()
        if committed:
            self.committed_count += 1
        elif committed is None:
            self.timedout_count += 1
        else:
            self.aborted_count += 1
        pending.done(OpResult(bool(committed), self.now - pending.start,
                              result, pending.retries))
