"""The runtime interface every protocol class is written against.

The seam follows eRPC's observation ("Datacenter RPCs can be General
and Fast"): protocol logic written once against a narrow transport
interface runs unchanged over very different fabrics. The interface is
the union of what the protocol stack actually needs — nothing more:

==================  =====================================================
capability           methods
==================  =====================================================
transport            :meth:`Runtime.send`, :meth:`Runtime.fan_out`
endpoint registry    :meth:`register` / :meth:`unregister` /
                     :meth:`endpoint` / :meth:`has_endpoint`
groupcast routing    :attr:`groups`, :meth:`install_sequencer_route`
clock                :attr:`now` (seconds; monotonic within a run)
scheduling           :meth:`call_later` / :meth:`call_at`,
                     :meth:`timer` / :meth:`periodic`
randomness           :meth:`rng_stream` (seeded, named sub-streams)
identity             :meth:`fresh_tag` (runtime-owned txn-tag counter)
observability        :attr:`tracer` (optional causal tracer)
lifecycle            :meth:`start` / :meth:`stop`
==================  =====================================================

Everything but the clock and the link is written here, once: the
transport, registry and routing rows, the :class:`Timer` and
:class:`PeriodicTimer` every node arms, and the named RNG streams
split off the runtime's base seed. A backend supplies its clock
(:attr:`now`, :meth:`call_later`, :meth:`call_at`, and the two timer
primitives :meth:`_rearm` and :meth:`_cancel`) and its link
(:meth:`_transmit`); see the backend matrix in DESIGN.md. The
simulator keys its clock to the event loop and delivers payloads by
reference (or, in paranoid-codec mode, through the wire codec); the
asyncio-UDP backend keys its clock to ``loop.time()`` and every
message crosses a real socket serialized by the codec.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Address, Packet
    from repro.sim.randomness import SplitRandom


class Timer:
    """A restartable one-shot timer, created unarmed.

    ``start()`` (re)arms; if it was already armed, the previous
    deadline is discarded — the usual semantics for protocol
    retransmission timers pushed back on every response. ``stop()``
    cancels; stopping an unarmed timer is harmless.
    """

    def __init__(self, runtime: "Runtime", delay: float,
                 fn: Callable[..., Any], *args: Any):
        self._runtime = runtime
        self.delay = delay
        self._fn = fn
        self._args = args
        self._handle: Any = None

    def start(self, delay: Optional[float] = None) -> None:
        self._handle = self._runtime._rearm(
            self._handle, self.delay if delay is None else delay, self)

    def stop(self) -> None:
        if self._handle is not None:
            self._runtime._cancel(self._handle)
            self._handle = None

    def restart(self, delay: Optional[float] = None) -> None:
        self.start(delay)

    @property
    def active(self) -> bool:
        return self._handle is not None

    def _fire(self) -> None:
        self._handle = None
        self._fn(*self._args)


class PeriodicTimer(Timer):
    """A :class:`Timer` that re-arms itself: fires ``fn`` every
    ``delay`` seconds (its period) from ``start()`` until ``stop()``,
    which may be called from ``fn`` itself."""

    def start(self, initial_delay: Optional[float] = None) -> None:
        """(Re)arm; ``initial_delay`` replaces only the first period."""
        super().start(initial_delay)

    def _fire(self) -> None:
        # Re-armed before ``fn`` runs, so ``fn`` may stop the timer; the
        # handle that just fired is passed back, which the simulator
        # re-arms without allocating.
        self._handle = self._runtime._rearm(self._handle, self.delay, self)
        self._fn(*self._args)


class Runtime:
    """The fabric core every backend shares: registry, routing, send,
    fan-out, drops and arrival, with their counters, the timers and the
    named RNG streams. A backend supplies its clock (with the timer
    primitives :meth:`_rearm` and :meth:`_cancel`) and its link,
    :meth:`_transmit`."""

    #: Short backend identifier ("sim", "asyncio-udp", ...).
    backend: str = "abstract"

    #: Metrics component the fabric counters are registered under.
    component: str = "fabric"

    #: Whether nodes charge their modelled costs (per-message service
    #: time, :meth:`~repro.net.endpoint.Node.busy` execution, the
    #: sequencer profile's traversal latency) as delay. True on the
    #: simulator, where the model is the only cost; False on real
    #: sockets, which cost real CPU that a modelled delay would only
    #: double-charge.
    models_cost: bool = True

    def __init__(self, rng: "SplitRandom") -> None:
        # Imported here: repro.net's package import reaches this module.
        from repro.net.groupcast import GroupMembership

        # Per-runtime (per-cluster) transaction-tag counter: two
        # back-to-back in-process runs each start at 1, so repeated
        # experiments are deterministic (a module-global counter kept
        # counting across runs).
        self._tag_counter = itertools.count(1)
        #: The runtime seed's stream; :meth:`rng_stream` splits it.
        self.base_rng = rng
        self.groups = GroupMembership()
        self._endpoints: dict["Address", Any] = {}
        self.sequencer_address: Optional["Address"] = None
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_delivered = 0
        #: Per-recipient copies made by :meth:`fan_out`. Kept apart from
        #: ``packets_sent``, which counts protocol-level sends: fan-out
        #: is a fabric-level multiplication, so the two never
        #: double-count.
        self.fanout_copies = 0
        #: Optional :class:`repro.obs.trace.Tracer`; hot paths guard
        #: every hook with one ``is not None`` check.
        self.tracer: Any = None

    # -- identity ----------------------------------------------------------
    def fresh_tag(self, prefix: str) -> str:
        """A transaction tag unique within this runtime."""
        return f"{prefix}:{next(self._tag_counter)}"

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time in seconds. Simulated time for the simulator,
        the asyncio loop's monotonic clock for real transports."""
        raise NotImplementedError

    # -- scheduling --------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> Any:
        """Run ``fn(*args)`` ``delay`` seconds from now; returns a
        backend-specific cancellable handle."""
        raise NotImplementedError

    def call_at(self, time: float, fn: Callable[..., Any],
                *args: Any) -> Any:
        """Run ``fn(*args)`` at absolute time ``time`` (same clock as
        :attr:`now`)."""
        raise NotImplementedError

    def _rearm(self, handle: Any, delay: float, timer: Timer) -> Any:
        """Arm ``timer._fire`` to run ``delay`` seconds from now,
        replacing ``handle`` (one this method returned for ``timer``,
        pending or already fired; None for none); returns the handle
        to keep. :class:`Timer` and :class:`PeriodicTimer` are written
        over this and :meth:`_cancel`. The timer, not a bound
        ``_fire``, is passed so that a restart allocates nothing."""
        raise NotImplementedError

    def _cancel(self, handle: Any) -> None:
        """Cancel a pending handle from :meth:`_rearm`."""
        raise NotImplementedError

    def timer(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> Timer:
        """A restartable one-shot timer (created unarmed)."""
        return Timer(self, delay, fn, *args)

    def periodic(self, period: float, fn: Callable[..., Any],
                 *args: Any) -> PeriodicTimer:
        """A periodic timer (created unarmed)."""
        return PeriodicTimer(self, period, fn, *args)

    # -- randomness --------------------------------------------------------
    def rng_stream(self, name: str) -> "SplitRandom":
        """A named, seeded RNG stream derived from the runtime seed."""
        return self.base_rng.split(name)

    # -- endpoint registry -------------------------------------------------
    def register(self, node: Any) -> None:
        if node.address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {node.address!r}")
        self._endpoints[node.address] = node

    def unregister(self, address: "Address") -> None:
        self._endpoints.pop(address, None)

    def endpoint(self, address: "Address") -> Any:
        """The co-located endpoint object registered under ``address``.

        Control-plane convenience (the SDN controller installs
        configurations into sequencers through it); only valid for
        endpoints living in this runtime's process.
        """
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def has_endpoint(self, address: "Address") -> bool:
        return address in self._endpoints

    # -- routing (exercised by the SDN controller) -------------------------
    def install_sequencer_route(self, address: Optional["Address"]) -> None:
        """Point the groupcast route at a sequencer (None = black hole).

        While no route is installed — e.g. during sequencer failover —
        sequenced groupcast traffic is lost, as in a real network
        between failure and rule re-installation.
        """
        self.sequencer_address = address

    def _routable(self, address: "Address") -> bool:
        """Whether a packet for ``address`` has somewhere to go."""
        return address in self._endpoints

    # -- transport ---------------------------------------------------------
    def send(self, packet: "Packet") -> None:
        """Inject a packet. Unicast goes to ``packet.dst``; groupcast
        fans out (via the installed sequencer when ``packet.sequenced``)."""
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.packet_send(packet)
        if packet.groupcast is not None and packet.multistamp is None:
            self._route_groupcast(packet)
        else:
            if packet.dst is None:
                raise NetworkError("unicast packet without destination")
            self._transmit(packet)

    def fan_out(self, packet: "Packet",
                destinations: tuple["Address", ...]) -> None:
        """Deliver per-recipient copies (used by sequencers)."""
        self.fanout_copies += len(destinations)
        tail = self._fanout_tail(packet)
        transmit = self._transmit
        copy_to = packet.copy_to
        for dst in destinations:
            transmit(copy_to(dst), tail)

    def _fanout_tail(self, packet: "Packet") -> Optional[bytes]:
        """The encoded bytes all fan-out copies share, if any."""
        return None

    def _route_groupcast(self, packet: "Packet") -> None:
        if not packet.sequenced:
            # Plain (unsequenced) groupcast: direct fan-out to members.
            self.fan_out(packet,
                         self.groups.members_of(packet.groupcast.groups))
            return
        if self.sequencer_address is None \
                or not self._routable(self.sequencer_address):
            self._drop(packet, "no-sequencer-route")
            return
        self._transmit(packet.copy_to(self.sequencer_address))

    def _transmit(self, packet: "Packet",
                  tail: Optional[bytes] = None) -> None:
        """Carry one addressed copy towards ``packet.dst``, where it
        ends in :meth:`_arrive` or a :meth:`_drop`."""
        raise NotImplementedError

    def _drop(self, packet: "Packet", reason: str) -> None:
        self.packets_dropped += 1
        if self.tracer is not None:
            self.tracer.packet_drop(packet, reason)

    def _arrive(self, packet: "Packet") -> None:
        node = self._endpoints.get(packet.dst)
        if node is None:
            # Destination crashed / deregistered: the packet is lost.
            self._drop(packet, "dead-destination")
            return
        self.packets_delivered += 1
        if self.tracer is not None:
            self.tracer.packet_deliver(packet)
        node.deliver(packet)

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        """Register pull-gauges over the fabric's live counters on a
        :class:`repro.obs.metrics.MetricsRegistry` (zero hot-path cost)."""
        name = self.component
        for counter in ("packets_sent", "packets_dropped",
                        "packets_delivered", "fanout_copies"):
            registry.gauge(name, counter,
                           fn=lambda counter=counter: getattr(self, counter),
                           monotone=True)
        registry.gauge(name, "endpoints", fn=lambda: len(self._endpoints))

    def attach_tracer(self, tracer: Any = None) -> Any:
        """Attach a :class:`repro.obs.trace.Tracer` clocked off *this*
        runtime's monotonic clock.

        Rebinding ``tracer.clock`` here — rather than trusting whatever
        clock the tracer was built with — makes the span-arithmetic
        invariant hold by construction: every timestamp in a trace
        comes from :attr:`now`, so phase durations telescope exactly
        and can never go negative under wall-clock steps. Passing no
        tracer creates a fresh one. Returns the attached tracer.
        """
        from repro.obs.trace import Tracer

        if tracer is None:
            tracer = Tracer()
        tracer.clock = lambda: self.now
        self.tracer = tracer
        return tracer

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Bring the transport up (no-op for the simulator)."""

    def stop(self) -> None:
        """Tear the transport down (no-op for the simulator)."""
