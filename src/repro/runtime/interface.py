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

Backends differ in *how* the capabilities are realized (see the
backend matrix in DESIGN.md), never in what the protocol observes:
the simulator keys its clock to the event loop and delivers payloads
by reference (or, in paranoid-codec mode, through the wire codec);
the asyncio-UDP backend keys its clock to ``loop.time()`` and every
message crosses a real socket serialized by the codec.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Protocol, TYPE_CHECKING, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.groupcast import GroupMembership
    from repro.net.message import Address, Packet
    from repro.sim.randomness import SplitRandom


@runtime_checkable
class TimerHandle(Protocol):
    """A restartable one-shot or periodic timer.

    ``start()`` (re)arms; for one-shot timers a restart discards the
    previous deadline — the usual semantics for retransmission timers
    pushed back on every response. ``stop()`` cancels; stopping an
    unarmed timer is harmless.
    """

    delay: float

    def start(self, delay: Optional[float] = None) -> None: ...

    def stop(self) -> None: ...

    def restart(self, delay: Optional[float] = None) -> None: ...

    @property
    def active(self) -> bool: ...


class Runtime:
    """Abstract runtime. Backends subclass and implement the transport,
    registry, clock, and scheduling surface; the shared txn-tag counter
    lives here so every backend hands out per-runtime-unique tags."""

    #: Short backend identifier ("sim", "asyncio-udp", ...).
    backend: str = "abstract"

    #: Whether nodes charge their modelled costs (per-message service
    #: time, :meth:`~repro.net.endpoint.Node.busy` execution, the
    #: sequencer profile's traversal latency) as delay. True on the
    #: simulator, where the model is the only cost; False on real
    #: sockets, which cost real CPU that a modelled delay would only
    #: double-charge.
    models_cost: bool = True

    #: Optional :class:`repro.obs.trace.Tracer`; hot paths guard every
    #: hook with one ``is not None`` check.
    tracer: Any = None

    #: Groupcast membership (:class:`repro.net.groupcast.GroupMembership`).
    groups: "GroupMembership"

    def __init__(self) -> None:
        # Per-runtime (per-cluster) transaction-tag counter: two
        # back-to-back in-process runs each start at 1, so repeated
        # experiments are deterministic (a module-global counter kept
        # counting across runs).
        self._tag_counter = itertools.count(1)

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

    def timer(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> TimerHandle:
        """A restartable one-shot timer (created unarmed)."""
        raise NotImplementedError

    def periodic(self, period: float, fn: Callable[..., Any],
                 *args: Any) -> TimerHandle:
        """A periodic timer (created unarmed)."""
        raise NotImplementedError

    # -- randomness --------------------------------------------------------
    def rng_stream(self, name: str) -> "SplitRandom":
        """A named, seeded RNG stream derived from the runtime seed."""
        raise NotImplementedError

    # -- endpoint registry -------------------------------------------------
    def register(self, node: Any) -> None:
        raise NotImplementedError

    def unregister(self, address: "Address") -> None:
        raise NotImplementedError

    def endpoint(self, address: "Address") -> Any:
        """The co-located endpoint object registered under ``address``.

        Control-plane convenience (the SDN controller installs
        configurations into sequencers through it); only valid for
        endpoints living in this runtime's process.
        """
        raise NotImplementedError

    def has_endpoint(self, address: "Address") -> bool:
        raise NotImplementedError

    # -- transport ---------------------------------------------------------
    def send(self, packet: "Packet") -> None:
        """Inject a packet. Unicast goes to ``packet.dst``; groupcast
        fans out (via the installed sequencer when ``packet.sequenced``)."""
        raise NotImplementedError

    def fan_out(self, packet: "Packet",
                destinations: tuple["Address", ...]) -> None:
        """Deliver per-recipient copies (used by sequencers)."""
        raise NotImplementedError

    def install_sequencer_route(self, address: Optional["Address"]) -> None:
        """Point the groupcast route at a sequencer (None = black hole)."""
        raise NotImplementedError

    # -- observability -----------------------------------------------------
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
