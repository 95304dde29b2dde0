"""The simulated link — the simulator backend of the runtime
interface.

The fabric core (:class:`repro.runtime.interface.Runtime`) registers
endpoints, routes sequenced groupcasts through the currently installed
sequencer — exactly the behaviour the SDN rules create in the paper —
and counts what it sends, fans out, drops and delivers; the sequencer
re-emits stamped per-recipient copies. This module adds the link: each
:class:`~repro.net.message.Packet` arrives after a sampled one-way
latency, or is lost with an optional drop probability (used by the
Figure 13 experiment).

Latency is sampled independently per packet, so the fabric naturally
reorders messages under jitter; that is intentional, since tolerating
reordering is precisely what multi-sequencing provides.

:class:`Network` implements :class:`repro.runtime.interface.Runtime`
by supplying its clock and its link: ``now`` is the event loop's
simulated time, and the timer primitives are the loop's own
:meth:`EventLoop.rearm` and :meth:`EventLoop.cancel`. Protocol nodes
reach the clock, timers and randomness through the runtime and never
touch the event loop directly, so the same protocol classes run over
:mod:`repro.runtime.asyncio_udp` unchanged. Payloads are passed
by reference for speed; :attr:`NetConfig.paranoid_codec` makes every
delivery round-trip through the wire codec instead, which catches any
handler that mutates a received message or relies on cross-recipient
payload aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.message import Address, Packet
from repro.runtime.interface import Runtime
from repro.sim.event_loop import EventLoop
from repro.sim.randomness import SplitRandom


@dataclass
class NetConfig:
    """Fabric parameters. Times are seconds (microsecond scale)."""

    base_latency: float = 10e-6      # one-way propagation + switching
    jitter: float = 2e-6             # uniform extra delay in [0, jitter]
    drop_rate: float = 0.0           # per-hop independent drop probability
    #: Deliver in FIFO order per (src, dst) pair — packets between two
    #: endpoints follow one path in a datacenter, so they rarely
    #: reorder; loss, not reordering, is the dominant anomaly. Set
    #: False to stress the protocols with arbitrary reordering.
    fifo_links: bool = True
    #: Round-trip every payload through the wire codec at delivery.
    #: Each recipient then gets its own decoded copy, so any handler
    #: that mutates a received message — or relies on fan-out copies
    #: aliasing one payload object — breaks loudly instead of silently
    #: corrupting its peers. Costs ~one encode+decode per delivery;
    #: off by default.
    paranoid_codec: bool = False

    def validate(self) -> None:
        if self.base_latency < 0 or self.jitter < 0:
            raise NetworkError("latencies must be non-negative")
        if not 0.0 <= self.drop_rate < 1.0:
            raise NetworkError(f"drop_rate must be in [0, 1): {self.drop_rate}")


class Network(Runtime):
    """The simulator's runtime: the clock is the event loop's
    simulated time, randomness is split off the experiment seed, and
    :meth:`_transmit` is the simulated link."""

    backend = "sim"
    component = "net"

    def __init__(self, loop: EventLoop, config: Optional[NetConfig] = None,
                 rng: Optional[SplitRandom] = None):
        super().__init__(rng or SplitRandom(0))
        config = config or NetConfig()
        config.validate()
        self.loop = loop
        # The timer primitives are the loop's own: a restart re-arms in
        # place, one call below ``Timer.start``.
        self._rearm = loop.rearm
        self._cancel = loop.cancel
        self.config = config
        self.rng = self.base_rng.split("network")
        self._link_clock: dict[tuple[Address, Address], float] = {}
        # Addresses exempt from random drops (e.g. the FC control plane
        # when an experiment only wants to stress the data path).
        self.lossless: set[Address] = set()
        #: Deterministic drop hook for tests: packets for which this
        #: returns True are silently discarded.
        self.drop_filter: Optional[Callable[[Packet], bool]] = None

    # -- runtime interface: clock / scheduling ---------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any):
        return self.loop.schedule(delay, fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any):
        return self.loop.schedule_at(time, fn, *args)

    # -- registration ----------------------------------------------------
    def unregister(self, address: Address) -> None:
        super().unregister(address)
        # Drop the departed endpoint's FIFO link state so the clock map
        # stays bounded under endpoint churn (clients come and go; the
        # map would otherwise grow one entry per link forever).
        if self._link_clock:
            stale = [link for link in self._link_clock
                     if address in link]
            for link in stale:
                del self._link_clock[link]

    # -- the simulated link -----------------------------------------------
    def _transmit(self, packet: Packet, tail: Optional[bytes] = None) -> None:
        # Per-packet hot path: config is read through one local (it can
        # be mutated mid-run by fault injectors, so it is not cached on
        # the network), and the jitter/drop RNG draws are skipped
        # entirely when disabled so lossless zero-jitter runs make no
        # RNG calls here.
        dst = packet.dst
        if dst not in self._endpoints:
            # Destination crashed / deregistered: packet is lost.
            self._drop(packet, "dead-destination")
            return
        if self.drop_filter is not None and self.drop_filter(packet):
            self._drop(packet, "drop-filter")
            return
        config = self.config
        if config.drop_rate > 0.0 and dst not in self.lossless \
                and packet.src not in self.lossless:
            if self.rng.random() < config.drop_rate:
                self._drop(packet, "random-loss")
                return
        latency = config.base_latency
        if config.jitter > 0.0:
            latency += self.rng.uniform(0.0, config.jitter)
        loop = self.loop
        arrival = loop.now + latency
        if config.fifo_links:
            link_clock = self._link_clock
            link = (packet.src, dst)
            floor = link_clock.get(link, 0.0) + 1e-9
            if arrival < floor:
                arrival = floor
            link_clock[link] = arrival
        if self.tracer is not None:
            self.tracer.packet_tx(packet)
        loop.schedule_at(arrival, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        if self.config.paranoid_codec:
            # Re-materialize the packet through the wire codec so this
            # recipient gets its own payload copy, exactly as it would
            # over a real transport. The codec preserves packet/trace
            # ids, so tracing and sequencer bookkeeping are unchanged.
            from repro.runtime.codec import decode_packet, encode_packet
            packet = decode_packet(encode_packet(packet))
        super()._arrive(packet)
