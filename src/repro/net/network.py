"""The simulated fabric — the simulator backend of the runtime
interface.

The network delivers :class:`~repro.net.message.Packet` objects between
registered endpoints with sampled one-way latency and an optional drop
probability (used by the Figure 13 experiment). Sequenced groupcast
packets are routed through the currently installed sequencer — exactly
the behaviour the SDN rules create in the paper — and the sequencer
re-emits stamped per-recipient copies.

Latency is sampled independently per packet, so the fabric naturally
reorders messages under jitter; that is intentional, since tolerating
reordering is precisely what multi-sequencing provides.

:class:`Network` implements :class:`repro.runtime.interface.Runtime`:
protocol nodes reach the clock, timers, and randomness through it and
never touch the event loop directly, so the same protocol classes run
over :mod:`repro.runtime.asyncio_udp` unchanged. Payloads are passed
by reference for speed; :attr:`NetConfig.paranoid_codec` makes every
delivery round-trip through the wire codec instead, which catches any
handler that mutates a received message or relies on cross-recipient
payload aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.groupcast import GroupMembership
from repro.net.message import Address, Packet
from repro.runtime.interface import Runtime, TimerHandle
from repro.sim.event_loop import EventLoop
from repro.sim.process import PeriodicTimer, Timer
from repro.sim.randomness import SplitRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.endpoint import Node


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
    """Registry of endpoints plus the delivery engine.

    This is the simulator's implementation of the runtime interface:
    the clock is the event loop's simulated time, timers are simulator
    timers, and randomness is split off the experiment seed.
    """

    backend = "sim"

    def __init__(self, loop: EventLoop, config: Optional[NetConfig] = None,
                 rng: Optional[SplitRandom] = None):
        super().__init__()
        config = config or NetConfig()
        config.validate()
        self.loop = loop
        self.config = config
        self.base_rng = rng or SplitRandom(0)
        self.rng = self.base_rng.split("network")
        self.groups = GroupMembership()
        self._endpoints: dict[Address, "Node"] = {}
        self.sequencer_address: Optional[Address] = None
        self._link_clock: dict[tuple[Address, Address], float] = {}
        # Counters for tests and for sanity checks in benchmarks.
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_delivered = 0
        # Per-recipient copies made by fan_out (sequencer emission).
        # Kept separate from packets_sent deliberately: ``send`` counts
        # protocol-level sends and fan-out copies are a fabric-level
        # multiplication, so the two never double-count. Both backends
        # follow this split (see AsyncioUdpRuntime.fanout_copies).
        self.fanout_copies = 0
        # Addresses exempt from random drops (e.g. the FC control plane
        # when an experiment only wants to stress the data path).
        self.lossless: set[Address] = set()
        #: Deterministic drop hook for tests: packets for which this
        #: returns True are silently discarded.
        self.drop_filter: Optional[Callable[[Packet], bool]] = None
        #: Optional :class:`repro.obs.trace.Tracer`. Hot paths guard
        #: every hook with one ``is not None`` check so the disabled
        #: path stays effectively free.
        self.tracer = None

    # -- runtime interface: clock / scheduling / randomness ---------------
    @property
    def now(self) -> float:
        return self.loop.now

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any):
        return self.loop.schedule(delay, fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any):
        return self.loop.schedule_at(time, fn, *args)

    def timer(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> TimerHandle:
        return Timer(self.loop, delay, fn, *args)

    def periodic(self, period: float, fn: Callable[..., Any],
                 *args: Any) -> TimerHandle:
        return PeriodicTimer(self.loop, period, fn, *args)

    def rng_stream(self, name: str) -> SplitRandom:
        return self.base_rng.split(name)

    # -- registration ----------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {node.address!r}")
        self._endpoints[node.address] = node

    def unregister(self, address: Address) -> None:
        self._endpoints.pop(address, None)
        # Drop the departed endpoint's FIFO link state so the clock map
        # stays bounded under endpoint churn (clients come and go; the
        # map would otherwise grow one entry per link forever).
        if self._link_clock:
            stale = [link for link in self._link_clock
                     if address in link]
            for link in stale:
                del self._link_clock[link]

    def endpoint(self, address: Address) -> "Node":
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def has_endpoint(self, address: Address) -> bool:
        return address in self._endpoints

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        """Register pull-gauges over the fabric's live counters on a
        :class:`repro.obs.metrics.MetricsRegistry` (zero hot-path cost)."""
        registry.gauge("net", "packets_sent", fn=lambda: self.packets_sent,
                       monotone=True)
        registry.gauge("net", "packets_dropped",
                       fn=lambda: self.packets_dropped, monotone=True)
        registry.gauge("net", "packets_delivered",
                       fn=lambda: self.packets_delivered, monotone=True)
        registry.gauge("net", "fanout_copies", fn=lambda: self.fanout_copies,
                       monotone=True)
        registry.gauge("net", "endpoints", fn=lambda: len(self._endpoints))

    # -- routing control (exercised by the SDN controller) ---------------
    def install_sequencer_route(self, address: Optional[Address]) -> None:
        """Point the groupcast route at a sequencer (None = black hole).

        While no route is installed — e.g. during sequencer failover —
        sequenced groupcast traffic is silently lost, as in a real
        network between failure and rule re-installation.
        """
        self.sequencer_address = address

    # -- sending ----------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet. Unicast goes to ``packet.dst``; groupcast
        fans out (via the sequencer when ``packet.sequenced``)."""
        self.packets_sent += 1
        if self.tracer is not None:
            self.tracer.packet_send(packet)
        if packet.groupcast is not None and packet.multistamp is None:
            self._route_groupcast(packet)
        else:
            if packet.dst is None:
                raise NetworkError("unicast packet without destination")
            self._transmit(packet)

    def fan_out(self, packet: Packet, destinations: tuple[Address, ...]) -> None:
        """Deliver per-recipient copies (used by sequencers)."""
        transmit = self._transmit
        copy_to = packet.copy_to
        self.fanout_copies += len(destinations)
        for dst in destinations:
            transmit(copy_to(dst))

    # -- internals ----------------------------------------------------------
    def _route_groupcast(self, packet: Packet) -> None:
        if not packet.sequenced:
            # Plain (unsequenced) groupcast: direct fan-out to members.
            self.fan_out(packet,
                         self.groups.members_of(packet.groupcast.groups))
            return
        if self.sequencer_address is None or not self.has_endpoint(
            self.sequencer_address
        ):
            self._drop(packet, "no-sequencer-route")
            return
        self._transmit(packet.copy_to(self.sequencer_address))

    def _drop(self, packet: Packet, reason: str) -> None:
        self.packets_dropped += 1
        if self.tracer is not None:
            self.tracer.packet_drop(packet, reason)

    def _transmit(self, packet: Packet) -> None:
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
        node = self._endpoints.get(packet.dst)
        if node is None:
            self._drop(packet, "dead-destination")
            return
        self.packets_delivered += 1
        if self.tracer is not None:
            self.tracer.packet_deliver(packet)
        if self.config.paranoid_codec:
            # Re-materialize the packet through the wire codec so this
            # recipient gets its own payload copy, exactly as it would
            # over a real transport. The codec preserves packet/trace
            # ids, so tracing and sequencer bookkeeping are unchanged.
            from repro.runtime.codec import decode_packet, encode_packet
            packet = decode_packet(encode_packet(packet))
        node.deliver(packet)
