"""SDN controller: groupcast routing and sequencer failover (§5.3–5.4).

The controller owns the groupcast forwarding rule and health-checks the
active :class:`~repro.net.sequencer.MultiSequencer` with periodic pings.
A pong of *any* ping issued since the element's install proves it
alive, so a loaded element that answers late is not mistaken for a dead
one. Once ``failure_threshold`` consecutive ping intervals pass without
one, the controller withdraws the route (sequenced traffic black-holes,
as in the real network) and fails over — the paper's path: the
element's counters are soft state, so after ``reroute_delay`` (rule
re-installation across the fabric) the next standby is installed in a
strictly higher epoch and the route re-pointed at it. Replicas then
run the §6.5 epoch change.

Installs are direct calls into an element living in this process; a
remote element gets a :class:`~repro.net.sequencer.SequencerInstall`, resent
every ``ping_interval`` until acknowledged.

The paper replicates the controller "using standard means"; here it is
a single simulation object whose failover actions are what the Eris
epoch-change protocol observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.endpoint import Node
from repro.net.message import Address, Packet
from repro.net.network import Network
from repro.net.sequencer import SequencerInstall, SequencerInstallAck, \
    SequencerPing, SequencerPong


@dataclass
class ControllerConfig:
    ping_interval: float = 10e-3
    failure_threshold: int = 3
    reroute_delay: float = 80e-3


class SDNController(Node):
    """Monitors the active sequencing element and fails over to the
    next of ``sequencers`` when it stops answering."""

    def __init__(self, address: str, network: Network,
                 sequencers: list[Address],
                 config: Optional[ControllerConfig] = None):
        super().__init__(address, network)
        if not sequencers:
            raise ConfigurationError("need at least one sequencer")
        self.config = config or ControllerConfig()
        self.sequencers = list(sequencers)
        self.active_index = 0
        self.current_epoch = 1
        self.failovers = 0
        self._route: Optional[Address] = None
        self._nonce = 0
        #: Pings numbered above this belong to the current watch (the
        #: active element since its install).
        self._watch_from = 0
        #: No pong of the current watch arrived since the last ping.
        self._awaiting = False
        self._missed = 0
        self._failing_over = False
        #: The active element acknowledged ``current_epoch``.
        self._acked = False
        self._ping_timer = self.periodic(self.config.ping_interval,
                                         self._ping)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Install the first element and route, begin health checking."""
        self._install()
        self._set_route(self.active_address)
        self._ping_timer.start()

    def stop(self) -> None:
        self._ping_timer.stop()

    @property
    def active_address(self) -> Address:
        """The element the groupcast route points at (or will, once a
        failover completes)."""
        return self.sequencers[self.active_index]

    def _set_route(self, address: Optional[Address]) -> None:
        """Point the groupcast route at ``address`` (None withdraws it)
        unless it already points there: on the per-node runtime every
        change is a broadcast to every peer process."""
        if address != self._route:
            self._route = address
            self.runtime.install_sequencer_route(address)

    def _install(self) -> None:
        """Install the active element alone, in the current epoch, with
        empty counters, and start a fresh watch on it."""
        self._watch_from = self._nonce
        self._awaiting = False
        self._missed = 0
        self._acked = False
        member = self.active_address
        install = SequencerInstall(epoch=self.current_epoch)
        if self.runtime.has_endpoint(member):
            self.runtime.endpoint(member).apply_install(install)
        else:
            self._resend_install(member, install)

    def _resend_install(self, member: Address,
                        install: SequencerInstall) -> None:
        """Send ``install`` to ``member``, and again every
        ``ping_interval`` until it acks — or until a newer install
        supersedes it. A member that never answers is found dead by the
        health check, which starts that newer one."""
        if install.epoch != self.current_epoch or self._acked:
            return
        self.send(member, install)
        self.call_later(self.config.ping_interval,
                        self._resend_install, member, install)

    def on_SequencerInstallAck(self, src: Address, msg: SequencerInstallAck,
                               packet: Packet) -> None:
        if msg.epoch == self.current_epoch:
            self._acked = True

    # -- health checking ----------------------------------------------------
    def _ping(self) -> None:
        """Health-check the active element: fail it over on the tick
        that ends ``failure_threshold`` ping intervals in a row without
        a pong of the current watch."""
        if self._failing_over:
            return
        if self._awaiting:
            self._missed += 1
            if self._missed >= self.config.failure_threshold:
                if self.tracer is not None:
                    self.tracer.record("sequencer_lost", self.address,
                                       dead=[self.active_address])
                self._begin_failover()
                return
        self._nonce += 1
        self._awaiting = True
        self.send(self.active_address, SequencerPing(self._nonce))

    def on_SequencerPong(self, src: Address, msg: SequencerPong,
                         packet: Packet) -> None:
        # Any ping of the current watch counts, not only the latest:
        # only the active element was sent those nonces.
        if msg.nonce > self._watch_from:
            self._awaiting = False
            self._missed = 0

    # -- failover: the paper's epoch bump -----------------------------------
    def _begin_failover(self) -> None:
        """Withdraw the route, pick the next standby, re-route later."""
        self._failing_over = True
        self._set_route(None)
        next_index = (self.active_index + 1) % len(self.sequencers)
        self.call_later(self.config.reroute_delay,
                        self._complete_failover, next_index)

    def _complete_failover(self, next_index: int) -> None:
        self.active_index = next_index
        self.current_epoch += 1
        self._install()
        self._set_route(self.active_address)
        self.failovers += 1
        self._failing_over = False

    def force_failover(self) -> None:
        """Treat the active element as lost now (used by tests and
        benchmarks that do not want to wait out the detection
        timeout)."""
        if self._failing_over:
            return
        self._begin_failover()
