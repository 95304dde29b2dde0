"""SDN controller: groupcast routing and sequencer failover (§5.3–5.4).

The controller owns the groupcast forwarding rules. It health-checks
the active sequencer with periodic pings; after ``failure_threshold``
consecutive missed pongs it declares the sequencer dead, withdraws the
route (sequenced traffic black-holes, as in the real network), selects
the next standby, installs a strictly higher epoch number into it, and
— after a configurable ``reroute_delay`` modelling rule re-installation
across the fabric — re-points the groupcast route.

With a **chain-replicated sequencer** (:mod:`repro.net.chainseq`) the
controller additionally health-checks every chain member and repairs a
single failed element by *splicing the chain*: withdraw the route,
re-read the surviving tail's counter state, install a
strictly-higher-version configuration into the survivors (fencing the
spliced-out member), and re-point the route at the new head — without
any epoch bump, so replicas never run the stop-the-world epoch change.
Only when the whole chain is lost does it fall back to the epoch path.
The repair sub-protocol (state read + installs) runs over the lossy
fabric and retransmits every ``ping_interval`` until acknowledged; a
survivor that stops answering mid-repair is folded into the dead set
and the splice restarts with a fresh version.

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
from repro.net.sequencer import MultiSequencer


@dataclass(frozen=True)
class SequencerPing:
    nonce: int


@dataclass(frozen=True)
class SequencerPong:
    nonce: int


@dataclass(frozen=True)
class EpochInstall:
    """Wire form of ``MultiSequencer.install_epoch``: in a
    multi-process deployment the controller cannot reach a remote
    sequencer object, so epoch installation travels as a message."""

    epoch: int


# Teach sequencers to answer pings and wire-delivered epoch installs
# (kept here so the data-plane module stays free of control-plane
# message types).
def _on_ping(self: MultiSequencer, src: Address, msg: SequencerPing,
             packet: Packet) -> None:
    self.send(src, SequencerPong(msg.nonce))


def _on_epoch_install(self: MultiSequencer, src: Address,
                      msg: EpochInstall, packet: Packet) -> None:
    self.install_epoch(msg.epoch)


MultiSequencer.on_SequencerPing = _on_ping
MultiSequencer.on_EpochInstall = _on_epoch_install


@dataclass
class ControllerConfig:
    ping_interval: float = 10e-3
    failure_threshold: int = 3
    reroute_delay: float = 80e-3
    #: Delay to splice one chain rule after the survivors have adopted
    #: the repaired configuration — a single-rule update, an order of
    #: magnitude cheaper than the fabric-wide ``reroute_delay`` the
    #: epoch path pays.
    chain_repair_delay: float = 10e-3


class SDNController(Node):
    """Monitors the active sequencer and fails over to standbys.

    With ``chain`` set, the primary sequencer is the chain of
    :class:`~repro.net.chainseq.ChainSequencerNode` elements named by
    it; ``sequencers`` then lists the plain standbys used only by the
    whole-chain-lost epoch fallback.
    """

    def __init__(self, address: str, network: Network,
                 sequencers: list[Address],
                 config: Optional[ControllerConfig] = None,
                 chain: Optional[list[Address]] = None):
        super().__init__(address, network)
        if not sequencers:
            raise ConfigurationError("need at least one sequencer")
        if chain is not None and len(chain) < 2:
            raise ConfigurationError("a sequencer chain needs >= 2 nodes")
        self.config = config or ControllerConfig()
        self.sequencers = list(sequencers)
        self.active_index = 0
        self.current_epoch = 1
        self.failovers = 0
        self._missed = 0
        self._nonce = 0
        self._awaiting: Optional[int] = None
        self._failing_over = False
        # -- chain-replicated sequencer state --
        self.chain: list[Address] = list(chain) if chain else []
        self.chain_version = 0
        self.chain_repairs = 0
        self._chain_active = bool(chain)
        self._chain_awaiting: dict[Address, Optional[int]] = {}
        self._chain_missed: dict[Address, int] = {}
        self._repairing = False
        self._repair_phase: Optional[str] = None
        self._repair_survivors: list[Address] = []
        self._repair_dead: list[Address] = []
        self._repair_nonce: Optional[int] = None
        self._repair_tries = 0
        self._repair_acked: set[Address] = set()
        self._repair_counters: dict = {}
        self._ping_timer = self.periodic(self.config.ping_interval,
                                         self._ping)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Install the initial route and begin health checking."""
        if self._chain_active:
            self._install_chain(self.chain, counters={})
            self.runtime.install_sequencer_route(self.chain[0])
        else:
            self._install_epoch_at(self.active_address, self.current_epoch)
            self.runtime.install_sequencer_route(self.active_address)
        self._ping_timer.start()

    def stop(self) -> None:
        self._ping_timer.stop()

    @property
    def active_address(self) -> Address:
        if self._chain_active:
            return self.chain[0]
        return self.sequencers[self.active_index]

    def _install_epoch_at(self, address: Address, epoch: int) -> None:
        """Install an epoch into a sequencer: directly when it lives in
        this process (the simulator and the single-process UDP runtime
        — behaviour unchanged), over the wire when it is remote."""
        if self.runtime.has_endpoint(address):
            self.runtime.endpoint(address).install_epoch(epoch)
        else:
            self.send(address, EpochInstall(epoch))

    # -- health checking ----------------------------------------------------
    def _ping(self) -> None:
        if self._failing_over or self._repairing:
            return
        if self._chain_active:
            self._ping_chain()
            return
        if self._awaiting is not None:
            self._missed += 1
            if self._missed >= self.config.failure_threshold:
                self._begin_failover()
                return
        self._nonce += 1
        self._awaiting = self._nonce
        self.send(self.active_address, SequencerPing(self._nonce))

    def _ping_chain(self) -> None:
        """Health-check every chain member; splice out all members that
        crossed the miss threshold this tick."""
        dead = []
        for member in self.chain:
            if self._chain_awaiting.get(member) is not None:
                missed = self._chain_missed.get(member, 0) + 1
                self._chain_missed[member] = missed
                if missed >= self.config.failure_threshold:
                    dead.append(member)
        if dead:
            self._begin_chain_repair(dead)
            return
        for member in self.chain:
            self._nonce += 1
            self._chain_awaiting[member] = self._nonce
            self.send(member, SequencerPing(self._nonce))

    def on_SequencerPong(self, src: Address, msg: SequencerPong,
                         packet: Packet) -> None:
        if self._chain_active:
            if self._chain_awaiting.get(src) == msg.nonce:
                self._chain_awaiting[src] = None
                self._chain_missed[src] = 0
            return
        if msg.nonce == self._awaiting:
            self._awaiting = None
            self._missed = 0

    # -- epoch-bump failover (the paper's path) -----------------------------
    def _begin_failover(self) -> None:
        """Withdraw the route, pick the next standby, re-route later."""
        self._failing_over = True
        self._awaiting = None
        self._missed = 0
        self.runtime.install_sequencer_route(None)
        next_index = (self.active_index + 1) % len(self.sequencers)
        self.call_later(self.config.reroute_delay,
                           self._complete_failover, next_index)

    def _complete_failover(self, next_index: int) -> None:
        self.active_index = next_index
        self.current_epoch += 1
        self._install_epoch_at(self.active_address, self.current_epoch)
        self.runtime.install_sequencer_route(self.active_address)
        self.failovers += 1
        self._failing_over = False

    def force_failover(self) -> None:
        """Immediately begin failover (used by tests/benchmarks that do
        not want to wait out the detection timeout)."""
        if self._failing_over or self._repairing:
            return
        if self._chain_active:
            # Forcing the epoch path while a chain is active means the
            # whole chain is considered lost.
            self._chain_active = False
        self._begin_failover()

    # -- chain splice repair ------------------------------------------------
    def _reset_chain_pings(self) -> None:
        self._chain_awaiting = {m: None for m in self.chain}
        self._chain_missed = {m: 0 for m in self.chain}

    def _install_chain(self, members: list[Address],
                       counters: dict) -> None:
        """Install a configuration at bootstrap, before any traffic is
        admitted (repairs use the message protocol): directly for
        members in this process, over the wire for remote ones — a
        multi-process deployment admits traffic only after every worker
        has started, so the bootstrap installs arrive before any
        groupcast reaches the chain."""
        from repro.net.chainseq import ChainInstall

        self.chain_version += 1
        install = ChainInstall(version=self.chain_version,
                               epoch=self.current_epoch,
                               members=tuple(members),
                               counters=dict(counters))
        for member in members:
            if self.runtime.has_endpoint(member):
                self.runtime.endpoint(member).apply_install(install)
            else:
                self.send(member, install)
        self._reset_chain_pings()

    def _begin_chain_repair(self, dead: list[Address]) -> None:
        """Withdraw the route and splice the chain around ``dead``.

        Counter state survives in the remaining members, so the repair
        reads the surviving tail, installs a higher-version config, and
        re-points the route — the epoch (and therefore every replica's
        log) is untouched.
        """
        for member in dead:
            if member not in self._repair_dead:
                self._repair_dead.append(member)
        survivors = [m for m in self.chain if m not in self._repair_dead]
        self._reset_chain_pings()
        self.runtime.install_sequencer_route(None)
        if not survivors:
            # Whole chain lost: counters are gone; fall back to the
            # paper's epoch-change failover onto a plain standby.
            self._repairing = False
            self._repair_phase = None
            self._chain_active = False
            if self.tracer is not None:
                self.tracer.record("chain_lost", self.address,
                                   dead=list(self._repair_dead))
            self._begin_failover()
            return
        self._repairing = True
        self._repair_survivors = survivors
        self.chain_version += 1          # fresh version per attempt
        self._repair_phase = "state"
        self._repair_tries = 0
        self._send_state_request()

    def _send_state_request(self) -> None:
        from repro.net.chainseq import ChainStateRequest

        self._nonce += 1
        self._repair_nonce = self._nonce
        self._repair_tries += 1
        self.send(self._repair_survivors[-1],
                  ChainStateRequest(self._repair_nonce))
        self.call_later(self.config.ping_interval,
                        self._repair_state_tick, self._repair_nonce)

    def _repair_state_tick(self, nonce: int) -> None:
        if not self._repairing or self._repair_phase != "state" \
                or self._repair_nonce != nonce:
            return
        if self._repair_tries >= self.config.failure_threshold:
            # The surviving tail died mid-repair: restart without it.
            self._begin_chain_repair([self._repair_survivors[-1]])
            return
        self._send_state_request()

    def on_ChainState(self, src: Address, msg, packet: Packet) -> None:
        if not self._repairing or self._repair_phase != "state" \
                or msg.nonce != self._repair_nonce:
            return
        self._repair_counters = dict(msg.counters)
        self._repair_phase = "install"
        self._repair_acked = set()
        self._repair_tries = 0
        self._send_installs()

    def _send_installs(self) -> None:
        from repro.net.chainseq import ChainInstall

        install = ChainInstall(version=self.chain_version,
                               epoch=self.current_epoch,
                               members=tuple(self._repair_survivors),
                               counters=dict(self._repair_counters))
        self._repair_tries += 1
        for member in self.chain:
            # Survivors adopt and ack; a (falsely) suspected member
            # that is still alive is fenced by the same message.
            if member not in self._repair_acked:
                self.send(member, install)
        self.call_later(self.config.ping_interval,
                        self._repair_install_tick, self.chain_version)

    def _repair_install_tick(self, version: int) -> None:
        if not self._repairing or self._repair_phase != "install" \
                or self.chain_version != version:
            return
        missing = [m for m in self._repair_survivors
                   if m not in self._repair_acked]
        if not missing:
            return
        if self._repair_tries >= self.config.failure_threshold:
            self._begin_chain_repair(missing)
            return
        self._send_installs()

    def on_ChainInstallAck(self, src: Address, msg, packet: Packet) -> None:
        if not self._repairing or self._repair_phase != "install" \
                or msg.version != self.chain_version:
            return
        self._repair_acked.add(src)
        if all(m in self._repair_acked for m in self._repair_survivors):
            self._repair_phase = "route"
            self.call_later(self.config.chain_repair_delay,
                            self._complete_chain_repair, self.chain_version)

    def _complete_chain_repair(self, version: int) -> None:
        if not self._repairing or self.chain_version != version:
            return
        self.chain = list(self._repair_survivors)
        self._reset_chain_pings()
        self.runtime.install_sequencer_route(self.chain[0])
        self.chain_repairs += 1
        self._repair_dead = []
        self._repairing = False
        self._repair_phase = None
        if self.tracer is not None:
            self.tracer.record("chain_repair", self.address,
                               version=self.chain_version,
                               members=list(self.chain),
                               epoch=self.current_epoch)
