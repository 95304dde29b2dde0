"""SDN controller: groupcast routing and sequencer failover (§5.3–5.4).

The sequencing element is a chain of one or more
:class:`~repro.net.sequencer.MultiSequencer` elements; the paper's
sequencer is the chain of one. The controller owns the groupcast
forwarding rules and health-checks every chain member with periodic
pings. Once members miss ``failure_threshold`` consecutive pongs it
withdraws the route (sequenced traffic black-holes, as in the real
network) and then:

- **splices** the chain if any member survives: re-read the surviving
  tail's counter state, install a strictly-higher-version
  configuration into the survivors (fencing the spliced-out members),
  and re-point the route at the new head after ``chain_repair_delay``
  — without any epoch bump, so replicas never run the stop-the-world
  epoch change. The repair sub-protocol (state read + installs) runs
  over the lossy fabric and retransmits every ``ping_interval`` until
  acknowledged; a survivor that stops answering mid-repair is folded
  into the dead set and the splice restarts with a fresh version.
- **fails over** when no member survives — the paper's path. The
  counters are gone, so after ``reroute_delay`` (rule re-installation
  across the fabric) the next standby is installed as a chain of one in
  a strictly higher epoch and the route re-pointed at it.

Installs outside a splice (bootstrap and failover) are direct calls
into elements living in this process; a remote element gets a
:class:`~repro.net.sequencer.ChainInstall`, resent every
``ping_interval`` until acknowledged.

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
from repro.net.sequencer import ChainInstall, ChainInstallAck, ChainState, \
    ChainStateRequest, SequencerPing, SequencerPong


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
    """Monitors the sequencing chain, splices around failed members,
    and fails over to a standby when the whole chain is lost.

    ``chain`` names the initial chain, head first; by default it is the
    first of ``sequencers``, the standbys the failover path walks.
    """

    def __init__(self, address: str, network: Network,
                 sequencers: list[Address],
                 config: Optional[ControllerConfig] = None,
                 chain: Optional[list[Address]] = None):
        super().__init__(address, network)
        if not sequencers:
            raise ConfigurationError("need at least one sequencer")
        self.config = config or ControllerConfig()
        self.sequencers = list(sequencers)
        self.active_index = 0
        self.chain: list[Address] = list(chain or self.sequencers[:1])
        self.current_epoch = 1
        self.chain_version = 0
        self.failovers = 0
        self.chain_repairs = 0
        self._route: Optional[Address] = None
        self._nonce = 0
        self._awaiting: dict[Address, Optional[int]] = {}
        self._missed: dict[Address, int] = {}
        self._failing_over = False
        self._repairing = False
        self._repair_phase: Optional[str] = None
        self._repair_survivors: list[Address] = []
        self._repair_dead: list[Address] = []
        self._repair_nonce: Optional[int] = None
        self._repair_tries = 0
        self._repair_counters: dict = {}
        #: Members that acknowledged the current ``chain_version``.
        self._acked: set[Address] = set()
        self._ping_timer = self.periodic(self.config.ping_interval,
                                         self._ping)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Install the initial chain and route, begin health checking."""
        self._install(self.chain)
        self._set_route(self.chain[0])
        self._ping_timer.start()

    def stop(self) -> None:
        self._ping_timer.stop()

    @property
    def active_address(self) -> Address:
        """The chain head: where the groupcast route points."""
        return self.chain[0]

    def _set_route(self, address: Optional[Address]) -> None:
        """Point the groupcast route at ``address`` (None withdraws it)
        unless it already points there: on the per-node runtime every
        change is a broadcast to every peer process."""
        if address != self._route:
            self._route = address
            self.runtime.install_sequencer_route(address)

    def _install(self, members: list[Address]) -> None:
        """Install a fresh chain of ``members`` in the current epoch
        with empty counters (bootstrap and failover; splices use the
        repair protocol below)."""
        self.chain_version += 1
        self.chain = list(members)
        self._reset_pings()
        self._acked = set()
        install = ChainInstall(version=self.chain_version,
                               epoch=self.current_epoch,
                               members=tuple(members))
        remote = []
        for member in members:
            if self.runtime.has_endpoint(member):
                self.runtime.endpoint(member).apply_install(install)
            else:
                remote.append(member)
        if remote:
            self._resend_install(install, remote)

    def _resend_install(self, install: ChainInstall,
                        members: list[Address]) -> None:
        """Send ``install`` to every member that has not acked it, and
        again every ``ping_interval`` until all have — or until a newer
        configuration supersedes it. A member that never answers is
        found dead by the health check, which starts that newer one."""
        if install.version != self.chain_version:
            return
        missing = [m for m in members if m not in self._acked]
        if not missing:
            return
        for member in missing:
            self.send(member, install)
        self.call_later(self.config.ping_interval,
                        self._resend_install, install, missing)

    # -- health checking ----------------------------------------------------
    def _reset_pings(self) -> None:
        self._awaiting = {m: None for m in self.chain}
        self._missed = {m: 0 for m in self.chain}

    def _ping(self) -> None:
        """Health-check every chain member; act on all members that
        crossed the miss threshold this tick."""
        if self._failing_over or self._repairing:
            return
        dead = []
        for member in self.chain:
            if self._awaiting.get(member) is not None:
                missed = self._missed.get(member, 0) + 1
                self._missed[member] = missed
                if missed >= self.config.failure_threshold:
                    dead.append(member)
        if dead:
            self._begin_chain_repair(dead)
            return
        for member in self.chain:
            self._nonce += 1
            self._awaiting[member] = self._nonce
            self.send(member, SequencerPing(self._nonce))

    def on_SequencerPong(self, src: Address, msg: SequencerPong,
                         packet: Packet) -> None:
        if self._awaiting.get(src) == msg.nonce:
            self._awaiting[src] = None
            self._missed[src] = 0

    # -- whole chain lost: the paper's epoch-bump failover ------------------
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
        self._repair_dead = []
        self._install([self.sequencers[next_index]])
        self._set_route(self.chain[0])
        self.failovers += 1
        self._failing_over = False

    def force_failover(self) -> None:
        """Treat the whole chain as lost now (used by tests/benchmarks
        that do not want to wait out the detection timeout)."""
        if self._failing_over or self._repairing:
            return
        self._begin_failover()

    # -- chain splice repair ------------------------------------------------
    def _begin_chain_repair(self, dead: list[Address]) -> None:
        """Withdraw the route and splice the chain around ``dead``.

        Counter state survives in the remaining members, so the repair
        reads the surviving tail, installs a higher-version config, and
        re-points the route — the epoch (and therefore every replica's
        log) is untouched. With no survivor it falls back to the
        failover path.
        """
        for member in dead:
            if member not in self._repair_dead:
                self._repair_dead.append(member)
        survivors = [m for m in self.chain if m not in self._repair_dead]
        self._reset_pings()
        if not survivors:
            self._repairing = False
            self._repair_phase = None
            if self.tracer is not None:
                self.tracer.record("chain_lost", self.address,
                                   dead=list(self._repair_dead))
            self._begin_failover()
            return
        self._set_route(None)
        self._repairing = True
        self._repair_survivors = survivors
        self.chain_version += 1          # fresh version per attempt
        self._repair_phase = "state"
        self._repair_tries = 0
        self._send_state_request()

    def _send_state_request(self) -> None:
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

    def on_ChainState(self, src: Address, msg: ChainState,
                      packet: Packet) -> None:
        if not self._repairing or self._repair_phase != "state" \
                or msg.nonce != self._repair_nonce:
            return
        self._repair_counters = dict(msg.counters)
        self._repair_phase = "install"
        self._acked = set()
        self._repair_tries = 0
        self._send_installs()

    def _send_installs(self) -> None:
        install = ChainInstall(version=self.chain_version,
                               epoch=self.current_epoch,
                               members=tuple(self._repair_survivors),
                               counters=dict(self._repair_counters))
        self._repair_tries += 1
        for member in self.chain:
            # Survivors adopt and ack; a (falsely) suspected member
            # that is still alive is fenced by the same message.
            if member not in self._acked:
                self.send(member, install)
        self.call_later(self.config.ping_interval,
                        self._repair_install_tick, self.chain_version)

    def _repair_install_tick(self, version: int) -> None:
        if not self._repairing or self._repair_phase != "install" \
                or self.chain_version != version:
            return
        missing = [m for m in self._repair_survivors
                   if m not in self._acked]
        if not missing:
            return
        if self._repair_tries >= self.config.failure_threshold:
            self._begin_chain_repair(missing)
            return
        self._send_installs()

    def on_ChainInstallAck(self, src: Address, msg: ChainInstallAck,
                           packet: Packet) -> None:
        if msg.version != self.chain_version:
            return
        self._acked.add(src)
        if self._repair_phase == "install" \
                and all(m in self._acked for m in self._repair_survivors):
            self._repair_phase = "route"
            self.call_later(self.config.chain_repair_delay,
                            self._complete_chain_repair, self.chain_version)

    def _complete_chain_repair(self, version: int) -> None:
        if not self._repairing or self.chain_version != version:
            return
        self.chain = list(self._repair_survivors)
        self._reset_pings()
        self._set_route(self.chain[0])
        self.chain_repairs += 1
        self._repair_dead = []
        self._repairing = False
        self._repair_phase = None
        if self.tracer is not None:
            self.tracer.record("chain_repair", self.address,
                               version=self.chain_version,
                               members=list(self.chain),
                               epoch=self.current_epoch)
