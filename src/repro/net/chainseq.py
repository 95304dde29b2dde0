"""Chain-replicated multi-stamping sequencer (extension beyond §5.4).

The paper's sequencer keeps all counter state *soft*: losing the
sequencer loses the counters, and recovery is a stop-the-world epoch
change driven by the SDN controller (Figure 14 measures that outage).
NetChain and Harmonia show the alternative this module implements:
replicate the sequencer-adjacent state across a short in-network chain
so a single element failure is repaired by *splicing the chain* instead
of bumping the epoch.

Layout and protocol:

- The groupcast route points at the chain **head**. The head owns the
  per-destination-group counters: it assigns the
  :class:`~repro.net.message.MultiStamp` (same assignment logic as the
  single :class:`~repro.net.sequencer.MultiSequencer`) and, instead of
  fanning out, sends one :class:`ChainForward` write per stamp down the
  chain as soon as it is assigned.
- Every node absorbs the write into its own counters (element-wise
  max), so counter state is always ordered ``head >= mid >= tail``.
- The **tail** *serves* stamps: only when a write reaches the tail is
  the stamped packet **released** — reconstructed and fanned out to the
  destination groups. A stamp is therefore externally visible only
  once it is fully replicated, which is what makes splice repair safe.
- The SDN controller health-checks every chain member. When one fails
  it splices the chain: it re-reads the surviving tail's counter state,
  installs a new chain configuration (strictly higher **version**) into
  the survivors, fences the spliced-out member (a falsely-suspected
  node that receives the install retires), and re-points the route at
  the new head — all *without* touching the epoch. Writes carrying a
  stale version are rejected, so no stale-tail stamp can be released
  after a repair. Only when the *whole* chain is lost does the
  controller fall back to the paper's epoch-change path.

Failure anatomy: stamps assigned at the head but never released are
simply gaps to the receivers — exactly the packet-drop case Eris
already handles (drop notification -> peer recovery -> FC permanent
drop), so chain repair composes with the §6.3/§6.5 machinery instead
of needing new replica-side logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.message import Address, GroupcastHeader, GroupId, MultiStamp, \
    Packet
from repro.net.network import Network
from repro.net.sequencer import MultiSequencer, SequencerProfile


@dataclass(frozen=True)
class ChainForward:
    """One counter write propagating head -> tail. Carries everything
    the tail needs to release the original groupcast packet."""

    version: int
    epoch: int
    stamps: tuple[tuple[GroupId, int], ...]
    origin: Address
    payload: Any
    groups: tuple[GroupId, ...]
    trace_id: Optional[int] = None


@dataclass(frozen=True)
class ChainStateRequest:
    """Controller -> surviving tail: read your counter state."""

    nonce: int


@dataclass(frozen=True)
class ChainState:
    """Tail -> controller: counter snapshot for splice repair."""

    nonce: int
    version: int
    epoch: int
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChainInstall:
    """Controller -> every pre-repair member: the new chain
    configuration. A receiver absent from ``members`` retires (the
    fencing that keeps a falsely-suspected node from serving stale
    stamps); members adopt the config and ack."""

    version: int
    epoch: int
    members: tuple[Address, ...]
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChainInstallAck:
    version: int
    sender: Address


class ChainSequencerNode(MultiSequencer):
    """One element of the replicated sequencer chain.

    Until a configuration is installed the node is ``retired`` and
    refuses to stamp, forward, or release. Role (head / middle / tail)
    is derived from the node's position in the installed member list,
    so a splice re-roles survivors without dedicated messages.
    """

    def __init__(self, address: str, network: Network,
                 profile: SequencerProfile | None = None, epoch: int = 1,
                 read_fast_path: bool = False):
        super().__init__(address, network, profile, epoch,
                         read_fast_path=read_fast_path)
        self.version = 0
        self.members: tuple[Address, ...] = ()
        self.retired = True
        # Chain-specific counters for metrics and tests.
        self.forwards_propagated = 0
        self.releases = 0
        self.stale_rejected = 0

    # -- roles -------------------------------------------------------------
    @property
    def is_head(self) -> bool:
        return bool(self.members) and self.members[0] == self.address

    @property
    def is_tail(self) -> bool:
        return bool(self.members) and self.members[-1] == self.address

    @property
    def successor(self) -> Address:
        index = self.members.index(self.address)
        return self.members[index + 1]

    # -- configuration (installed by the SDN controller) -------------------
    def apply_install(self, install: ChainInstall) -> bool:
        """Adopt (or be fenced by) a chain configuration. Returns True
        when this node is a member of the new chain (ack-worthy);
        idempotent for re-delivered installs of the current version."""
        if install.version < self.version:
            return False  # stale retransmission of an old repair
        if self.address not in install.members:
            self.retired = True
            self.version = install.version
            self.members = tuple(install.members)
            if self.tracer is not None:
                self.tracer.record("chain_retired", self.address,
                                   version=install.version)
            return False
        self.version = install.version
        self.members = tuple(install.members)
        self.retired = False
        # Counters only ever move forward: merge the installed snapshot
        # (the surviving tail's state) element-wise with our own, which
        # is >= it for every group we have seen.
        counters = self.counters
        for gid, seq in install.counters.items():
            if counters.get(gid, 0) < seq:
                counters[gid] = seq
        if install.epoch > self.epoch:
            self.epoch = install.epoch
        if self.tracer is not None:
            self.tracer.record("chain_install", self.address,
                               version=install.version,
                               members=list(install.members))
        return True

    def on_ChainInstall(self, src: Address, msg: ChainInstall,
                        packet: Packet) -> None:
        if self.apply_install(msg):
            self.send(src, ChainInstallAck(version=msg.version,
                                           sender=self.address))

    def on_ChainStateRequest(self, src: Address, msg: ChainStateRequest,
                             packet: Packet) -> None:
        self.send(src, ChainState(nonce=msg.nonce, version=self.version,
                                  epoch=self.epoch,
                                  counters=dict(self.counters)))

    # -- data plane --------------------------------------------------------
    def _stamp_one(self, packet: Packet) -> None:
        # Only the installed head assigns stamps. A retired (fenced or
        # not-yet-installed) node, or a non-head that still receives
        # routed traffic mid-splice, must drop rather than stamp. The
        # check lives at stamp time (not delivery): ``deliver`` holds a
        # packet for the profile's ``added_latency`` before ``_process``,
        # so a splice landing in between still fences it.
        if self.retired or not self.is_head:
            self.stale_rejected += 1
            self._ingress.pop(packet.packet_id, None)
            if self.tracer is not None:
                self.tracer.record(
                    "chain_stale", self.address,
                    cause=packet.trace_id if packet.trace_id is not None
                    else -1,
                    version=self.version, reason="not-head")
            return
        self._emit(self.stamp(packet))

    def _emit(self, stamped: Packet) -> None:
        stamp = stamped.multistamp
        if self.is_tail:
            # Single-element chain (after splices): assign == release.
            self._release(stamp.epoch, stamp.stamps, stamped.src,
                          stamped.payload, stamped.groupcast.groups,
                          stamped.trace_id)
            return
        self.send(self.successor, ChainForward(
            version=self.version, epoch=stamp.epoch, stamps=stamp.stamps,
            origin=stamped.src, payload=stamped.payload,
            groups=stamped.groupcast.groups, trace_id=stamped.trace_id))
        self.forwards_propagated += 1

    def _absorb(self, msg: ChainForward) -> bool:
        """Version-fence and absorb one propagated write into the local
        counters; returns False for writes from a previous chain
        incarnation (the splice already accounted or dropped them —
        accepting one could release a sequence number the repaired
        chain has reassigned, the stale-tail bug the fence prevents)."""
        if self.retired or msg.version != self.version:
            self.stale_rejected += 1
            if self.tracer is not None:
                self.tracer.record(
                    "chain_stale", self.address,
                    cause=msg.trace_id if msg.trace_id is not None else -1,
                    version=msg.version, current=self.version,
                    reason="version-mismatch")
            return False
        counters = self.counters
        for gid, seq in msg.stamps:
            if counters.get(gid, 0) < seq:
                counters[gid] = seq
        if self.read_fast_path:
            self._absorb_fast_path_state(msg)
        return True

    def _may_serve_fast_reads(self) -> bool:
        # A fenced or mid/tail node's dirty view is not authoritative;
        # only the active head sees every stamp as it happens.
        return not self.retired and self.is_head

    def _absorb_fast_path_state(self, msg: ChainForward) -> None:
        """Replicate the head's dirty-set bookkeeping down the chain
        (DESIGN.md: chain interaction).

        Every released write passed through every survivor in chain
        order, so after a splice the new head's absorbed dirty entries
        are a superset of the in-flight writes that can still be
        released — it can keep serving the dirty-set check for its
        epoch without an epoch change.
        """
        txn = getattr(msg.payload, "txn", None)
        if txn is not None and txn.op_class == "read_only":
            return
        write_keys = txn.write_keys if txn is not None else None
        if write_keys:
            entry = (msg.epoch, tuple(msg.stamps))
            dirty = self._dirty
            for key in write_keys:
                dirty[key] = entry
        else:
            blind = self._blind_high
            for group, seq in msg.stamps:
                if blind.get(group, 0) < seq:
                    blind[group] = seq

    def on_ChainForward(self, src: Address, msg: ChainForward,
                        packet: Packet) -> None:
        if not self._absorb(msg):
            return
        if self.is_tail:
            self._release(msg.epoch, msg.stamps, msg.origin, msg.payload,
                          msg.groups, msg.trace_id)
        else:
            self.send(self.successor, msg)
            self.forwards_propagated += 1

    def _release(self, epoch: int, stamps: tuple[tuple[GroupId, int], ...],
                 origin: Address, payload: Any,
                 groups: tuple[GroupId, ...],
                 trace_id: Optional[int]) -> None:
        """Serve a fully replicated stamp: reconstruct the groupcast
        packet (same causal id, so span attribution still telescopes
        through the original message) and fan out to every member of
        every destination group."""
        released = Packet(src=origin, dst=None, payload=payload,
                          groupcast=GroupcastHeader(tuple(groups)),
                          multistamp=MultiStamp(epoch=epoch,
                                                stamps=tuple(stamps)),
                          sequenced=True)
        released.trace_id = trace_id
        self.releases += 1
        if self.tracer is not None:
            self.tracer.record(
                "chain_release", self.address,
                cause=trace_id if trace_id is not None else -1,
                epoch=epoch, version=self.version,
                stamps=[[gid, seq] for gid, seq in stamps])
        runtime = self.runtime
        runtime.fan_out(released, runtime.groups.members_of(groups))

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        super().instrument(registry)
        registry.gauge(self.address, "chain_version", fn=lambda: self.version)
        registry.gauge(self.address, "chain_releases",
                       fn=lambda: self.releases)
        registry.gauge(self.address, "chain_forwards",
                       fn=lambda: self.forwards_propagated)
        registry.gauge(self.address, "chain_stale_rejected",
                       fn=lambda: self.stale_rejected)
