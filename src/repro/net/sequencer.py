"""The multi-stamping sequencer (§5.3–5.4).

One sequencer is designated for the system at a time. Every sequenced
groupcast packet is routed through it; the sequencer parses the
groupcast header, atomically increments one counter per destination
group, writes the resulting :class:`~repro.net.message.MultiStamp`
(with its epoch number) into the packet, and fans per-recipient copies
out to every member of every destination group.

All counter state is *soft*: a replacement sequencer starts every
counter at zero in a strictly higher epoch, and receivers order
messages lexicographically by (epoch, sequence) — the paper's
fault-tolerance design, which pushes recovery to the application (the
Eris epoch-change protocol) instead of replicating the sequencer.

Three deployment profiles mirror §5.4 / Table 1: an in-switch design, a
network-processor middlebox, and a commodity end host. They differ only
in per-packet processing capacity and added latency.

Every groupcast is stamped and released synchronously on arrival (see
DESIGN.md, "Batching: measured and removed"). Beyond the paper's base
design, this sequencer has grown two independently-toggled extensions:

- **Chain replication**: :class:`repro.net.chainseq.ChainSequencerNode`
  subclasses this node so counter state survives sequencer failure
  without an epoch change; only the chain tail releases stamped
  packets.
- **Coordination-free read fast path** (``read_fast_path``,
  default-off): a Harmonia-style per-key *dirty-set* of in-flight
  conflicting writes, maintained at stamp time (§3.2 is where Eris
  pins the serial order; the dirty-set tracks which prefix of that
  order every replica has executed). READ_ONLY transactions whose keys
  are clean are forwarded to a single replica instead of being stamped
  for the §5.1 full-quorum path. Clear rules, false-positive
  semantics, and the chain interaction are specified in DESIGN.md
  ("The dirty-set protocol").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.endpoint import Node
from repro.net.message import MultiStamp, Packet
from repro.net.network import Network

_messages = None


def _core_messages():
    """Lazy import of repro.core.messages: repro.core.transaction
    imports repro.net.message, so importing the other direction at
    module load would be circular. Only the read fast path (knob on)
    ever needs these classes."""
    global _messages
    if _messages is None:
        from repro.core import messages
        _messages = messages
    return _messages

#: Hard cap on the ingress-timestamp map. Entries are normally popped
#: when the packet is stamped; packets that never reach ``stamp`` (in
#: flight across a crash, rejected by a retired chain node) would
#: otherwise accumulate forever. The bound evicts oldest-first, which
#: only costs queue-delay attribution for pathologically old packets.
INGRESS_BOUND = 4096


@dataclass(frozen=True)
class SequencerProfile:
    """Capacity/latency envelope of one sequencer implementation.

    ``per_packet_service`` is the inverse of the implementation's
    packet-processing capacity; ``added_latency`` is the extra one-way
    delay a packet experiences traversing it (Table 1's latency column,
    which the Table 1 benchmark reproduces).
    """

    name: str
    per_packet_service: float
    added_latency: float

    # Paper reference points (Table 1 + §5.4 in-switch analysis).
    @staticmethod
    def in_switch() -> "SequencerProfile":
        """Line-rate programmable switch: effectively unconstrained."""
        return SequencerProfile("in-switch", 0.0, 0.5e-6)

    @staticmethod
    def middlebox() -> "SequencerProfile":
        """Cavium Octeon CN6880: 6.19M packets/s, 13.64 us latency."""
        return SequencerProfile("middlebox", 1.0 / 6.19e6, 13.64e-6)

    @staticmethod
    def endhost() -> "SequencerProfile":
        """Userspace Linux on a 24-core Xeon: 1.61M packets/s, 24.60 us."""
        return SequencerProfile("endhost", 1.0 / 1.61e6, 24.60e-6)


class MultiSequencer(Node):
    """A network element that multi-stamps groupcast packets."""

    def __init__(self, address: str, network: Network,
                 profile: SequencerProfile | None = None, epoch: int = 1,
                 read_fast_path: bool = False):
        super().__init__(address, network)
        self.profile = profile or SequencerProfile.in_switch()
        self.msg_service_time = self.profile.per_packet_service
        self.epoch = epoch
        self.counters: dict[int, int] = {}
        self.packets_stamped = 0
        # Fabric-arrival timestamps for queue-delay attribution, keyed
        # by packet id. Populated only while a tracer is attached.
        self._ingress: dict[int, float] = {}
        # -- coordination-free read fast path (default-off) ---------------
        self.read_fast_path = read_fast_path
        #: Dirty-set: key -> (epoch, ((group, seq), ...)) of the last
        #: stamped write declaring that key. An entry is *cleared* only
        #: by evidence of application (watermark coverage) or by an
        #: epoch change making it moot; false positives (stale entries
        #: for already-applied writes) merely demote reads to the slow
        #: path — they never break safety.
        self._dirty: dict = {}
        #: Per-group sequence of the last stamped write with an
        #: *undeclared* write set. Such a write could touch any key, so
        #: it poisons the whole group until covered.
        self._blind_high: dict[int, int] = {}
        #: Per-group execution watermarks: group -> {replica: (epoch,
        #: upto)} absorbed from AppliedUpto reports.
        self._applied: dict[int, dict] = {}
        #: Round-robin cursor for fast-read replica selection.
        self._fast_rr: dict[int, int] = {}
        self.fast_reads = 0
        self.fast_read_misses = 0
        self.watermarks_absorbed = 0

    def install_epoch(self, epoch: int) -> None:
        """SDN controller installs a strictly higher epoch; counters
        restart (soft state is lost with the previous sequencer)."""
        if epoch <= self.epoch and self.packets_stamped:
            raise ValueError(
                f"epoch must increase: {epoch} <= {self.epoch}"
            )
        self.epoch = epoch
        self.counters = {}
        # Fast-path soft state is epoch-scoped: a fresh epoch starts
        # with an empty dirty-set but also with *no* watermark reports,
        # and _covered demands current-epoch reports from every
        # replica, so reads stay on the slow path until the shard
        # demonstrably catches up. Conservative, never unsafe.
        self._dirty.clear()
        self._blind_high.clear()
        self._applied.clear()

    # The sequencer handles raw packets, not payload messages.
    def _process(self, packet: Packet) -> None:
        if self.crashed:
            return
        self.messages_processed += 1
        if packet.groupcast is None:
            if packet.dst == self.address:
                # Control-plane traffic for the sequencer itself
                # (health-check pings from the SDN controller).
                self.handle(packet.src, packet.payload, packet)
            elif packet.dst is not None:
                # Not groupcast traffic; a real switch just forwards.
                self.runtime.send(packet)
            return
        self._process_groupcast(packet)

    def _process_groupcast(self, packet: Packet) -> None:
        """Stamp one sequenced groupcast packet and emit it.

        With the read fast path on, two packet kinds are intercepted
        *before* a sequence number is consumed: replica execution
        watermarks (absorbed into the dirty-set bookkeeping) and clean
        READ_ONLY transactions (forwarded to a single replica)."""
        if self.read_fast_path:
            payload = packet.payload
            if isinstance(payload, _core_messages().AppliedUpto):
                self._ingress.pop(packet.packet_id, None)
                self._absorb_watermark(payload)
                return
            if self._maybe_fast_read(packet):
                return
        self._stamp_one(packet)

    def _stamp_one(self, packet: Packet) -> None:
        """Stamp one groupcast and emit it. Split out so variants (OUM
        flooding, chain replication) can change where stamped packets
        go — and keep their stamp-time admission checks — without
        re-implementing the dispatch above."""
        self._emit(self.stamp(packet))

    def _emit(self, stamped: Packet) -> None:
        """Release a stamped packet to its destination groups: one
        fan-out, so a real transport encodes the shared body once."""
        runtime = self.runtime
        runtime.fan_out(stamped,
                        runtime.groups.members_of(stamped.groupcast.groups))

    def stamp(self, packet: Packet) -> Packet:
        """Atomically assign one sequence number per destination group."""
        counters = self.counters
        stamps = []
        for group in packet.groupcast.groups:
            seq = counters.get(group, 0) + 1
            counters[group] = seq
            stamps.append((group, seq))
        if self.read_fast_path:
            self._note_stamped(packet, tuple(stamps))
        packet.multistamp = MultiStamp(epoch=self.epoch, stamps=tuple(stamps))
        self.packets_stamped += 1
        if self.tracer is not None:
            self.tracer.sequencer_stamp(
                self.address, packet,
                queue_delay=self._queue_delay(packet))
        return packet

    # -- coordination-free read fast path (DESIGN.md: dirty-set protocol) -
    def _note_stamped(self, packet: Packet, stamps: tuple) -> None:
        """Stamp-time bookkeeping for the read fast path.

        *Install rule*: every non-READ_ONLY stamp installs a dirty
        entry for each declared write key; a write with an undeclared
        write set raises the group's blind high-water mark instead
        (poisoning every key on the shard). Installation happens at
        stamp time — before the write is released or applied anywhere —
        so the dirty window conservatively covers the write's entire
        in-flight life.
        """
        txn = getattr(packet.payload, "txn", None)
        if txn is not None and txn.op_class == "read_only":
            return
        write_keys = txn.write_keys if txn is not None else None
        if write_keys:
            entry = (self.epoch, stamps)
            dirty = self._dirty
            for key in write_keys:
                dirty[key] = entry
        else:
            blind = self._blind_high
            for group, seq in stamps:
                blind[group] = seq

    def _absorb_watermark(self, msg) -> None:
        """Clear rule: a replica's (epoch, upto) report witnesses that
        every slot of that epoch up to ``upto`` has been *executed*
        there. Reports only ever advance; reordered stale reports are
        ignored."""
        self.watermarks_absorbed += 1
        reports = self._applied.setdefault(msg.shard, {})
        report = (msg.epoch, msg.upto)
        previous = reports.get(msg.sender)
        if previous is None or previous < report:
            reports[msg.sender] = report
        if len(self._dirty) > 65536:
            self._prune_dirty()

    def _prune_dirty(self) -> None:
        """Drop dirty entries whose every stamp is covered — pure
        memory hygiene; _clean would skip them anyway once covered."""
        dirty = self._dirty
        for key, (epoch, stamps) in list(dirty.items()):
            if epoch < self.epoch or all(
                    self._covered(group, seq) for group, seq in stamps):
                del dirty[key]

    def _covered(self, group: int, seq: int) -> bool:
        """Has every replica of ``group`` executed (self.epoch, seq)?

        Requires a current-epoch (or newer) report from *all* replicas
        — not a majority. Replicas reply to clients at log-append time,
        so a write can commit before lagging replicas execute it; only
        all-replica execution coverage guarantees no single replica
        can serve a read that misses a committed conflicting write. A
        newer-epoch report also covers: entering epoch E+1 means the
        replica fed the entire FC-rebuilt log, and any epoch-E stamp
        outside that log was permanently dropped everywhere (§6.5).
        """
        reports = self._applied.get(group)
        if not reports:
            return False
        epoch = self.epoch
        for addr in self.runtime.groups.members(group):
            report = reports.get(addr)
            if report is None:
                return False
            r_epoch, r_upto = report
            if r_epoch > epoch:
                continue
            if r_epoch < epoch or r_upto < seq:
                return False
        return True

    def _clean(self, group: int, read_keys) -> bool:
        """Dirty-set check for a single-shard READ_ONLY transaction.

        Clean means: the group's blind high-water mark and the last
        stamped write of every read key are covered by all-replica
        execution watermarks. The blind check doubles as a freshness
        guard — even at mark 0 it demands current-epoch reports from
        every replica, so a fresh sequencer (or a chain head spliced in
        mid-epoch) serves no fast reads until the shard demonstrably
        catches up to its epoch.
        """
        if not self._covered(group, self._blind_high.get(group, 0)):
            return False
        epoch = self.epoch
        dirty = self._dirty
        for key in read_keys:
            entry = dirty.get(key)
            if entry is None:
                continue
            d_epoch, stamps = entry
            if d_epoch > epoch:
                return False  # stale element being superseded: demote
            if d_epoch < epoch:
                # Moot after epoch change: the write is either in the
                # FC-rebuilt log (covered by the current-epoch reports
                # the blind check already demanded) or perm-dropped at
                # every replica (§6.5).
                del dirty[key]
                continue
            for d_group, d_seq in stamps:
                if d_group == group and not self._covered(group, d_seq):
                    return False
        return True

    def _may_serve_fast_reads(self) -> bool:
        """Is this element currently authorized to answer the dirty-set
        check? Chain nodes override: only the active head may."""
        return True

    def _maybe_fast_read(self, packet: Packet) -> bool:
        """Serve a clean single-shard READ_ONLY transaction from one
        replica, bypassing stamping entirely (Harmonia's fast read).
        Returns False — caller stamps normally — on any doubt."""
        if not self._may_serve_fast_reads():
            return False
        payload = packet.payload
        if not isinstance(payload, _core_messages().IndependentTxnRequest):
            return False
        txn = payload.txn
        if (txn.op_class != "read_only" or txn.kind != "independent"
                or len(packet.groupcast.groups) != 1 or not txn.read_keys):
            return False
        group = packet.groupcast.groups[0]
        if not self._clean(group, txn.read_keys):
            self.fast_read_misses += 1
            return False
        members = tuple(self.runtime.groups.members(group))
        cursor = self._fast_rr.get(group, 0)
        self._fast_rr[group] = cursor + 1
        target = members[cursor % len(members)]
        self.fast_reads += 1
        self._ingress.pop(packet.packet_id, None)
        if self.tracer is not None:
            self.tracer.record(
                "fast_read", self.address, cause=packet.trace_id,
                txn=txn.txn_id.label(), shard=group,
                keys=sorted(repr(key) for key in txn.read_keys),
                replica=target)
        self.send(target, _core_messages().FastReadRequest(
            txn=txn, min_epoch=self.epoch))
        return True

    def _queue_delay(self, packet: Packet) -> float | None:
        """Time the packet waited behind other packets: processing
        finished now, so the wait is now minus fabric arrival minus the
        profile's unavoidable traversal latency and service time."""
        ingress = self._ingress.pop(packet.packet_id, None)
        if ingress is None:
            return None  # tracer attached after this packet arrived
        wait = (self.now - ingress - self.profile.added_latency
                - self.profile.per_packet_service)
        return max(0.0, wait)

    def instrument(self, registry) -> None:
        """Register this sequencer's live counters as pull-gauges."""
        registry.gauge(self.address, "packets_stamped",
                       fn=lambda: self.packets_stamped, monotone=True)
        registry.gauge(self.address, "epoch", fn=lambda: self.epoch)
        registry.gauge(self.address, "groups_stamped",
                       fn=lambda: len(self.counters))
        registry.gauge(self.address, "fast_reads",
                       fn=lambda: self.fast_reads, monotone=True)
        registry.gauge(self.address, "fast_read_misses",
                       fn=lambda: self.fast_read_misses, monotone=True)
        registry.gauge(self.address, "watermarks_absorbed",
                       fn=lambda: self.watermarks_absorbed, monotone=True)

    def service_time_for(self, packet: Packet) -> float:
        return self.profile.per_packet_service

    def crash(self) -> None:
        super().crash()
        # Packets recorded at deliver time but still in flight toward
        # stamp (latency timers) will never be popped by _queue_delay —
        # drop their bookkeeping with the node.
        self._ingress.clear()

    def deliver(self, packet: Packet) -> None:
        # Charge the profile's traversal latency on top of queueing.
        if self.crashed:
            return
        if self.tracer is not None and packet.groupcast is not None:
            ingress = self._ingress
            while len(ingress) >= INGRESS_BOUND:
                ingress.pop(next(iter(ingress)))
            ingress[packet.packet_id] = self.now
        self.call_later(self.profile.added_latency,
                        super().deliver, packet)
