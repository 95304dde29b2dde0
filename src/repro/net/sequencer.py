"""The sequencing element (§5.3–5.4): one multi-stamping sequencer.

Every sequenced groupcast packet is routed to the element. It parses
the groupcast header, atomically increments one counter per
destination group, writes the resulting
:class:`~repro.net.message.MultiStamp` (with its epoch number) into the
packet, and fans per-recipient copies out to every member of every
destination group.

All of its counter state is *soft*: when it fails the SDN controller
installs a standby in a strictly higher epoch with every counter at
zero, and receivers order messages lexicographically by (epoch,
sequence) — the paper's design, which pushes recovery to the Eris
epoch-change protocol. DESIGN.md ("The chain verdict") gives the
measurements behind not replicating the counters across elements.

An element stamps only once the controller has installed it
(:class:`SequencerInstall`). An install in a higher epoch restarts the
counters (a failover); one in the same epoch keeps them, and one in a
lower epoch is a reordered resend and is refused.

Three deployment profiles mirror §5.4 / Table 1: an in-switch design, a
network-processor middlebox, and a commodity end host. They differ only
in per-packet processing capacity and added latency, which only a
runtime that ``models_cost`` (the simulator) charges.

Every groupcast is stamped and released synchronously on arrival (see
DESIGN.md, "Batching: measured and removed"). The element also runs the
**coordination-free read fast path**: a Harmonia-style per-key
*dirty-set* of in-flight conflicting writes, maintained at stamp time
(§3.2 is where Eris pins the serial order; the dirty-set tracks which
prefix of that order every replica has executed). READ_ONLY
transactions whose keys are clean are forwarded to a single replica
instead of being stamped for the §5.1 full-quorum path. Tracking starts
at the first READ_ONLY transaction the element sees, so a workload
without reads pays nothing for it. The activation, install and clear
rules and the false-positive semantics are specified in DESIGN.md
("The dirty-set protocol").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.endpoint import Node
from repro.net.message import Address, MultiStamp, Packet
from repro.net.network import Network
from repro.runtime.codec import CodecError, body_type, decode_body

_messages = None


def _load_core_messages() -> None:
    """Lazy import of repro.core.messages: importing the repro.core
    package loads the replica, which imports this module, so importing
    it at module load would be circular. :class:`MultiSequencer` loads
    it once at construction; the per-groupcast check then reads the
    module global."""
    global _messages
    if _messages is None:
        from repro.core import messages
        _messages = messages

#: Hard cap on the ingress-timestamp map. Entries are normally popped
#: when the packet is stamped; packets that never reach ``stamp`` (in
#: flight across a crash, rejected by a non-head element) would
#: otherwise accumulate forever. The bound evicts oldest-first, which
#: only costs queue-delay attribution for pathologically old packets.
INGRESS_BOUND = 4096


# -- control plane (SDN controller <-> element) ------------------------------

@dataclass(frozen=True)
class SequencerPing:
    nonce: int


@dataclass(frozen=True)
class SequencerPong:
    nonce: int


@dataclass(frozen=True)
class SequencerInstall:
    """Controller -> element: stamp in ``epoch``. The receiver adopts
    it and acks."""

    epoch: int


@dataclass(frozen=True)
class SequencerInstallAck:
    epoch: int


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
    """The sequencing element: multi-stamps groupcast packets and fans
    them out.

    Until the controller installs it the element is ``retired`` and
    stamps nothing.
    """

    opaque_bodies = True

    def __init__(self, address: str, network: Network,
                 profile: SequencerProfile | None = None, epoch: int = 1):
        super().__init__(address, network)
        self.profile = profile or SequencerProfile.in_switch()
        self.msg_service_time = self.profile.per_packet_service
        self.epoch = epoch
        self.counters: dict[int, int] = {}
        self.packets_stamped = 0
        # Fabric-arrival timestamps for queue-delay attribution, keyed
        # by packet id. Populated only while a tracer is attached.
        self._ingress: dict[int, float] = {}
        # -- installed by the SDN controller --------------------------------
        self.retired = True
        #: Groupcasts dropped because the element is retired.
        self.stale_rejected = 0
        #: Received bodies this element had to decode (see _open).
        self.bodies_decoded = 0
        #: Traversal-latency timers ``deliver`` scheduled (models_cost).
        self.stamp_wakeups = 0
        # -- coordination-free read fast path ------------------------------
        _load_core_messages()
        #: Dirty-set tracking: off until the first fast-read candidate
        #: arrives (activation rule), then on for the element's life.
        self.tracking = False
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

    # -- configuration (installed by the SDN controller) -------------------
    def apply_install(self, install: SequencerInstall) -> bool:
        """Adopt an install; returns True when adopted (ack-worthy). An
        install below the element's epoch can be a reordered resend
        and is refused; re-delivering the current one is idempotent."""
        if install.epoch < self.epoch:
            return False
        self.retired = False
        if install.epoch > self.epoch:
            # A failover: the previous epoch's soft state is gone.
            # Fast-path state is epoch-scoped too: a fresh epoch starts
            # with an empty dirty-set but also with *no* watermark
            # reports, and _covered demands current-epoch reports from
            # every replica, so reads stay on the slow path until the
            # shard demonstrably catches up. Conservative, never unsafe.
            self.epoch = install.epoch
            self.counters = {}
            self._dirty.clear()
            self._blind_high.clear()
            self._applied.clear()
        if self.tracer is not None:
            self.tracer.record("sequencer_install", self.address,
                               epoch=install.epoch)
        return True

    def on_SequencerInstall(self, src: Address, msg: SequencerInstall,
                            packet: Packet) -> None:
        if self.apply_install(msg):
            self.send(src, SequencerInstallAck(epoch=msg.epoch))

    def on_SequencerPing(self, src: Address, msg: SequencerPing,
                         packet: Packet) -> None:
        self.send(src, SequencerPong(msg.nonce))

    # -- data plane --------------------------------------------------------
    # The sequencer handles raw packets, not payload messages.
    def _process(self, packet: Packet) -> None:
        if self.crashed:
            return
        self.messages_processed += 1
        if packet.groupcast is None:
            if packet.dst == self.address:
                # Control-plane traffic for the element itself (pings
                # and installs).
                self.handle(packet.src, packet.payload, packet)
            elif packet.dst is not None:
                # Not groupcast traffic; a real switch just forwards.
                self.runtime.send(packet)
            return
        self._process_groupcast(packet)

    def _process_groupcast(self, packet: Packet) -> None:
        """Stamp one sequenced groupcast packet and emit it.

        Two packet kinds are intercepted *before* a sequence number is
        consumed: replica execution watermarks (absorbed into the
        dirty-set bookkeeping) and, once tracking is on, clean READ_ONLY
        transactions (forwarded to a single replica). The first
        fast-read candidate — a single-shard READ_ONLY request with
        declared read keys, at an element that may serve it — turns
        tracking on and is stamped normally. Any other packet costs
        two class checks and no call.

        A retired (fenced or not-yet-installed) element drops instead.
        The check lives here rather than at delivery: on the simulator
        ``deliver`` holds a packet for the profile's ``added_latency``
        before ``_process``, so a fence landing in between still
        applies."""
        if packet.payload is None and not self._open(packet):
            return
        payload = packet.payload
        kind = payload.__class__
        if kind is _messages.AppliedUpto:
            self._ingress.pop(packet.packet_id, None)
            self._absorb_watermark(payload)
            return
        if kind is _messages.IndependentTxnRequest:
            txn = payload.txn
            if (txn.op_class == "read_only" and txn.read_keys
                    and len(packet.groupcast.groups) == 1
                    and self._may_serve_fast_reads()):
                if not self.tracking:
                    self._start_tracking()
                elif self._maybe_fast_read(packet, txn):
                    return
        if self.retired:
            self._ingress.pop(packet.packet_id, None)
            self.stale_rejected += 1
            if self.tracer is not None:
                self.tracer.record(
                    "sequencer_stale", self.address,
                    cause=packet.trace_id if packet.trace_id is not None
                    else -1, reason="retired")
            return
        self._emit(self.stamp(packet))

    def _open(self, packet: Packet) -> bool:
        """Decode a body the transport left undecoded, if the element
        must read it. §5.3's sequencer reads only the groupcast header,
        so a body stays bytes unless it is a watermark report, a
        transaction the client flagged READ_ONLY, or a write the
        dirty-set must record. Returns False, dropping the packet, for
        such a body that cannot be decoded; any other body is stamped
        and forwarded unread."""
        if (not self.tracking
                and not packet.groupcast.read_only
                and body_type(packet.body) is not _messages.AppliedUpto):
            return True
        try:
            packet.payload = decode_body(packet.body)
        except CodecError:
            self.runtime.decode_errors += 1
            return False
        self.bodies_decoded += 1
        return True

    def _emit(self, stamped: Packet) -> None:
        """Release a stamped packet with one fan-out to every member of
        every destination group, so a real transport encodes the shared
        body once."""
        runtime = self.runtime
        runtime.fan_out(stamped, runtime.groups.members_of(
            stamped.groupcast.groups))

    def stamp(self, packet: Packet) -> Packet:
        """Atomically assign one sequence number per destination group."""
        counters = self.counters
        stamps = []
        for group in packet.groupcast.groups:
            seq = counters.get(group, 0) + 1
            counters[group] = seq
            stamps.append((group, seq))
        stamps = tuple(stamps)
        if self.tracking:
            self._note_stamped(packet.payload, self.epoch, stamps)
        packet.multistamp = MultiStamp(epoch=self.epoch, stamps=stamps)
        self.packets_stamped += 1
        if self.tracer is not None:
            self.tracer.sequencer_stamp(
                self.address, packet,
                queue_delay=self._queue_delay(packet))
        return packet

    # -- coordination-free read fast path (DESIGN.md: dirty-set protocol) -
    def _start_tracking(self) -> None:
        """*Activation rule*: raise every group's blind mark to its
        current counter. Writes stamped before tracking began left no
        dirty entries, so they are covered only once every replica's
        execution watermark passes everything stamped so far."""
        self.tracking = True
        self._blind_high.update(self.counters)

    def _note_stamped(self, payload, epoch: int, stamps: tuple) -> None:
        """*Install rule*: every non-READ_ONLY stamp installs a dirty
        entry for each declared write key; a write with an undeclared
        write set raises the group's blind high-water mark instead
        (poisoning every key on the shard). The head runs it at stamp
        time — before the write is released or applied anywhere — so
        the dirty window conservatively covers the write's entire
        in-flight life.
        """
        txn = getattr(payload, "txn", None)
        if txn is not None and txn.op_class == "read_only":
            return
        write_keys = txn.write_keys if txn is not None else None
        if write_keys:
            entry = (epoch, stamps)
            dirty = self._dirty
            for key in write_keys:
                dirty[key] = entry
        else:
            blind = self._blind_high
            for group, seq in stamps:
                if blind.get(group, 0) < seq:
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
        every replica, so a fresh sequencer serves no fast reads until
        the shard demonstrably catches up to its epoch.
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
        check? Only an installed one: a fenced element's dirty view is
        not authoritative."""
        return not self.retired

    def _maybe_fast_read(self, packet: Packet, txn) -> bool:
        """Serve a clean fast-read candidate from one replica, bypassing
        stamping entirely (Harmonia's fast read). Returns False —
        caller stamps normally — on any doubt."""
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
        self.send(target, _messages.FastReadRequest(
            txn=txn, min_epoch=self.epoch))
        return True

    def _queue_delay(self, packet: Packet) -> float | None:
        """Time the packet waited behind other packets: processing
        finished now, so the wait is now minus fabric arrival minus the
        profile's traversal latency and service time, where the runtime
        charges them."""
        ingress = self._ingress.pop(packet.packet_id, None)
        if ingress is None:
            return None  # tracer attached after this packet arrived
        wait = self.now - ingress
        if self._models_cost:
            wait -= (self.profile.added_latency
                     + self.profile.per_packet_service)
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
        registry.gauge(self.address, "bodies_decoded",
                       fn=lambda: self.bodies_decoded, monotone=True)
        registry.gauge(self.address, "stamp_wakeups",
                       fn=lambda: self.stamp_wakeups, monotone=True)
        registry.gauge(self.address, "stale_rejected",
                       fn=lambda: self.stale_rejected)

    def service_time_for(self, packet: Packet) -> float:
        return self.profile.per_packet_service

    def crash(self) -> None:
        super().crash()
        # Packets recorded at deliver time but still in flight toward
        # stamp (latency timers) will never be popped by _queue_delay —
        # drop their bookkeeping with the node.
        self._ingress.clear()

    def deliver(self, packet: Packet) -> None:
        # Charge the profile's traversal latency on top of queueing,
        # where the runtime models cost; real sockets stamp at once.
        if self.crashed:
            return
        if self.tracer is not None and packet.groupcast is not None:
            ingress = self._ingress
            while len(ingress) >= INGRESS_BOUND:
                ingress.pop(next(iter(ingress)))
            ingress[packet.packet_id] = self.now
        if self._models_cost:
            self.stamp_wakeups += 1
            self.call_later(self.profile.added_latency,
                            super().deliver, packet)
        else:
            self._process(packet)
