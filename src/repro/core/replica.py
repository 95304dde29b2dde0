"""The Eris replica: all five sub-protocols of Section 6.

1. **Normal case (§6.2)** — multi-sequenced transactions arrive in
   order; every replica logs and replies; only the Designated Learner
   executes and includes the result.
2. **Dropped messages (§6.3)** — on a DROP-NOTIFICATION, first try
   same-shard peers (the paper's optimization), then escalate to the
   Failure Coordinator's FIND-TXN protocol.
3. **DL view change (§6.4)** — VR-style: merged logs, merged drop sets,
   waiting out undecided temp-drops with the FC.
4. **Epoch change (§6.5)** — on a NEW-EPOCH notification, stop
   processing, hand state to the FC, adopt the consistent state it
   rebuilds.
5. **Synchronization (§6.6)** — the DL periodically ships a
   safe-to-execute point, plus any log entries a replica has missed, to
   the other replicas (this doubles as the DL liveness heartbeat that
   arms view changes).

Replica state mirrors Figure 4: status, view-num, epoch-num, log,
temp-drops, perm-drops, un-drops.

Every replica sends one TxnReply per transaction, synchronously (see
DESIGN.md, "Batching: measured and removed"), and executes strictly in
log order. One default-off extension sits over the Figure 4 core (the
determinism digests pin the original behavior when it is off):
**fast reads** (``read_fast_path``). Every replica periodically
reports its execution watermark to the sequencing element
(AppliedUpto), and serves clean READ_ONLY transactions the element
forwards without a stamp — single-replica service instead of the §5.1
quorum, safe because the dirty-set check proved every committed
conflicting write is already executed at *every* replica.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.core.engine import ExecutionEngine
from repro.core.log import ErisLog, LogEntry, merge_logs, _stamp_hits
from repro.core.messages import (
    AppliedUpto,
    EpochChangeReq,
    EpochState,
    EpochStateRequest,
    FastReadReply,
    FastReadRequest,
    FindTxn,
    HasTxn,
    IndependentTxnRequest,
    PeerTxnRequest,
    PeerTxnResponse,
    ReconRead,
    ReconReply,
    StartEpoch,
    StartEpochAck,
    StartView,
    SyncAck,
    SyncLog,
    TempDroppedTxn,
    TxnDropped,
    TxnFound,
    TxnRecord,
    TxnReply,
    TxnRequestMsg,
    ViewChange,
)
from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.net.endpoint import Node
from repro.net.libsequencer import MultiSequencedChannel, Upcall, UpcallKind
from repro.net.message import Address, GroupId, MultiStamp, Packet
from repro.net.network import Network
from repro.net.oum import OUMSequencer
from repro.errors import TransactionAborted
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry, TxnContext
from repro.store.undo import UndoLog


@dataclass
class ErisConfig:
    """Protocol timers and execution-cost model for one deployment."""

    sync_interval: float = 2e-3
    view_change_timeout: float = 30e-3
    #: Grace period between noticing a sequence gap and starting peer
    #: recovery — absorbs transient reordering so only real drops pay
    #: the recovery cost.
    drop_detection_delay: float = 100e-6
    peer_recovery_timeout: float = 1e-3
    fc_retry_timeout: float = 10e-3
    general_abort_timeout: float = 100e-3
    execution_cost: float = 0.5e-6   # CPU charged per executed transaction
    oum_mode: bool = False           # Eris-OUM strawman (Fig 11)
    #: Harmonia-style read fast path: periodically report the execution
    #: watermark to the sequencing element and serve clean READ_ONLY
    #: transactions from this single replica. Default-off (digest-
    #: pinned); incompatible with oum_mode.
    read_fast_path: bool = False
    #: AppliedUpto reporting period; 0 means "use sync_interval".
    watermark_interval: float = 0.0


def _slot_fields(slot: SlotId) -> list:
    """Flat JSON-friendly slot triple for trace events."""
    return [slot.shard, slot.epoch, slot.seq]


def _entry_txn(entry: LogEntry) -> Optional[str]:
    """Stable transaction label for trace events ("client:seq")."""
    if entry.kind != "txn":
        return None
    return entry.record.txn.txn_id.label()


@dataclass
class _Recovery:
    slot: SlotId
    phase: str                 # "peer" | "fc"
    timer: Any = None
    peers_answered: int = 0


class ErisReplica(Node):
    """One member of one shard's replica group."""

    def __init__(
        self,
        address: Address,
        network: Network,
        shard: GroupId,
        replica_index: int,
        shard_addrs: list[Address],
        fc_address: Address,
        store: KVStore,
        registry: ProcedureRegistry,
        owns: Optional[Callable[[Hashable], bool]] = None,
        config: Optional[ErisConfig] = None,
    ):
        super().__init__(address, network)
        self.shard = shard
        self.replica_index = replica_index
        self.shard_addrs = list(shard_addrs)
        self.fc_address = fc_address
        self.config = config or ErisConfig()

        # Figure 4 state.
        self.status = "normal"    # normal | view-change | epoch-change
        self.view_num = 0
        self.epoch_num = 1
        self.log = ErisLog(shard)
        self.temp_drops: set[SlotId] = set()
        self.perm_drops: set[SlotId] = set()
        self.un_drops: set[SlotId] = set()

        # Sequencing and execution machinery.
        channel_group = OUMSequencer.GLOBAL_GROUP if self.config.oum_mode \
            else shard
        self.channel = MultiSequencedChannel(channel_group, epoch=1)
        self.store = store
        self.initial_snapshot = store.snapshot()
        self.engine = ExecutionEngine(store, registry, shard, owns,
                                      clock=lambda: self.now)
        self._fed: list[tuple[SlotId, str]] = []   # (slot, kind) fed so far
        self._delivery_queue: deque[tuple[SlotId, Optional[TxnRecord]]] = deque()
        self._recovering: dict[SlotId, _Recovery] = {}
        self._promised_epoch = 1

        # View change state.
        self._view_changes: dict[int, dict[Address, ViewChange]] = {}
        self._vc_waiting: set[SlotId] = set()
        self._vc_pending_view: Optional[int] = None

        # Synchronization state (DL side).
        self._reset_sync_progress()
        self._sync_timer = self.periodic(self.config.sync_interval,
                                         self._sync_tick)
        self._vc_timer = self.timer(self.config.view_change_timeout,
                                    self._on_dl_timeout)
        self._abort_seq = 0
        if self.is_dl:
            self._sync_timer.start()
        else:
            self._vc_timer.start()

        self.txns_processed = 0
        self.drops_recovered_from_peer = 0
        self.drops_escalated_to_fc = 0

        # Coordination-free read fast path (default-off; no timers or
        # events are created unless the knob is on, keeping the
        # knob-off event schedule — and the determinism digests — byte
        # identical).
        self.fast_reads_served = 0
        self._watermark_timer = None
        if self.config.read_fast_path and not self.config.oum_mode:
            interval = self.config.watermark_interval \
                or self.config.sync_interval
            self._watermark_timer = self.periodic(interval,
                                                  self._watermark_tick)
            self._watermark_timer.start()

    # -- observability ----------------------------------------------------
    def _trace_append(self, entry: LogEntry) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        data = {"shard": self.shard, "index": entry.index,
                "entry_kind": entry.kind, "slot": _slot_fields(entry.slot),
                "txn": _entry_txn(entry)}
        if entry.kind == "txn":
            data["participants"] = list(entry.record.txn.participants)
        tracer.record("log_append", self.address, **data)

    def _trace_apply(self, entry: LogEntry) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        tracer.record("apply", self.address, shard=self.shard,
                      index=entry.index, entry_kind=entry.kind,
                      slot=_slot_fields(entry.slot),
                      txn=_entry_txn(entry))

    def instrument(self, registry) -> None:
        """Register this replica's live counters as pull-gauges."""
        component = f"replica/{self.address}"
        registry.gauge(component, "txns_processed",
                       fn=lambda: self.txns_processed, monotone=True)
        registry.gauge(component, "log_len", fn=lambda: self.log.last_index)
        registry.gauge(component, "view_num", fn=lambda: self.view_num)
        registry.gauge(component, "epoch_num", fn=lambda: self.epoch_num)
        registry.gauge(component, "peer_recoveries",
                       fn=lambda: self.drops_recovered_from_peer,
                       monotone=True)
        registry.gauge(component, "fc_escalations",
                       fn=lambda: self.drops_escalated_to_fc,
                       monotone=True)
        registry.gauge(component, "messages_processed",
                       fn=lambda: self.messages_processed, monotone=True)
        registry.gauge(component, "fast_reads_served",
                       fn=lambda: self.fast_reads_served, monotone=True)

    # -- roles ----------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.shard_addrs)

    @property
    def is_dl(self) -> bool:
        return self.shard_addrs[self.view_num % self.n_replicas] == self.address

    def dl_address(self, view: Optional[int] = None) -> Address:
        view = self.view_num if view is None else view
        return self.shard_addrs[view % self.n_replicas]

    def _peers(self) -> list[Address]:
        return [a for a in self.shard_addrs if a != self.address]

    # -- dispatch: sequenced packets go to the channel ----------------------
    def handle(self, src: Address, message: Any, packet: Packet) -> None:
        if packet.multistamp is not None:
            self._on_sequenced(packet)
        else:
            super().handle(src, message, packet)

    def _on_sequenced(self, packet: Packet) -> None:
        for upcall in self.channel.on_packet(packet):
            self._apply_upcall(upcall)
        self._drain()

    def _apply_upcall(self, upcall: Upcall) -> None:
        if upcall.kind is UpcallKind.DELIVER:
            slot = SlotId(self.channel.group, upcall.epoch, upcall.seq)
            record = self._record_from_packet(upcall.packet)
            self._delivery_queue.append((slot, record))
        elif upcall.kind is UpcallKind.DROP_NOTIFICATION:
            slot = SlotId(self.channel.group, upcall.epoch, upcall.seq)
            self._start_recovery(slot)
        elif upcall.kind is UpcallKind.NEW_EPOCH:
            self._notice_new_epoch(upcall.epoch)

    @staticmethod
    def _record_from_packet(packet: Optional[Packet]) -> Optional[TxnRecord]:
        if packet is None:
            return None
        return TxnRecord(txn=packet.payload.txn, multistamp=packet.multistamp)

    # -- normal case (§6.2) -------------------------------------------------
    def _drain(self) -> None:
        """Process in-order deliveries until empty or blocked by an
        undecided temp-drop (§6.3 step 3)."""
        if self.status != "normal":
            return
        while self._delivery_queue:
            slot, record = self._delivery_queue[0]
            if record is None:
                self._delivery_queue.popleft()
                self._append_noop(slot)
                continue
            stamp = record.multistamp
            if self._hits(stamp, self.perm_drops):
                self._delivery_queue.popleft()
                self._append_noop(slot)
                continue
            if self._blocked_by_temp_drop(stamp):
                break
            self._delivery_queue.popleft()
            self._append_txn(slot, record)

    def _hits(self, stamp: MultiStamp, slots: set[SlotId]) -> bool:
        if not slots:
            return False
        return any(SlotId(gid, stamp.epoch, seq) in slots
                   for gid, seq in stamp.stamps)

    def _blocked_by_temp_drop(self, stamp: MultiStamp) -> bool:
        """A replica that promised a temp-drop cedes the transaction's
        fate to the FC and may not process it until the FC decides."""
        if not self.temp_drops:
            return False
        for gid, seq in stamp.stamps:
            slot = SlotId(gid, stamp.epoch, seq)
            if slot in self.temp_drops and slot not in self.un_drops \
                    and slot not in self.perm_drops:
                return True
        return False

    def _append_noop(self, slot: SlotId) -> None:
        entry = self.log.append_noop(slot)
        if self.tracer is not None:
            self._trace_append(entry)
        if self.is_dl:
            self._feed_entry(entry)

    def _append_txn(self, slot: SlotId, record: TxnRecord) -> None:
        txn = record.txn
        if self.config.oum_mode and self.shard not in txn.participants:
            # Eris-OUM: this server received a message for a transaction
            # it does not participate in — CPU was burned, slot consumed,
            # nothing to do (the cost Figure 11 measures).
            self.log.append_noop(slot)
            if self.tracer is not None:
                self._trace_append(self.log.get(self.log.last_index))
            if self.is_dl:
                self._feed_entry(self.log.get(self.log.last_index))
            return
        entry = self.log.append_txn(slot, record)
        self.txns_processed += 1
        if self.tracer is not None:
            self._trace_append(entry)
        self._cancel_recovery(slot)
        if self.is_dl:
            self._feed_entry(entry, reply_to=txn.txn_id.client)
        else:
            self._reply(txn, entry.index, committed=True, result=None)

    def _feed_entry(self, entry: LogEntry,
                    reply_to: Optional[Address] = None) -> None:
        """Feed the engine in log order (DL live path / catch-up)."""
        self._fed.append((entry.slot, entry.kind))
        if self.tracer is not None:
            self._trace_apply(entry)
        if entry.kind == "txn":
            self.busy(self.config.execution_cost)
            txn = entry.record.txn
            index = entry.index
            if reply_to is not None:
                self.engine.feed(
                    entry,
                    on_done=lambda committed, result, txn=txn, index=index:
                        self._reply(txn, index, committed, result),
                )
            else:
                self.engine.feed(entry)
        # NO-OPs carry nothing to execute but stay in the fed record so
        # prefix-consistency checks see them.

    def _reply(self, txn: IndependentTransaction, index: int,
               committed: bool, result: Any) -> None:
        packet = self.send(txn.txn_id.client, TxnReply(
            txn_id=txn.txn_id,
            txn_index=index,
            view_num=self.view_num,
            epoch_num=self.epoch_num,
            shard=self.shard,
            replica_index=self.replica_index,
            is_dl=self.is_dl,
            committed=committed,
            result=result,
        ))
        tracer = self.tracer
        if tracer is not None and packet is not None:
            # The reply's causal id lets the span builder pair each
            # per-replica reply with its delivery at the client.
            tracer.record("reply", self.address, cause=packet.trace_id,
                          txn=txn.txn_id.label(), shard=self.shard,
                          replica=self.replica_index, is_dl=self.is_dl,
                          committed=committed)

    # -- reconnaissance queries (§7.1) ----------------------------------------
    def on_ReconRead(self, src: Address, msg: ReconRead,
                     packet: Packet) -> None:
        self.send(src, ReconReply(key=msg.key, value=self.store.get(msg.key)))

    # -- coordination-free read fast path -------------------------------------
    def _applied_watermark(self) -> tuple[int, int]:
        """(epoch, seq) through which this replica has *executed*.

        Valid as a prefix summary because the log is epoch-monotone and
        in-epoch sequence numbers are contiguous (perm-drops occupy
        their slot as no-ops). When nothing of the channel's current
        epoch has been fed yet, (current_epoch, 0) is only reported if
        the replica is demonstrably caught up — otherwise the stale
        last-fed position is reported and the sequencer's coverage
        check simply fails, which is the safe direction.
        """
        if self._fed:
            slot, _ = self._fed[-1]
            if slot.epoch == self.channel.epoch:
                return (slot.epoch, slot.seq)
            if len(self._fed) == self.log.last_index \
                    and not self._delivery_queue:
                return (self.channel.epoch, 0)
            return (slot.epoch, slot.seq)
        if self.log.last_index == 0 and not self._delivery_queue:
            return (self.channel.epoch, 0)
        return (0, 0)

    def _watermark_tick(self) -> None:
        """Report the execution watermark to whatever element currently
        stamps for this shard (dirty-set clear rule). Sent as an
        unstamped sequenced groupcast so routing follows sequencer
        failover; the element absorbs it without consuming a sequence
        number."""
        if self.crashed or self.status != "normal":
            return
        epoch, upto = self._applied_watermark()
        self.send_groupcast((self.shard,), AppliedUpto(
            shard=self.shard, epoch=epoch, upto=upto, sender=self.address))

    def on_FastReadRequest(self, src: Address, msg: FastReadRequest,
                           packet: Packet) -> None:
        """Serve a clean READ_ONLY transaction from this replica alone.

        The sequencing element only forwards a fast read after the
        dirty-set check proved every committed write conflicting with
        it is executed at *every* replica — in particular here — so the
        local store already reflects them and a single reply is
        authoritative (the read serializes at this replica's applied
        prefix). A replica that lags the check's epoch, or is mid view
        or epoch change, stays silent: the client's retry re-runs the
        dirty-set check.
        """
        if self.crashed or self.status != "normal" \
                or self.epoch_num < msg.min_epoch:
            return
        txn = msg.txn
        undo = UndoLog()
        ctx = TxnContext(self.store, shard=self.shard,
                         owns=self.engine._owns, undo=undo)
        try:
            result = self.engine.registry.execute(txn.proc, ctx, txn.args)
            committed = True
        except TransactionAborted as abort:
            undo.rollback(self.store)
            result = abort.reason
            committed = False
        if ctx.write_set:
            # The procedure wrote despite its READ_ONLY declaration —
            # a workload bug. Roll back and refuse to answer; the
            # client's retry takes the slow path once the write dirties
            # its own keys.
            undo.rollback(self.store)
            if self.tracer is not None:
                self.tracer.record("fast_read_refused", self.address,
                                   shard=self.shard,
                                   txn=txn.txn_id.label(),
                                   reason="wrote-under-read-only")
            return
        self.busy(self.config.execution_cost)
        self.fast_reads_served += 1
        epoch, upto = self._applied_watermark()
        if self.tracer is not None:
            self.tracer.record("fast_read_serve", self.address,
                               cause=packet.trace_id,
                               shard=self.shard, txn=txn.txn_id.label(),
                               committed=committed,
                               asof=[epoch, upto])
        self.send(txn.txn_id.client, FastReadReply(
            txn_id=txn.txn_id, shard=self.shard, committed=committed,
            result=result, epoch_num=epoch, applied_seq=upto))

    # -- drop recovery (§6.3) -------------------------------------------------
    def _start_recovery(self, slot: SlotId) -> None:
        if slot in self._recovering or slot.seq < self.channel.next_seq:
            return
        if self.tracer is not None:
            self.tracer.record("recovery_start", self.address,
                                       shard=self.shard,
                                       slot=_slot_fields(slot))
        recovery = _Recovery(slot=slot, phase="wait")
        recovery.timer = self.timer(self.config.drop_detection_delay,
                                    self._begin_peer_recovery, slot)
        recovery.timer.start()
        self._recovering[slot] = recovery

    def _begin_peer_recovery(self, slot: SlotId) -> None:
        recovery = self._recovering.get(slot)
        if recovery is None or slot.seq < self.channel.next_seq:
            self._cancel_recovery(slot)
            return
        recovery.phase = "peer"
        recovery.timer = self.timer(self.config.peer_recovery_timeout,
                                    self._escalate_to_fc, slot)
        recovery.timer.start()
        for peer in self._peers():
            self.send(peer, PeerTxnRequest(slot=slot, sender=self.address))

    def _cancel_recovery(self, slot: SlotId) -> None:
        recovery = self._recovering.pop(slot, None)
        if recovery is not None and recovery.timer is not None:
            recovery.timer.stop()

    def _escalate_to_fc(self, slot: SlotId) -> None:
        recovery = self._recovering.get(slot)
        if recovery is None:
            return
        recovery.phase = "fc"
        self.drops_escalated_to_fc += 1
        if self.tracer is not None:
            self.tracer.record("recovery_fc", self.address,
                                       shard=self.shard,
                                       slot=_slot_fields(slot))
        self.send(self.fc_address, FindTxn(slot=slot, sender=self.address))
        recovery.timer = self.timer(self.config.fc_retry_timeout,
                                    self._escalate_to_fc, slot)
        recovery.timer.start()

    def on_PeerTxnRequest(self, src: Address, msg: PeerTxnRequest,
                          packet: Packet) -> None:
        entry = self.log.find_slot(msg.slot)
        record = None
        dropped = False
        if entry is not None:
            if entry.kind == "txn":
                record = entry.record
            else:
                dropped = msg.slot in self.perm_drops
        elif msg.slot.epoch == self.channel.epoch:
            buffered = self.channel.get_buffered(msg.slot.seq)
            if buffered is not None:
                record = self._record_from_packet(buffered)
        self.send(src, PeerTxnResponse(slot=msg.slot, entry=record,
                                       sender=self.address, dropped=dropped))

    def on_PeerTxnResponse(self, src: Address, msg: PeerTxnResponse,
                           packet: Packet) -> None:
        recovery = self._recovering.get(msg.slot)
        if recovery is None or recovery.phase != "peer":
            return
        if msg.entry is not None:
            self.drops_recovered_from_peer += 1
            if self.tracer is not None:
                self.tracer.record("recovery_peer", self.address,
                                           shard=self.shard,
                                           slot=_slot_fields(msg.slot),
                                           peer=src)
            self._resolve_slot(msg.slot, msg.entry)
            return
        if msg.dropped:
            self.perm_drops.add(msg.slot)
            self._resolve_slot(msg.slot, None)
            return
        recovery.peers_answered += 1
        if recovery.peers_answered >= len(self._peers()):
            recovery.timer.stop()
            self._escalate_to_fc(msg.slot)

    def _resolve_slot(self, slot: SlotId, record: Optional[TxnRecord]) -> None:
        """Close a gap with a recovered transaction or a perm-drop."""
        self._cancel_recovery(slot)
        if slot.epoch != self.channel.epoch or slot.seq < self.channel.next_seq:
            return
        packet = None
        if record is not None:
            packet = Packet(src="recovered", dst=self.address,
                            payload=IndependentTxnRequest(record.txn),
                            multistamp=record.multistamp)
        for upcall in self.channel.resolve(slot.seq, packet):
            self._apply_upcall(upcall)
        self._drain()

    # -- FC-coordinated drop agreement (§6.3 steps 2–5) -------------------------
    def on_TxnRequestMsg(self, src: Address, msg: TxnRequestMsg,
                         packet: Packet) -> None:
        slot = msg.slot
        entry = self.log.find_slot(slot) if slot.shard == self.channel.group \
            else None
        if entry is None:
            entry = self.log.find_stamped(slot)
        if entry is not None and entry.kind == "txn":
            self.send(src, HasTxn(slot=slot, record=entry.record,
                                  sender=self.address))
            return
        if slot.shard == self.channel.group and slot.epoch == self.channel.epoch:
            buffered = self.channel.get_buffered(slot.seq)
            if buffered is not None:
                self.send(src, HasTxn(
                    slot=slot, record=self._record_from_packet(buffered),
                    sender=self.address))
                return
        # Promise: we will not process this transaction until the FC
        # decides its fate.
        self.temp_drops.add(slot)
        self.send(src, TempDroppedTxn(
            slot=slot,
            shard=self.shard,
            view_num=self.view_num,
            epoch_num=self.epoch_num,
            sender=self.address,
            replica_index=self.replica_index,
            is_dl=self.is_dl,
        ))

    def on_TxnFound(self, src: Address, msg: TxnFound, packet: Packet) -> None:
        self.un_drops.add(msg.slot)
        if msg.slot.shard == self.channel.group:
            self._resolve_slot(msg.slot, msg.record)
        self._vc_waiting.discard(msg.slot)
        self._maybe_finish_view_change()
        self._drain()

    def on_TxnDropped(self, src: Address, msg: TxnDropped,
                      packet: Packet) -> None:
        self.perm_drops.add(msg.slot)
        if msg.slot.shard == self.channel.group:
            self._resolve_slot(msg.slot, None)
        self._vc_waiting.discard(msg.slot)
        self._maybe_finish_view_change()
        self._drain()

    # -- synchronization (§6.6) --------------------------------------------
    def _reset_sync_progress(self) -> None:
        """Per-peer sync bookkeeping (DL side): ``_peer_synced`` is the
        log length each follower last acknowledged, ``_peer_announced``
        the ``commit_upto`` of the previous SyncLog sent to it."""
        self._peer_synced: dict[Address, int] = {a: 0 for a in self._peers()}
        self._peer_announced: dict[Address, int] = dict(self._peer_synced)

    def _sync_tick(self) -> None:
        if not self.is_dl or self.status != "normal" or self.crashed:
            return
        if self.tracer is not None:
            self.tracer.record("sync", self.address,
                                       shard=self.shard, view=self.view_num,
                                       epoch=self.epoch_num,
                                       log_len=self.log.last_index)
        for peer in self._peers():
            # Followers log entries from the groupcast itself; ship only
            # those a follower had a whole interval to receive and still
            # has not acknowledged — none at all when nothing was lost.
            from_index = self._peer_synced.get(peer, 0) + 1
            announced = self._peer_announced.get(peer, 0)
            self._peer_announced[peer] = self.log.last_index
            self.send(peer, SyncLog(
                shard=self.shard,
                view_num=self.view_num,
                epoch_num=self.epoch_num,
                from_index=from_index,
                entries=tuple(self.log.entries(from_index, announced)),
                commit_upto=self.log.last_index,
            ))
        self._abort_stuck_generals()

    def on_SyncLog(self, src: Address, msg: SyncLog, packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or self.status != "normal":
            return
        if msg.view_num < self.view_num:
            return
        if msg.view_num > self.view_num:
            # Lazily learn the new view from its DL.
            self.view_num = msg.view_num
        self._vc_timer.restart()
        if self.is_dl:
            return
        for entry in msg.entries:
            if entry.index <= self.log.last_index:
                continue
            if entry.index != self.log.last_index + 1:
                break  # gap relative to our log; next sync will fill it
            adopted = (self.log.append_txn(entry.slot, entry.record)
                       if entry.kind == "txn"
                       else self.log.append_noop(entry.slot))
            if self.tracer is not None:
                self._trace_append(adopted)
            self._cancel_recovery(entry.slot)
            if adopted.kind == "txn":
                self._reply(adopted.record.txn, adopted.index,
                            committed=True, result=None)
        # The channel may not have seen these sequence numbers; jump it
        # forward so later packets do not look like gaps.
        for upcall in self.channel.fast_forward(
                self.log.last_seq(self.channel.epoch) + 1):
            self._apply_upcall(upcall)
        # Execute the safe prefix.
        upto = min(msg.commit_upto, self.log.last_index)
        while len(self._fed) < upto:
            entry = self.log.get(len(self._fed) + 1)
            self.busy(self.config.execution_cost if entry.kind == "txn"
                      else 0.0)
            self._fed.append((entry.slot, entry.kind))
            if self.tracer is not None:
                self._trace_apply(entry)
            if entry.kind == "txn":
                self.engine.feed(entry)
        self.send(src, SyncAck(
            shard=self.shard, view_num=self.view_num,
            epoch_num=self.epoch_num, log_len=self.log.last_index,
            sender=self.address,
        ))
        self._drain()

    def on_SyncAck(self, src: Address, msg: SyncAck, packet: Packet) -> None:
        if msg.view_num == self.view_num and msg.epoch_num == self.epoch_num:
            self._peer_synced[src] = max(self._peer_synced.get(src, 0),
                                         msg.log_len)

    # -- client-failure aborts (§7.2) -----------------------------------------
    def _abort_stuck_generals(self) -> None:
        if not self.engine.pending_generals:
            return
        horizon = self.now - self.config.general_abort_timeout
        for pending in self.engine.expired_generals(horizon):
            self._abort_seq += 1
            abort_txn = IndependentTransaction(
                txn_id=TxnId(client=f"{self.address}#aborter",
                             seq=self._abort_seq),
                proc="__conclusory__",
                args={"gtid": pending.gtid, "commit": False},
                participants=pending.participants,
                kind="conclusory",
            )
            self.send_groupcast(pending.participants,
                                IndependentTxnRequest(abort_txn))

    # -- view change (§6.4) ---------------------------------------------------
    def _on_dl_timeout(self) -> None:
        if self.crashed or self.status == "epoch-change":
            return
        self._initiate_view_change(self.view_num + 1)

    def _initiate_view_change(self, new_view: int) -> None:
        self.status = "view-change"
        self.view_num = new_view
        self._vc_pending_view = new_view
        if self.tracer is not None:
            self.tracer.record("view_change_start", self.address,
                                       shard=self.shard, view=new_view,
                                       epoch=self.epoch_num)
        self._sync_timer.stop()
        message = ViewChange(
            shard=self.shard,
            new_view=new_view,
            epoch_num=self.epoch_num,
            log=tuple(self.log.entries()),
            temp_drops=frozenset(self.temp_drops),
            perm_drops=frozenset(self.perm_drops),
            un_drops=frozenset(self.un_drops),
            sender=self.address,
        )
        target = self.dl_address(new_view)
        if target == self.address:
            self._record_view_change(message)
        else:
            self.send(target, message)
        self._vc_timer.restart()  # escalate to view+1 if this stalls

    def on_ViewChange(self, src: Address, msg: ViewChange,
                      packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or msg.new_view < self.view_num:
            return
        if msg.new_view > self.view_num or self.status == "normal":
            if self.dl_address(msg.new_view) == self.address:
                if self.status != "view-change" or \
                        self.view_num != msg.new_view:
                    self._initiate_view_change(msg.new_view)
        self._record_view_change(msg)

    def _record_view_change(self, msg: ViewChange) -> None:
        received = self._view_changes.setdefault(msg.new_view, {})
        received[msg.sender] = msg
        self._try_assemble_view(msg.new_view)

    def _try_assemble_view(self, view: int) -> None:
        if self.status != "view-change" or self.view_num != view:
            return
        if self.dl_address(view) != self.address:
            return
        received = self._view_changes.get(view, {})
        if len(received) < self.n_replicas // 2 + 1:
            return
        messages = list(received.values())
        perm = frozenset().union(*(m.perm_drops for m in messages))
        temp = frozenset().union(*(m.temp_drops for m in messages))
        un = frozenset().union(*(m.un_drops for m in messages))
        merged = merge_logs([m.log for m in messages], perm)
        self.temp_drops = set(temp)
        self.perm_drops = set(perm)
        self.un_drops = set(un)
        self._vc_merged_log = merged
        # Any logged transaction matching an undecided temp-drop forces
        # us to wait for the FC's verdict (§6.4).
        self._vc_waiting = set()
        undecided = temp - un - perm
        for entry in merged:
            if entry.kind != "txn":
                continue
            stamp = entry.record.multistamp
            for gid, seq in stamp.stamps:
                slot = SlotId(gid, stamp.epoch, seq)
                if slot in undecided:
                    self._vc_waiting.add(slot)
                    self.send(self.fc_address, HasTxn(
                        slot=slot, record=entry.record, sender=self.address))
        self._maybe_finish_view_change()

    def _maybe_finish_view_change(self) -> None:
        if self.status != "view-change" or self._vc_pending_view is None:
            return
        if self.dl_address(self.view_num) != self.address:
            return
        if not hasattr(self, "_vc_merged_log"):
            return
        if self._vc_waiting:
            return
        merged = merge_logs([tuple(self._vc_merged_log)],
                            frozenset(self.perm_drops))
        self._adopt_log(merged)
        self.status = "normal"
        self._vc_pending_view = None
        del self._vc_merged_log
        if self.tracer is not None:
            self.tracer.record("view_change_complete", self.address,
                                       shard=self.shard, view=self.view_num,
                                       epoch=self.epoch_num, role="dl",
                                       log_len=self.log.last_index)
        for peer in self._peers():
            self.send(peer, StartView(
                shard=self.shard,
                view_num=self.view_num,
                epoch_num=self.epoch_num,
                log=tuple(self.log.entries()),
                temp_drops=frozenset(self.temp_drops),
                perm_drops=frozenset(self.perm_drops),
                un_drops=frozenset(self.un_drops),
            ))
        self._reset_sync_progress()
        self._become_role()
        self._catch_up_engine(reply=True)
        self._drain()

    def on_StartView(self, src: Address, msg: StartView,
                     packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or msg.view_num < self.view_num:
            return
        self.view_num = msg.view_num
        self.temp_drops = set(msg.temp_drops)
        self.perm_drops = set(msg.perm_drops)
        self.un_drops = set(msg.un_drops)
        self._adopt_log(list(msg.log))
        self.status = "normal"
        self._vc_pending_view = None
        if self.tracer is not None:
            self.tracer.record("view_change_complete", self.address,
                                       shard=self.shard, view=self.view_num,
                                       epoch=self.epoch_num, role="follower",
                                       log_len=self.log.last_index)
        self._become_role()
        self._drain()

    def _become_role(self) -> None:
        if self.is_dl:
            self._vc_timer.stop()
            self._sync_timer.start()
        else:
            self._sync_timer.stop()
            self._vc_timer.restart()

    # -- epoch change (§6.5) --------------------------------------------------
    def _notice_new_epoch(self, new_epoch: int) -> None:
        if new_epoch <= self._promised_epoch and self.status == "epoch-change":
            return
        self.status = "epoch-change"
        if self.tracer is not None:
            self.tracer.record("epoch_change_start", self.address,
                                       shard=self.shard, epoch=new_epoch)
        self._sync_timer.stop()
        self._vc_timer.stop()
        self.send(self.fc_address, EpochChangeReq(
            shard=self.shard, new_epoch=new_epoch, sender=self.address))

    def on_EpochStateRequest(self, src: Address, msg: EpochStateRequest,
                             packet: Packet) -> None:
        if msg.new_epoch <= self.epoch_num:
            return
        self.status = "epoch-change"
        self._promised_epoch = max(self._promised_epoch, msg.new_epoch)
        self._sync_timer.stop()
        self._vc_timer.stop()
        self.send(src, EpochState(
            shard=self.shard,
            new_epoch=msg.new_epoch,
            last_normal_epoch=self.epoch_num,
            view_num=self.view_num,
            log=tuple(self.log.entries()),
            perm_drops=frozenset(self.perm_drops),
            sender=self.address,
        ))

    def on_StartEpoch(self, src: Address, msg: StartEpoch,
                      packet: Packet) -> None:
        if msg.new_epoch < self.epoch_num or (
                msg.new_epoch == self.epoch_num and self.status == "normal"):
            # Duplicate; re-ack so the FC stops retransmitting.
            self.send(src, StartEpochAck(shard=self.shard,
                                         new_epoch=msg.new_epoch,
                                         sender=self.address))
            return
        self.epoch_num = msg.new_epoch
        self._promised_epoch = msg.new_epoch
        self.view_num = msg.view_num
        self.temp_drops.clear()
        self.perm_drops.clear()
        self.un_drops.clear()
        self._delivery_queue.clear()
        for slot in list(self._recovering):
            self._cancel_recovery(slot)
        self._adopt_log(list(msg.log))
        self.status = "normal"
        replay = self.channel.begin_epoch(msg.new_epoch) \
            if msg.new_epoch > self.channel.epoch else []
        # Our log may already extend into the new epoch (FC rebuilt it
        # from a replica that advanced further); jump past those slots.
        for upcall in self.channel.fast_forward(
                self.log.last_seq(self.channel.epoch) + 1):
            self._apply_upcall(upcall)
        self._reset_sync_progress()
        if self.tracer is not None:
            self.tracer.record("epoch_change_complete", self.address,
                                       shard=self.shard, epoch=msg.new_epoch,
                                       view=self.view_num,
                                       log_len=self.log.last_index)
        self._become_role()
        if self.is_dl:
            self._catch_up_engine(reply=True)
        self.send(src, StartEpochAck(shard=self.shard,
                                     new_epoch=msg.new_epoch,
                                     sender=self.address))
        for packet_ in replay:
            self._on_sequenced(packet_)
        self._drain()

    # -- log adoption and engine consistency ----------------------------------
    def _adopt_log(self, entries: list[LogEntry]) -> None:
        """Install a merged log; if it contradicts what this replica
        already executed, rebuild application state by replay (the
        paper's application state transfer for rolled-back DLs)."""
        mismatch = any(
            i >= len(entries)
            or self._fed[i] != (entries[i].slot, entries[i].kind)
            for i in range(len(self._fed))
        )
        self.log.replace(entries)
        if self.tracer is not None:
            self.tracer.record(
                "log_adopt", self.address, shard=self.shard,
                rebuilt=mismatch,
                entries=[[e.index, e.kind, _entry_txn(e),
                          _slot_fields(e.slot)] for e in entries])
        if mismatch:
            self.store.load(self.initial_snapshot)
            self.engine.reset()
            self._fed = []
            if self.is_dl:
                self._catch_up_engine(reply=False)

    def _catch_up_engine(self, reply: bool) -> None:
        """Feed any unfed prefix (new DLs execute everything)."""
        while len(self._fed) < self.log.last_index:
            entry = self.log.get(len(self._fed) + 1)
            if entry.kind == "txn" and reply:
                self._feed_entry(entry, reply_to=entry.record.txn.txn_id.client)
            else:
                self._feed_entry(entry)

    # -- failure injection -----------------------------------------------------
    def crash(self) -> None:
        super().crash()
        self._sync_timer.stop()
        self._vc_timer.stop()
        if self._watermark_timer is not None:
            self._watermark_timer.stop()
        for recovery in self._recovering.values():
            if recovery.timer is not None:
                recovery.timer.stop()
