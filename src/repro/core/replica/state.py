"""Figure 4 replica state and the steps the §6 sub-protocols share.

:class:`ReplicaState` holds what Figure 4 lists — status, view-num,
epoch-num, the log, temp-, perm- and un-drops — plus the machinery
every sub-protocol reads: the ``libsequencer`` channel, the execution
engine, the fed prefix and the in-order delivery queue. Its methods
are the steps two or more sub-protocols take: append, feed, reply,
catch up, adopt an agreed log, take up the DL or follower role, and cut
the log at a §6.6 checkpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.core.engine import ExecutionEngine
from repro.core.log import ErisLog, LogEntry, split_image
from repro.core.messages import IndependentTxnRequest, TxnRecord, TxnReply
from repro.core.transaction import IndependentTransaction, SlotId
from repro.errors import InvariantViolation
from repro.net.endpoint import Node
from repro.net.libsequencer import MultiSequencedChannel
from repro.net.message import Address, GroupId, Packet
from repro.net.network import Network
from repro.net.oum import OUMSequencer
from repro.runtime.interface import TimerHandle
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry


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
    #: AppliedUpto reporting period of the read fast path (reports
    #: start at the first logged READ_ONLY transaction); 0 means "use
    #: sync_interval".
    watermark_interval: float = 0.0


def _slot_fields(slot: SlotId) -> list:
    """Flat JSON-friendly slot triple for trace events."""
    return [slot.shard, slot.epoch, slot.seq]


def _entry_txn(entry: LogEntry) -> Optional[str]:
    """Stable transaction label for trace events ("client:seq")."""
    if entry.kind != "txn":
        return None
    return entry.record.txn.txn_id.label()


def record_from_packet(packet: Optional[Packet]) -> Optional[TxnRecord]:
    """The log record a sequenced packet carries (None for a drop)."""
    if packet is None:
        return None
    return TxnRecord(txn=packet.payload.txn, multistamp=packet.multistamp)


#: A checkpoint: ``(index, store, §6.1 table)`` — the engine's state
#: once it has executed the log through ``index``.
Checkpoint = tuple[int, dict, tuple]

#: Checkpoint candidates a replica holds at most while its shard's
#: stable point lags (a cut usually takes the previous one).
MAX_CANDIDATES = 4
#: Entries a checkpoint candidate lies past the base or the previous
#: candidate, at least: each copy of the store serves that many.
CANDIDATE_SPACING = 64


class ReplicaState(Node):
    """One member of one shard's replica group: its Figure 4 state and
    the shared steps. Each sub-protocol class adds its handlers and its
    own scratch state; :class:`repro.core.replica.ErisReplica` composes
    them."""

    #: Role timers, created by :mod:`.sync` and :mod:`.view_change`.
    _sync_timer: TimerHandle
    _vc_timer: TimerHandle

    def __init__(self, address: Address, network: Network, shard: GroupId,
                 replica_index: int, shard_addrs: list[Address],
                 fc_address: Address, store: KVStore,
                 registry: ProcedureRegistry,
                 owns: Optional[Callable[[Hashable], bool]] = None,
                 config: Optional[ErisConfig] = None):
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
        self.engine = ExecutionEngine(store, registry, shard, owns,
                                      clock=lambda: self.now)
        #: Index of the last log entry fed to the engine.
        self.fed_index = 0
        self._delivery_queue: deque[tuple[SlotId, Optional[TxnRecord]]] = deque()

        # The §6.6 checkpoint (DESIGN.md, "Bounded replica logs").
        #: The engine's state at the log's base: what a replay after a
        #: contradicting log restarts from. Taken at the first feed
        #: (the loader fills stores after the replicas are built), then
        #: at every cut.
        self._checkpoint: Optional[Checkpoint] = None
        #: Checkpoints taken at sync points above the base, oldest
        #: first: the indexes the next cut may choose.
        self._candidates: list[Checkpoint] = []
        #: The shard's stable index: every replica has executed the log
        #: through it (the DL's minimum over SyncAcks; followers learn
        #: it from SyncLog).
        self._stable_index = 0
        #: Per other shard, its stable point ``(epoch, seq)`` as client
        #: requests relayed it.
        self._foreign_stable: dict[GroupId, tuple[int, int]] = {}
        #: The stable point this replica's replies last carried.
        self._stable_relayed = 0
        #: Index through which every multi-shard entry names only slots
        #: stable at their shards (the cut never re-scans below it).
        self._cut_clear = 0
        #: What cuts let go of and is not freed yet, newest last.
        self._graveyard: list = []

        self.txns_processed = 0
        self.drops_recovered_from_peer = 0
        self.drops_escalated_to_fc = 0
        self.fast_reads_served = 0

    # -- observability ----------------------------------------------------
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
    def is_dl(self) -> bool:
        addrs = self.shard_addrs
        return addrs[self.view_num % len(addrs)] == self.address

    def dl_address(self, view: Optional[int] = None) -> Address:
        view = self.view_num if view is None else view
        return self.shard_addrs[view % len(self.shard_addrs)]

    def _peers(self) -> list[Address]:
        return [a for a in self.shard_addrs if a != self.address]

    def _trace(self, event: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.record(event, self.address, shard=self.shard, **data)

    # -- shared steps -------------------------------------------------------
    def _append(self, slot: SlotId, record: Optional[TxnRecord]) -> LogEntry:
        """Log the next slot: the transaction, or a NO-OP when
        ``record`` is None."""
        entry = self.log.append_noop(slot) if record is None \
            else self.log.append_txn(slot, record)
        if self._graveyard:
            del self._graveyard[-2:]
        if self.tracer is not None:
            data = {"shard": self.shard, "index": entry.index,
                    "entry_kind": entry.kind,
                    "slot": _slot_fields(entry.slot),
                    "txn": _entry_txn(entry)}
            if record is not None:
                data["participants"] = list(record.txn.participants)
            self.tracer.record("log_append", self.address, **data)
        return entry

    def _feed_entry(self, entry: LogEntry, reply: bool = False) -> None:
        """Feed the engine the next entry in log order; with ``reply``,
        the result goes to the client (the DL's reply)."""
        if self._checkpoint is None:
            self._checkpoint = (0, self.store.snapshot(),
                                self.engine.table_snapshot())
        self.fed_index = entry.index
        if self.tracer is not None:
            self.tracer.record("apply", self.address, shard=self.shard,
                               index=entry.index, entry_kind=entry.kind,
                               slot=_slot_fields(entry.slot),
                               txn=_entry_txn(entry))
        # NO-OPs carry nothing to execute but stay in the fed record so
        # prefix-consistency checks see them.
        if entry.kind != "txn":
            return
        self.busy(self.config.execution_cost)
        on_done = None
        if reply:
            txn, index = entry.record.txn, entry.index
            on_done = lambda committed, result: self._reply(  # noqa: E731
                txn, index, committed, result)
        self.engine.feed(entry, on_done)

    def _catch_up_engine(self, reply: bool,
                         upto: Optional[int] = None) -> None:
        """Feed the unfed log prefix through index ``upto`` (the whole
        log by default)."""
        for entry in self.log.entries(self.fed_index + 1, upto):
            self._feed_entry(entry, reply)

    def _reply(self, txn: IndependentTransaction, index: int,
               committed: bool, result: Any) -> None:
        is_dl = self.is_dl
        stable = 0
        if is_dl and txn.is_distributed:
            # Each new stable point rides one reply; the client that
            # gets it relays it to the other shards.
            seq = self._stable_seq()
            if seq != self._stable_relayed:
                stable = self._stable_relayed = seq
        packet = self.send(txn.txn_id.client, TxnReply(
            txn_id=txn.txn_id, txn_index=index, view_num=self.view_num,
            epoch_num=self.epoch_num, shard=self.shard,
            replica_index=self.replica_index, is_dl=is_dl,
            committed=committed, result=result, stable=stable))
        tracer = self.tracer
        if tracer is not None and packet is not None:
            # The reply's causal id lets the span builder pair each
            # per-replica reply with its delivery at the client.
            tracer.record("reply", self.address, cause=packet.trace_id,
                          txn=txn.txn_id.label(), shard=self.shard,
                          replica=self.replica_index, is_dl=self.is_dl,
                          committed=committed)

    def _figure4_fields(self, all_drops: bool = True) -> dict:
        """The Figure 4 state a view or epoch change ships, as message
        fields: the log (its base and suffix) and the drop sets (the
        FC's EpochState takes the perm-drops only)."""
        fields = {"log": self.log.image(),
                  "perm_drops": frozenset(self.perm_drops)}
        if all_drops:
            fields["temp_drops"] = frozenset(self.temp_drops)
            fields["un_drops"] = frozenset(self.un_drops)
        return fields

    def _adopt_log(self, image: Sequence[LogEntry]) -> list[LogEntry]:
        """Install an agreed log (a shipped base + suffix) above this
        replica's own base; if it contradicts what this replica already
        executed, rebuild application state by replay from the base's
        checkpoint (the paper's application state transfer for
        rolled-back DLs). Returns the entries it replaced."""
        log = self.log
        base, _, suffix = split_image(image)
        if base > log.last_index:
            # Cut only once executed at every replica, so every log
            # reaches every base.
            raise InvariantViolation(
                f"{self.address} cannot adopt a log cut at index {base}: "
                f"its own log ends at {log.last_index}")
        # Below the agreed base lies a prefix every replica executed:
        # keep our own copy of it.
        entries = log.entries(log.base + 1, base) \
            + [entry for entry in suffix if entry.index > log.base]
        replaced = log.entries()
        mismatch = self.fed_index > log.base + len(entries) or any(
            (done.slot, done.kind) != (entry.slot, entry.kind)
            for done, entry in zip(log.entries(log.base + 1, self.fed_index),
                                   entries))
        log.replace(entries)
        self._cut_clear = log.base
        if self.tracer is not None:
            self.tracer.record(
                "log_adopt", self.address, shard=self.shard,
                rebuilt=mismatch, base=log.base,
                entries=[[e.index, e.kind, _entry_txn(e),
                          _slot_fields(e.slot)] for e in log])
        if mismatch:
            _, store, table = self._checkpoint
            self.store.load(store)
            self.engine.load_table(table)
            self.fed_index = log.base
            self._candidates = []
            if self.is_dl:
                self._catch_up_engine(reply=False)
        return replaced

    def _install(self, image: Sequence[LogEntry], event: str,
                 **trace) -> None:
        """Adopt an agreed log and resume normal processing: the common
        tail of the §6.4 view change and the §6.5 epoch change. The
        sub-protocols extend it to reset their own scratch state."""
        replaced = self._adopt_log(image)
        self.status = "normal"
        self._rederive(replaced)
        self._trace(event, view=self.view_num, epoch=self.epoch_num,
                    log_len=self.log.last_index, **trace)

    def _rederive(self, replaced: list[LogEntry]) -> None:
        """Re-derive from an adopted log everything this replica derives
        from its log, once, here:

        - the channel's position in its epoch: the slot after the
          log's last. Forward, it skips what the log holds; back, the
          packets this replica still holds for the rewound slots — the
          replaced entries and the delivery queue — are buffered for
          redelivery;
        - the delivery queue, whose slots the adopted log may hold;
        - ``_recovering``: a gap the adopted log closed is no gap;
        - the fast-read "caught up" test, which reads ``fed_index`` and
          the log (``FastReads._applied_watermark``).

        The drop sets are not derived from the log: they come with the
        agreed state (the merge, START-VIEW, START-EPOCH). In an epoch
        change the channel instead begins the new epoch
        (``EpochChangeProtocol.on_StartEpoch``).
        """
        channel = self.channel
        epoch = channel.epoch
        if epoch != self.epoch_num:
            return
        expected = self.log.last_seq(epoch) + 1
        if channel.next_seq > expected:
            held = [(entry.slot, entry.record) for entry in replaced]
            held.extend(self._delivery_queue)
            upcalls = channel.rewind(expected, {
                slot.seq: self._recovered_packet(record)
                for slot, record in held
                if slot.epoch == epoch and slot.seq >= expected})
        else:
            upcalls = channel.fast_forward(expected)
        self._delivery_queue.clear()
        for slot in list(self._recovering):
            if slot.epoch == epoch and slot.seq < channel.next_seq:
                self._cancel_recovery(slot)
        for upcall in upcalls:
            self._apply_upcall(upcall)

    def _recovered_packet(self, record: Optional[TxnRecord]
                          ) -> Optional[Packet]:
        """A sequenced packet rebuilt from a log record, for the
        channel to (re)deliver; None for a dropped slot."""
        if record is None:
            return None
        return Packet(src="recovered", dst=self.address,
                      payload=IndependentTxnRequest(record.txn),
                      multistamp=record.multistamp)

    # -- the §6.6 checkpoint and cut ----------------------------------------
    def _checkpoint_step(self, stable: int) -> None:
        """A sync step's share of the cut: learn the shard's stable
        index, cut at or below it, and take a candidate for a later
        cut."""
        self._stable_index = max(self._stable_index, stable)
        self._advance_cut()
        self._take_candidate()

    def _take_candidate(self) -> None:
        """Checkpoint the engine at the fed index, for a later cut; only
        when every fed entry has run and no lock is held."""
        index = self.fed_index
        candidates = self._candidates
        since = candidates[-1][0] if candidates else self.log.base
        if index < since + CANDIDATE_SPACING or not self.engine.quiescent \
                or len(candidates) >= MAX_CANDIDATES:
            return
        candidates.append((index, self.store.snapshot(),
                           self.engine.table_snapshot()))

    def _advance_cut(self) -> None:
        """Cut the log at the highest candidate the cut rule allows: at
        or below the shard's stable index, and below every multi-shard
        entry naming a slot not yet stable at its shard."""
        limit = min(self._stable_index, self.fed_index)
        if limit <= self.log.base or not self._candidates:
            return
        limit = self._clear_through(limit)
        chosen = None
        while self._candidates and self._candidates[0][0] <= limit:
            chosen = self._candidates.pop(0)
        if chosen is None or chosen[0] <= self.log.base:
            return
        index = chosen[0]
        # What the cut lets go of — its entries and the checkpoint it
        # replaces — is freed a few objects per append (_append), not
        # all at once on this sync step.
        self._graveyard.extend(self.log.cut(index))
        self._graveyard.append(self._checkpoint)
        self._checkpoint = chosen
        self._trace("log_cut", base=index)

    def _clear_through(self, limit: int) -> int:
        """The highest index up to ``limit`` below which every entry's
        multi-stamp names only slots stable at their shards."""
        foreign = self._foreign_stable
        for entry in self.log.multi_shard_entries():
            if entry.index <= self._cut_clear:
                continue
            if entry.index > limit:
                break
            stamp = entry.record.multistamp
            own = entry.slot.shard
            for gid, seq in stamp.stamps:
                if gid != own and foreign.get(gid, (0, 0)) < (stamp.epoch,
                                                               seq):
                    self._cut_clear = entry.index - 1
                    return self._cut_clear
        self._cut_clear = max(self._cut_clear, limit)
        return limit

    def _learn_foreign_stable(self, points: tuple) -> None:
        """Take in the stable points a client request relays, flat as
        ``(shard, epoch, seq, ...)``."""
        own = self.channel.group
        for i in range(0, len(points) - 2, 3):
            shard, point = points[i], (points[i + 1], points[i + 2])
            if shard != own and point > self._foreign_stable.get(shard,
                                                                 (0, 0)):
                self._foreign_stable[shard] = point

    def _stable_seq(self) -> int:
        """The shard's stable point as a DL reply relays it: the
        sequence number of the stable index's slot, if in this epoch."""
        slot = self.log.slot_at(self._stable_index)
        if slot is None or slot.epoch != self.epoch_num:
            return 0
        return slot.seq

    def _become_role(self) -> None:
        """Arm the timers of this replica's role in the current view: a
        DL syncs its followers, and first executes what it has not (a
        new DL executes everything); a follower watches for the DL's
        heartbeat."""
        if self.is_dl:
            self._vc_timer.stop()
            self._sync_timer.start()
            self._catch_up_engine(reply=True)
        else:
            self._sync_timer.stop()
            self._vc_timer.restart()
