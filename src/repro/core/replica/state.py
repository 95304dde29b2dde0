"""Figure 4 replica state and the steps the §6 sub-protocols share.

:class:`ReplicaState` holds what Figure 4 lists — status, view-num,
epoch-num, the log, temp-, perm- and un-drops — plus the machinery
every sub-protocol reads: the ``libsequencer`` channel, the execution
engine, the fed prefix and the in-order delivery queue. Its methods
are the steps two or more sub-protocols take: append, feed, reply,
catch up, adopt an agreed log, and take up the DL or follower role.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.core.engine import ExecutionEngine
from repro.core.log import ErisLog, LogEntry
from repro.core.messages import TxnRecord, TxnReply
from repro.core.transaction import IndependentTransaction, SlotId
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
        #: The store as loaded, taken before the first entry runs (the
        #: loader fills stores after the replicas are built): what a
        #: replay after a contradicting log restarts from.
        self.initial_snapshot: Optional[dict] = None
        self.engine = ExecutionEngine(store, registry, shard, owns,
                                      clock=lambda: self.now)
        self._fed: list[LogEntry] = []   # the entries fed so far, in order
        self._delivery_queue: deque[tuple[SlotId, Optional[TxnRecord]]] = deque()

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
        if self.initial_snapshot is None:
            self.initial_snapshot = self.store.snapshot()
        self._fed.append(entry)
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
        upto = self.log.last_index if upto is None else upto
        while len(self._fed) < upto:
            self._feed_entry(self.log.get(len(self._fed) + 1), reply)

    def _reply(self, txn: IndependentTransaction, index: int,
               committed: bool, result: Any) -> None:
        packet = self.send(txn.txn_id.client, TxnReply(
            txn_id=txn.txn_id, txn_index=index, view_num=self.view_num,
            epoch_num=self.epoch_num, shard=self.shard,
            replica_index=self.replica_index, is_dl=self.is_dl,
            committed=committed, result=result))
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
        fields: the whole log and the drop sets (the FC's EpochState
        takes the perm-drops only)."""
        fields = {"log": tuple(self.log.entries()),
                  "perm_drops": frozenset(self.perm_drops)}
        if all_drops:
            fields["temp_drops"] = frozenset(self.temp_drops)
            fields["un_drops"] = frozenset(self.un_drops)
        return fields

    def _adopt_log(self, entries: list[LogEntry]) -> None:
        """Install a merged log; if it contradicts what this replica
        already executed, rebuild application state by replay (the
        paper's application state transfer for rolled-back DLs)."""
        fed = len(self._fed)
        mismatch = fed > len(entries) or any(
            (done.slot, done.kind) != (entry.slot, entry.kind)
            for done, entry in zip(self._fed, entries))
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
        else:
            # Same prefix: hold the adopted entries, not the replaced.
            self._fed = self.log.entries(1, fed)

    def _install(self, entries: list[LogEntry], event: str,
                 **trace) -> None:
        """Adopt an agreed log and resume normal processing: the common
        tail of the §6.4 view change and the §6.5 epoch change. The
        sub-protocols extend it to reset their own scratch state."""
        self._adopt_log(entries)
        self.status = "normal"
        self._trace(event, view=self.view_num, epoch=self.epoch_num,
                    log_len=self.log.last_index, **trace)

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
