"""The Eris replica log.

Slots are filled strictly in sequence order: log position *i* within an
epoch holds either the transaction the sequencer assigned that shard's
sequence number to, or a NO-OP for a permanently dropped slot. The log
therefore never has holes — drop recovery completes (with a recovered
transaction or a NO-OP) before later slots are appended.

Entries also record the multi-stamp, so a replica can answer
TXN-REQUESTs for *other shards'* slots (§5.3's second multi-stamp
purpose): a transaction logged here under our sequence number carries
the sequence numbers of every other participant too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.core.messages import TxnRecord
from repro.core.transaction import SlotId
from repro.net.message import GroupId, MultiStamp


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One slot. ``record.txn is None`` never happens for kind='txn';
    NO-OP entries keep the slot identity but no transaction."""

    index: int          # 1-based position in this replica's log
    slot: SlotId        # (shard, epoch, shard-sequence-number)
    kind: str           # "txn" | "noop"
    record: Optional[TxnRecord]

    @property
    def is_noop(self) -> bool:
        return self.kind == "noop"

    def as_noop(self) -> "LogEntry":
        return LogEntry(index=self.index, slot=self.slot, kind="noop",
                        record=None)


@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's end state as the §6.7 checkers read it: the only
    state evidence they take, whether captured in this process or
    shipped from a worker over the per-node control plane."""

    address: str
    shard: int
    replica_index: int
    view_num: int
    is_dl: bool
    crashed: bool
    #: Number of log entries fed to the execution engine (the checkers
    #: compare stores only for fully caught-up replicas).
    fed: int
    #: The full log, as the protocol's own LogEntry dataclasses.
    entries: tuple[LogEntry, ...]
    #: Store contents as (key, value) pairs sorted by key: a canonical,
    #: hashable form of the store, as a frozen dataclass field needs.
    store: tuple[tuple[Any, Any], ...]

    @classmethod
    def of(cls, replica) -> "ReplicaSnapshot":
        """Capture a live :class:`~repro.core.replica.ErisReplica`."""
        return cls(
            address=replica.address,
            shard=replica.shard,
            replica_index=replica.replica_index,
            view_num=replica.view_num,
            is_dl=replica.is_dl,
            crashed=replica.crashed,
            fed=len(replica._fed),
            entries=tuple(replica.log),
            store=tuple(sorted(replica.store.snapshot().items())),
        )


class ErisLog:
    """Append-only, gapless log for one shard replica."""

    def __init__(self, shard: GroupId):
        self.shard = shard
        self._entries: list[LogEntry] = []
        # O(1) lookups for the recovery protocols: own-slot entries, and
        # per other (group, epoch) the seqs its multi-stamps name there.
        self._slot_index: dict[SlotId, LogEntry] = {}
        self._stamp_index: dict[tuple[GroupId, int], dict[int, LogEntry]] = {}

    def _index(self, entry: LogEntry) -> None:
        own = entry.slot
        self._slot_index[own] = entry
        if entry.record is not None:
            stamp = entry.record.multistamp
            for gid, seq in stamp.stamps:
                if gid != own.shard:
                    group = self._stamp_index.get((gid, stamp.epoch))
                    if group is None:
                        group = self._stamp_index[gid, stamp.epoch] = {}
                    group[seq] = entry

    def append_txn(self, slot: SlotId, record: TxnRecord) -> LogEntry:
        entry = LogEntry(index=len(self._entries) + 1, slot=slot,
                         kind="txn", record=record)
        self._entries.append(entry)
        self._index(entry)
        return entry

    def append_noop(self, slot: SlotId) -> LogEntry:
        entry = LogEntry(index=len(self._entries) + 1, slot=slot,
                         kind="noop", record=None)
        self._entries.append(entry)
        self._index(entry)
        return entry

    def get(self, index: int) -> Optional[LogEntry]:
        if 1 <= index <= len(self._entries):
            return self._entries[index - 1]
        return None

    def find_slot(self, slot: SlotId) -> Optional[LogEntry]:
        """Entry whose own slot matches (this shard's sequence space)."""
        return self._slot_index.get(slot)

    def find_stamped(self, slot: SlotId) -> Optional[LogEntry]:
        """Entry whose *multi-stamp* covers ``slot`` — answers foreign
        shards' TXN-REQUESTs."""
        entry = self._stamp_index.get((slot.shard, slot.epoch), {}).get(
            slot.seq)
        if entry is None:
            entry = self._slot_index.get(slot)
        if entry is not None and entry.record is not None:
            return entry
        return None

    def entries(self, start_index: int = 1,
                end_index: Optional[int] = None) -> list[LogEntry]:
        """Entries ``start_index..end_index`` (inclusive, 1-based; to
        the end of the log when ``end_index`` is None)."""
        return self._entries[start_index - 1:end_index]

    def replace(self, entries: list[LogEntry]) -> None:
        """Adopt a merged log (view change / epoch change). Re-indexes
        defensively so positions are always 1..n."""
        self._entries = [
            LogEntry(index=i + 1, slot=e.slot, kind=e.kind, record=e.record)
            for i, e in enumerate(entries)
        ]
        self._slot_index.clear()
        self._stamp_index.clear()
        for entry in self._entries:
            self._index(entry)

    def overwrite_noop(self, index: int) -> None:
        """Replace the entry at ``index`` with a NO-OP (perm-drop during
        view-change merge)."""
        entry = self._entries[index - 1]
        noop = entry.as_noop()
        self._entries[index - 1] = noop
        self._slot_index[noop.slot] = noop

    @property
    def last_index(self) -> int:
        return len(self._entries)

    def last_seq(self, epoch: int) -> int:
        """Highest own-shard sequence number logged for ``epoch``."""
        return last_seq_of(self._entries, epoch)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)


def merge_logs(logs: list[tuple], perm_drops: frozenset) -> list[LogEntry]:
    """View-change merge (§6.4): take the longest log received, then
    overwrite any transaction matching a perm-dropped slot with NO-OP.

    ``logs`` holds tuples of LogEntry as shipped in VIEW-CHANGE
    messages. Logs within one epoch are prefix-consistent except for
    txn-vs-NO-OP divergence at slots the FC dropped, which the
    perm-drop overwrite resolves.
    """
    longest: tuple = ()
    for log in logs:
        if len(log) > len(longest):
            longest = log
    merged: list[LogEntry] = []
    for i, entry in enumerate(longest):
        if entry.kind == "txn" and stamp_hits(entry.record.multistamp,
                                              perm_drops):
            entry = entry.as_noop()
        merged.append(LogEntry(index=i + 1, slot=entry.slot,
                               kind=entry.kind, record=entry.record))
    return merged


def stamped_slots(stamp: MultiStamp) -> list[SlotId]:
    """Every slot a multi-stamp names: one (group, epoch, seq) per
    participant group. A drop decided for any one of them drops the
    transaction everywhere, and an entry logged under one of them
    answers TXN-REQUESTs for all of them (§5.3)."""
    epoch = stamp.epoch
    return [SlotId(gid, epoch, seq) for gid, seq in stamp.stamps]


def stamp_hits(stamp: MultiStamp, slots) -> bool:
    """Does ``stamp`` name any slot in the set ``slots``?"""
    return bool(slots) and not slots.isdisjoint(stamped_slots(stamp))


def last_seq_of(entries, epoch: int) -> int:
    """Highest own-shard sequence number among ``entries`` for
    ``epoch`` (0 when there is none)."""
    for entry in reversed(entries):
        if entry.slot.epoch == epoch:
            return entry.slot.seq
    return 0
