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

The log is bounded by a §6.6 checkpoint (DESIGN.md, "Bounded replica
logs"): once a prefix is executed at every replica of the shard, and
every slot its multi-stamps name is stable at that participant shard,
the replica cuts it. What remains is a *base* — the index and slot of
the last cut entry — plus the suffix above it, and a :class:`CutSummary`
of the cut prefix for the §6.7 checkers. A log shipped in a view or
epoch change is :meth:`ErisLog.image`: the suffix, led by a
``kind="base"`` marker entry when the sender has cut anything.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence

from repro.core.messages import TxnRecord
from repro.core.transaction import SlotId, TxnId
from repro.net.message import GroupId, MultiStamp

#: ``LogEntry.kind`` of the marker that leads a shipped log whose
#: sender has cut a prefix: its index and slot are the base's, and it
#: carries no record.
BASE = "base"


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One slot. ``record.txn is None`` never happens for kind='txn';
    NO-OP entries keep the slot identity but no transaction."""

    index: int          # 1-based position in this replica's log
    slot: SlotId        # (shard, epoch, shard-sequence-number)
    kind: str           # "txn" | "noop" | "base" (shipped logs only)
    record: Optional[TxnRecord]

    @property
    def is_noop(self) -> bool:
        return self.kind == "noop"

    def as_noop(self) -> "LogEntry":
        return LogEntry(index=self.index, slot=self.slot, kind="noop",
                        record=None)


# -- the cut prefix, summarized ---------------------------------------------

_DIGEST_MOD = (1 << 61) - 1
_DIGEST_MUL = 0x5DEECE66D


def fold_digest(digest: int, entries: Iterable[LogEntry]) -> int:
    """Extend a log-prefix digest by the ``(slot, kind)`` of each of
    ``entries``: a polynomial rolling hash, so the digest of a prefix
    does not depend on where it was cut, and equal across processes
    (no ``hash()``)."""
    for entry in entries:
        slot = entry.slot
        digest = (digest * _DIGEST_MUL + ((slot.epoch << 33)
                                          | (slot.seq << 1)
                                          | (entry.kind == "noop"))) \
            % _DIGEST_MOD
    return digest


def _packed(order: array) -> bytes:
    if sys.byteorder != "little":
        order = array(order.typecode, order)
        order.byteswap()
    return order.tobytes()


@dataclass(frozen=True)
class CutSummary:
    """What the §6.7 checkers keep of a replica's cut prefix: its
    length and last slot, a digest over its ``(slot, kind)`` sequence,
    and the commit order of its multi-shard transactions as
    ``(txn_id, participants)`` pairs, packed as little-endian int64
    triples ``(client, seq, participants)`` whose first and last name
    a position in ``table``. A single-shard transaction sits between
    two others in one shard's order only, so leaving it out keeps every
    cross-shard cycle and every missing participant."""

    base: int = 0
    base_slot: Optional[SlotId] = None
    digest: int = 0
    table: tuple = ()
    order: bytes = b""

    def txns(self) -> Iterator[tuple[TxnId, tuple]]:
        """The cut prefix's logged multi-shard transactions, in log
        order."""
        order = array("q")
        order.frombytes(self.order)
        if sys.byteorder != "little":
            order.byteswap()
        table = self.table
        for i in range(0, len(order), 3):
            yield TxnId(table[order[i]], order[i + 1]), table[order[i + 2]]


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
    #: Index of the last log entry fed to the execution engine (the
    #: checkers compare stores only for fully caught-up replicas).
    fed: int
    #: The log above its base, as the protocol's own LogEntry
    #: dataclasses.
    entries: tuple[LogEntry, ...]
    #: Store contents as (key, value) pairs sorted by key: a canonical,
    #: hashable form of the store, as a frozen dataclass field needs.
    store: tuple[tuple[Any, Any], ...]
    status: str = "normal"
    #: The ``libsequencer`` channel as ``(epoch, next_seq)``, net of
    #: deliveries queued behind an undecided temp-drop: the next slot
    #: this replica will log.
    channel: tuple[int, int] = (1, 1)
    #: The cut prefix below ``entries``.
    cut: CutSummary = field(default_factory=CutSummary)

    @property
    def last_index(self) -> int:
        return self.cut.base + len(self.entries)

    @classmethod
    def of(cls, replica) -> "ReplicaSnapshot":
        """Capture a live :class:`~repro.core.replica.ErisReplica`."""
        channel = replica.channel
        queued = sum(1 for slot, _ in replica._delivery_queue
                     if slot.epoch == channel.epoch)
        return cls(
            address=replica.address,
            shard=replica.shard,
            replica_index=replica.replica_index,
            view_num=replica.view_num,
            is_dl=replica.is_dl,
            crashed=replica.crashed,
            fed=replica.fed_index,
            entries=tuple(replica.log),
            store=tuple(sorted(replica.store.snapshot().items())),
            status=replica.status,
            channel=(channel.epoch, channel.next_seq - queued),
            cut=replica.log.summary(),
        )


class ErisLog:
    """Gapless log for one shard replica: a cut prefix (the base) and
    the entries above it."""

    def __init__(self, shard: GroupId):
        self.shard = shard
        #: Index and slot of the last cut entry (0 and None before the
        #: first cut).
        self.base = 0
        self.base_slot: Optional[SlotId] = None
        self._entries: list[LogEntry] = []
        # The multi-shard entries above the base, in log order, and
        # per other (group, epoch) the seqs their multi-stamps name
        # there: the recovery protocols' O(1) foreign-slot lookup.
        self._multi: deque[LogEntry] = deque()
        self._stamp_index: dict[tuple[GroupId, int], dict[int, LogEntry]] = {}
        # The cut prefix's digest, and every logged multi-shard
        # transaction as an int64 triple (client, seq, participants)
        # whose string and tuple are coded by _codes; the first
        # _base_mark values are the cut prefix's.
        self._digest = 0
        self._order = array("q")
        self._base_mark = 0
        self._codes: dict[Hashable, int] = {}
        self._table: list = []

    def _add(self, entry: LogEntry) -> LogEntry:
        self._entries.append(entry)
        record = entry.record
        if record is not None and len(record.multistamp.stamps) > 1:
            self._multi.append(entry)
            stamp = record.multistamp
            own = entry.slot.shard
            for gid, seq in stamp.stamps:
                if gid != own:
                    group = self._stamp_index.get((gid, stamp.epoch))
                    if group is None:
                        group = self._stamp_index[gid, stamp.epoch] = {}
                    group[seq] = entry
            txn = record.txn
            self._order.extend((self._code(txn.txn_id.client),
                                txn.txn_id.seq,
                                self._code(txn.participants)))
        return entry

    def _code(self, value: Hashable) -> int:
        code = self._codes.get(value)
        if code is None:
            code = self._codes[value] = len(self._table)
            self._table.append(value)
        return code

    def append_txn(self, slot: SlotId, record: TxnRecord) -> LogEntry:
        return self._add(LogEntry(
            index=self.base + len(self._entries) + 1, slot=slot,
            kind="txn", record=record))

    def append_noop(self, slot: SlotId) -> LogEntry:
        return self._add(LogEntry(
            index=self.base + len(self._entries) + 1, slot=slot,
            kind="noop", record=None))

    def get(self, index: int) -> Optional[LogEntry]:
        """The entry at ``index``; None past the end or at or below the
        base."""
        if self.base < index <= self.last_index:
            return self._entries[index - self.base - 1]
        return None

    def find_slot(self, slot: SlotId) -> Optional[LogEntry]:
        """Entry whose own slot matches (this shard's sequence space).
        The log is epoch-monotone and gapless within an epoch, so the
        slot's position follows from the last entry of its epoch."""
        entries = self._entries
        if not entries or entries[-1].slot.shard != slot.shard:
            return None
        last = entries[-1].slot
        if last.epoch == slot.epoch:
            position = len(entries) - 1 - (last.seq - slot.seq)
        else:
            position = bisect_left(entries, (slot.epoch, slot.seq),
                                   key=_position)
        if 0 <= position < len(entries) and entries[position].slot == slot:
            return entries[position]
        return None

    def slot_at(self, index: int) -> Optional[SlotId]:
        """The slot at ``index``, the base's included (None at 0)."""
        if index == self.base:
            return self.base_slot
        entry = self.get(index)
        return entry.slot if entry is not None else None

    def find_stamped(self, slot: SlotId) -> Optional[LogEntry]:
        """Entry whose *multi-stamp* covers ``slot`` — answers foreign
        shards' TXN-REQUESTs."""
        entry = self._stamp_index.get((slot.shard, slot.epoch), {}).get(
            slot.seq)
        if entry is None:
            entry = self.find_slot(slot)
        if entry is not None and entry.record is not None:
            return entry
        return None

    def is_cut(self, slot: SlotId) -> bool:
        """Does the cut prefix hold this own-shard ``slot``?"""
        base = self.base_slot
        return base is not None and slot.shard == base.shard \
            and (slot.epoch, slot.seq) <= (base.epoch, base.seq)

    def multi_shard_entries(self) -> Iterator[LogEntry]:
        """The entries above the base whose multi-stamps name other
        shards, in log order."""
        return iter(self._multi)

    def entries(self, start_index: int = 1,
                end_index: Optional[int] = None) -> list[LogEntry]:
        """Entries ``start_index..end_index`` (inclusive, 1-based; to
        the end of the log when ``end_index`` is None), from the base
        up: a cut entry is not returned."""
        offset = self.base + 1
        start = max(start_index, offset) - offset
        if end_index is None:
            return self._entries[start:]
        return self._entries[start:max(0, end_index - self.base)]

    def image(self) -> tuple[LogEntry, ...]:
        """The log as a view or epoch change ships it: a base marker
        (once something is cut) and the entries above it."""
        if self.base == 0:
            return tuple(self._entries)
        return (LogEntry(self.base, self.base_slot, BASE, None),
                *self._entries)

    def replace(self, entries: list[LogEntry]) -> None:
        """Adopt a merged log's entries above this log's base (view
        change / epoch change). Re-indexes defensively so positions
        run on from the base."""
        base = self.base
        self._entries = []
        self._multi.clear()
        self._stamp_index.clear()
        del self._order[self._base_mark:]
        for i, e in enumerate(entries):
            self._add(LogEntry(index=base + i + 1, slot=e.slot, kind=e.kind,
                               record=e.record))

    def cut(self, index: int) -> list[LogEntry]:
        """Cut the prefix through ``index``: its entries leave the log
        and its index, and only the summary keeps them. Returns them."""
        count = index - self.base
        if count <= 0:
            return []
        cut = self._entries[:count]
        del self._entries[:count]
        self._digest = fold_digest(self._digest, cut)
        self.base = index
        self.base_slot = cut[-1].slot
        multi, stamp_index = self._multi, self._stamp_index
        while multi and multi[0].index <= index:
            entry = multi.popleft()
            self._base_mark += 3
            stamp = entry.record.multistamp
            for gid, seq in stamp.stamps:
                group = stamp_index.get((gid, stamp.epoch))
                if group is not None and group.get(seq) is entry:
                    del group[seq]
                    if not group:
                        del stamp_index[gid, stamp.epoch]
        return cut

    def summary(self) -> CutSummary:
        """The cut prefix as the checkers read it."""
        return CutSummary(base=self.base, base_slot=self.base_slot,
                          digest=self._digest, table=tuple(self._table),
                          order=_packed(self._order[:self._base_mark]))

    def overwrite_noop(self, index: int) -> None:
        """Replace the entry at ``index`` with a NO-OP (perm-drop during
        view-change merge)."""
        entries = list(self._entries)
        position = index - self.base - 1
        entries[position] = entries[position].as_noop()
        self.replace(entries)

    @property
    def last_index(self) -> int:
        return self.base + len(self._entries)

    def last_seq(self, epoch: int) -> int:
        """Highest own-shard sequence number logged for ``epoch``."""
        return last_seq_of(self._entries, epoch, self.base_slot)

    def __len__(self) -> int:
        """Positions logged, the cut ones included."""
        return self.last_index

    def __iter__(self) -> Iterator[LogEntry]:
        """The entries above the base."""
        return iter(self._entries)


def _position(entry: LogEntry) -> tuple[int, int]:
    return entry.slot.epoch, entry.slot.seq


def last_index_of(log: Sequence[LogEntry]) -> int:
    """Last position of a shipped log (0 when it is empty)."""
    return log[-1].index if log else 0


def split_image(log: Sequence[LogEntry]
                ) -> tuple[int, Optional[SlotId], list[LogEntry]]:
    """A shipped log as ``(base, base slot, entries above the base)``."""
    if log and log[0].kind == BASE:
        return log[0].index, log[0].slot, list(log[1:])
    return 0, None, list(log)


def merge_logs(logs: list[Sequence[LogEntry]],
               perm_drops: frozenset) -> list[LogEntry]:
    """View-change merge (§6.4): take the longest log received, then
    overwrite any transaction matching a perm-dropped slot with NO-OP.

    ``logs`` holds shipped logs (:meth:`ErisLog.image`), as VIEW-CHANGE
    messages carry them; the result is one too, its base the longest
    log's. Logs within one epoch are prefix-consistent except for
    txn-vs-NO-OP divergence at slots the FC dropped, which the
    perm-drop overwrite resolves.
    """
    longest: Sequence[LogEntry] = ()
    for log in logs:
        if last_index_of(log) > last_index_of(longest):
            longest = log
    base, base_slot, suffix = split_image(longest)
    merged: list[LogEntry] = [] if base == 0 \
        else [LogEntry(base, base_slot, BASE, None)]
    for i, entry in enumerate(suffix):
        if entry.kind == "txn" and stamp_hits(entry.record.multistamp,
                                              perm_drops):
            entry = entry.as_noop()
        merged.append(LogEntry(index=base + i + 1, slot=entry.slot,
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


def last_seq_of(entries, epoch: int,
                base_slot: Optional[SlotId] = None) -> int:
    """Highest own-shard sequence number among ``entries``, the entries
    above a base at ``base_slot``, for ``epoch`` (0 when there is
    none)."""
    for entry in reversed(entries):
        if entry.slot.epoch == epoch:
            return entry.slot.seq
    if base_slot is not None and base_slot.epoch == epoch:
        return base_slot.seq
    return 0
