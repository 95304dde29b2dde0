"""Wire messages of the Eris protocol (Sections 6.2–6.6).

Message names follow the paper: REPLY, FIND-TXN, TXN-REQUEST, HAS-TXN,
TEMP-DROPPED-TXN, TXN-FOUND, TXN-DROPPED, VIEW-CHANGE, START-VIEW,
EPOCH-CHANGE-REQ, START-EPOCH, plus the synchronization messages of
§6.6 and the intra-shard peer-recovery optimization of §6.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.net.message import Address, GroupId, MultiStamp


# -- normal case (§6.2) --------------------------------------------------

@dataclass(frozen=True)
class IndependentTxnRequest:
    """Client → shards, via multi-sequenced groupcast.

    ``stable`` relays the shard stable points the client learned from
    DL replies since its previous request, flat as ``(shard, epoch,
    seq, ...)``: every replica of ``shard`` has executed its log
    through slot ``(epoch, seq)``. Replicas of other shards read it to
    cut multi-shard entries (DESIGN.md, "Bounded replica logs"). It is
    not logged.
    """

    txn: IndependentTransaction
    stable: Optional[tuple] = None


@dataclass(frozen=True)
class TxnReply:
    """Replica → client. Only the DL carries an execution result."""

    txn_id: TxnId
    txn_index: int
    view_num: int
    epoch_num: int
    shard: GroupId
    replica_index: int
    is_dl: bool
    committed: bool = True
    result: Any = None
    #: On the first of a DL's replies to multi-shard transactions since
    #: its shard's stable point moved: that point, the highest sequence
    #: number of ``epoch_num`` every replica of the shard has executed
    #: (0: nothing new).
    stable: int = 0


# -- drop recovery (§6.3) ----------------------------------------------

@dataclass(frozen=True)
class PeerTxnRequest:
    """Replica → same-shard peers: do you have my missing message?"""

    slot: SlotId
    sender: Address


@dataclass(frozen=True)
class PeerTxnResponse:
    """Positive answers carry the logged transaction and its stamp;
    ``entry=None`` means 'I do not have it either'. ``dropped`` reports
    that this peer already knows the slot was permanently dropped."""

    slot: SlotId
    entry: Optional["TxnRecord"]
    sender: Address
    dropped: bool = False


@dataclass(frozen=True, slots=True)
class TxnRecord:
    """A transaction plus the multi-stamp it was sequenced with —
    enough for any other node to slot it into its own log."""

    txn: Optional[IndependentTransaction]
    multistamp: MultiStamp


@dataclass(frozen=True)
class FindTxn:
    """Replica → FC: recover (or drop) the message at ``slot``."""

    slot: SlotId
    sender: Address


@dataclass(frozen=True)
class TxnRequestMsg:
    """FC → all replicas of all shards."""

    slot: SlotId


@dataclass(frozen=True)
class HasTxn:
    """Replica → FC: here is the transaction matching the slot.
    ``record=None`` answers for a slot this replica has cut: every
    replica of its shard executed it, so the find is stale."""

    slot: SlotId
    record: Optional[TxnRecord]
    sender: Address


@dataclass(frozen=True)
class TempDroppedTxn:
    """Replica → FC: a drop promise; the replica cedes the slot's fate
    to the FC."""

    slot: SlotId
    shard: GroupId
    view_num: int
    epoch_num: int
    sender: Address
    replica_index: int
    is_dl: bool


@dataclass(frozen=True)
class TxnFound:
    """FC → participants: the transaction was recovered."""

    slot: SlotId
    record: TxnRecord


@dataclass(frozen=True)
class TxnDropped:
    """FC → all replicas: the slot is permanently dropped."""

    slot: SlotId


# -- view change (§6.4) ----------------------------------------------

@dataclass(frozen=True)
class ViewChange:
    """Replica → prospective DL of ``new_view``."""

    shard: GroupId
    new_view: int
    epoch_num: int
    log: tuple            # tuple[LogEntry-as-record, ...]
    temp_drops: frozenset
    perm_drops: frozenset
    un_drops: frozenset
    sender: Address


@dataclass(frozen=True)
class StartView:
    """New DL → shard replicas: adopt this state."""

    shard: GroupId
    view_num: int
    epoch_num: int
    log: tuple
    temp_drops: frozenset
    perm_drops: frozenset
    un_drops: frozenset


# -- epoch change (§6.5) ----------------------------------------------

@dataclass(frozen=True)
class EpochChangeReq:
    """Replica → FC: a NEW-EPOCH notification arrived."""

    shard: GroupId
    new_epoch: int
    sender: Address


@dataclass(frozen=True)
class EpochStateRequest:
    """FC → all replicas: send state, promise to reject older epochs."""

    new_epoch: int


@dataclass(frozen=True)
class EpochState:
    """Replica → FC: current state plus the promise."""

    shard: GroupId
    new_epoch: int
    last_normal_epoch: int
    view_num: int
    log: tuple
    perm_drops: frozenset
    sender: Address


@dataclass(frozen=True)
class StartEpoch:
    """FC → replicas of one shard: the shard's state in the new epoch."""

    shard: GroupId
    new_epoch: int
    view_num: int
    log: tuple


@dataclass(frozen=True)
class StartEpochAck:
    shard: GroupId
    new_epoch: int
    sender: Address


# -- reconnaissance queries (§7.1) ---------------------------------------

@dataclass(frozen=True)
class ReconRead:
    """Client → replica: single-message, non-transactional read used to
    discover the read/write sets of state-dependent transactions."""

    key: Any


@dataclass(frozen=True)
class ReconReply:
    key: Any
    value: Any


# -- synchronization (§6.6) ---------------------------------------------

@dataclass(frozen=True)
class SyncLog:
    """DL → replica: the safe-to-execute point plus the log entries the
    replica has demonstrably missed (usually none). Doubles as the DL
    liveness heartbeat."""

    shard: GroupId
    view_num: int
    epoch_num: int
    from_index: int       # 1-based index of entries[0] in the DL's log
    entries: tuple
    commit_upto: int
    #: The shard's stable index: every replica has executed through it.
    stable: int = 0


@dataclass(frozen=True)
class SyncAck:
    shard: GroupId
    view_num: int
    epoch_num: int
    log_len: int
    sender: Address
    #: Index of the last entry this follower has executed.
    applied: int = 0


# -- coordination-free read fast path ------------------------------------

@dataclass(frozen=True)
class AppliedUpto:
    """Replica → sequencing element: execution watermark (dirty-set
    clear rule).

    Sent as an *unstamped* sequenced groupcast so it is routed to
    whatever element currently stamps for the shard (the first
    sequencer or a standby after failover), which absorbs it without
    assigning a sequence number. ``upto`` is the
    highest sequence number of ``epoch`` this replica has fed to its
    execution engine; because logs are epoch-monotone and in-epoch
    sequence numbers are contiguous, one (epoch, seq) pair summarizes
    the whole applied prefix.
    """

    shard: GroupId
    epoch: int
    upto: int
    sender: Address


@dataclass(frozen=True)
class FastReadRequest:
    """Sequencing element → one replica: serve a clean READ_ONLY
    transaction without stamping it (Harmonia-style fast read).

    Only sent when the dirty-set check passed: every in-flight write
    conflicting with ``txn.read_keys`` has been applied by *all*
    replicas of the shard, so any single replica's store already
    reflects every committed conflicting write. ``min_epoch`` is the
    sequencer's epoch at check time; a replica that has not reached it
    must not serve the read.
    """

    txn: IndependentTransaction
    min_epoch: int


@dataclass(frozen=True)
class FastReadReply:
    """Replica → client: result of a fast read. A single reply
    completes the transaction — no quorum is collected."""

    txn_id: TxnId
    shard: GroupId
    committed: bool
    result: Any
    #: The serving replica's applied watermark when it executed the
    #: read (its serialization point, recorded for the §6.7 checkers).
    epoch_num: int
    applied_seq: int
