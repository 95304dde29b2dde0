"""The Failure Coordinator (§6.3, §6.5).

The FC is the off-normal-path service that makes two kinds of global
decisions:

- **Drop agreement** — on a FIND-TXN it broadcasts TXN-REQUEST to every
  replica of every shard and waits for either one HAS-TXN (the
  transaction survives: TXN-FOUND to all participants) or a
  view-consistent quorum of TEMP-DROPPED-TXN promises from *every*
  shard (the slot is permanently dropped: TXN-DROPPED to everyone).
  Decisions are remembered forever: a HAS-TXN arriving after a drop
  decision is answered with the drop (§6.3 step 4).

- **Epoch change** — it collects state-plus-promise from a majority of
  every shard, rebuilds each shard's log (highest view; longest log;
  cross-shard completion so no shard knows a transaction that a
  participant's new log omits; previously-dropped slots as NO-OPs), and
  retransmits START-EPOCH until a majority of each shard acks.

The paper replicates the FC "using standard means"; because it is only
ever touched on failure paths, we run it as one logically centralized
service node (see DESIGN.md) and focus testing on the recovery logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.log import (
    LogEntry,
    last_index_of,
    last_seq_of,
    merge_logs,
    stamp_hits,
    stamped_slots,
)
from repro.core.messages import (
    EpochChangeReq,
    EpochState,
    EpochStateRequest,
    FindTxn,
    HasTxn,
    StartEpoch,
    StartEpochAck,
    TempDroppedTxn,
    TxnDropped,
    TxnFound,
    TxnRecord,
    TxnRequestMsg,
)
from repro.core.quorum import ViewConsistentQuorum
from repro.core.transaction import SlotId
from repro.net.endpoint import Node
from repro.net.message import Address, GroupId, Packet
from repro.net.network import Network


@dataclass
class _FindState:
    slot: SlotId
    quorums: dict[GroupId, ViewConsistentQuorum]
    requesters: set[Address] = field(default_factory=set)
    timer: object = None


@dataclass
class _EpochChange:
    new_epoch: int
    responses: dict[GroupId, dict[Address, EpochState]] = \
        field(default_factory=dict)
    started: bool = False
    start_msgs: dict[GroupId, StartEpoch] = field(default_factory=dict)
    acks: dict[GroupId, set[Address]] = field(default_factory=dict)
    timer: object = None


class FailureCoordinator(Node):
    """Coordinates packet-drop agreement and epoch changes."""

    def __init__(self, address: Address, network: Network,
                 shards: dict[GroupId, list[Address]],
                 retry_timeout: float = 10e-3):
        super().__init__(address, network)
        self.shards = {shard: list(addrs) for shard, addrs in shards.items()}
        self.retry_timeout = retry_timeout
        self.found: dict[SlotId, TxnRecord] = {}
        self.dropped: set[SlotId] = set()
        self._finds: dict[SlotId, _FindState] = {}
        self._epoch_changes: dict[int, _EpochChange] = {}
        self.max_epoch_started = 1
        self.drops_decided = 0
        self.finds_resolved = 0
        self.epoch_changes_completed = 0

    # -- observability ----------------------------------------------------
    def _trace(self, kind: str, **data) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.record(kind, self.address, **data)

    def instrument(self, registry) -> None:
        """Register the FC's live counters as pull-gauges."""
        registry.gauge("fc", "finds_resolved", fn=lambda: self.finds_resolved,
                       monotone=True)
        registry.gauge("fc", "drops_decided", fn=lambda: self.drops_decided,
                       monotone=True)
        registry.gauge("fc", "epoch_changes_completed",
                       fn=lambda: self.epoch_changes_completed,
                       monotone=True)
        registry.gauge("fc", "messages_processed",
                       fn=lambda: self.messages_processed, monotone=True)

    # -- helpers ----------------------------------------------------------
    def _all_replicas(self) -> list[Address]:
        return [addr for addrs in self.shards.values() for addr in addrs]

    def _participants_of(self, record: TxnRecord) -> list[Address]:
        out = []
        for gid in record.multistamp.groups:
            out.extend(self.shards.get(gid, []))
        return out

    # -- drop agreement (§6.3) -------------------------------------------------
    def on_FindTxn(self, src: Address, msg: FindTxn, packet: Packet) -> None:
        slot = msg.slot
        if slot in self.dropped:
            self.send(src, TxnDropped(slot=slot))
            return
        if slot in self.found:
            self.send(src, TxnFound(slot=slot, record=self.found[slot]))
            return
        state = self._finds.get(slot)
        if state is not None:
            state.requesters.add(src)
            return
        state = _FindState(
            slot=slot,
            quorums={shard: ViewConsistentQuorum(len(addrs))
                     for shard, addrs in self.shards.items()},
            requesters={src},
        )
        self._finds[slot] = state
        self._broadcast_txn_request(slot)
        state.timer = self.timer(self.retry_timeout,
                                 self._retry_find, slot)
        state.timer.start()

    def _broadcast_txn_request(self, slot: SlotId) -> None:
        for addr in self._all_replicas():
            self.send(addr, TxnRequestMsg(slot=slot))

    def _retry_find(self, slot: SlotId) -> None:
        state = self._finds.get(slot)
        if state is None:
            return
        self._broadcast_txn_request(slot)
        state.timer.start()

    def on_HasTxn(self, src: Address, msg: HasTxn, packet: Packet) -> None:
        slot = msg.slot
        if slot in self.dropped:
            # Drop decisions are final (§6.3 step 4): a late HAS-TXN
            # cannot resurrect the transaction.
            self.send(src, TxnDropped(slot=slot))
            return
        if msg.record is None:
            # The replica cut the slot: every replica of its shard has
            # executed it, so no one is missing it and no shard can
            # promise its drop. The find is stale; end it.
            self._finish_find(slot, None, ())
            return
        if slot not in self.found:
            self.found[slot] = msg.record
            self.finds_resolved += 1
            self._trace("fc_found", slot=[slot.shard, slot.epoch, slot.seq],
                        reporter=src)
        self._finish_find(slot, TxnFound(slot=slot, record=self.found[slot]),
                          self._participants_of(self.found[slot]))

    def on_TempDroppedTxn(self, src: Address, msg: TempDroppedTxn,
                          packet: Packet) -> None:
        slot = msg.slot
        if slot in self.dropped:
            self.send(src, TxnDropped(slot=slot))
            return
        if slot in self.found:
            self.send(src, TxnFound(slot=slot, record=self.found[slot]))
            return
        state = self._finds.get(slot)
        if state is None:
            return
        quorum = state.quorums.get(msg.shard)
        if quorum is None:
            return
        quorum.add((msg.epoch_num, msg.view_num), msg.replica_index,
                   msg.is_dl)
        if all(q.satisfied() is not None for q in state.quorums.values()):
            self.dropped.add(slot)
            self.drops_decided += 1
            self._trace("fc_dropped",
                        slot=[slot.shard, slot.epoch, slot.seq])
            self._finish_find(slot, TxnDropped(slot=slot),
                              self._all_replicas())

    def _finish_find(self, slot: SlotId, decision, recipients) -> None:
        state = self._finds.pop(slot, None)
        extra = state.requesters if state is not None else set()
        if state is not None and state.timer is not None:
            state.timer.stop()
        if decision is None:
            return
        # A fixed order: under loss, the order of these sends decides
        # which of them the loss RNG drops.
        for addr in dict.fromkeys([*recipients, *sorted(extra)]):
            self.send(addr, decision)

    # -- epoch change (§6.5) --------------------------------------------------
    def on_EpochChangeReq(self, src: Address, msg: EpochChangeReq,
                          packet: Packet) -> None:
        self._begin_epoch_change(msg.new_epoch)

    def _begin_epoch_change(self, new_epoch: int) -> None:
        if new_epoch <= self.max_epoch_started:
            # Already completed (or superseded); retransmit START-EPOCH
            # if we have it so slow replicas converge.
            change = self._epoch_changes.get(new_epoch)
            if change is not None and change.started:
                self._retransmit_start_epoch(new_epoch)
            return
        if new_epoch in self._epoch_changes:
            return
        change = _EpochChange(new_epoch=new_epoch)
        self._epoch_changes[new_epoch] = change
        self._trace("fc_epoch_collect", epoch=new_epoch)
        self._broadcast_state_request(new_epoch)
        change.timer = self.timer(self.retry_timeout,
                                  self._retry_epoch_change, new_epoch)
        change.timer.start()

    def _broadcast_state_request(self, new_epoch: int) -> None:
        for addr in self._all_replicas():
            self.send(addr, EpochStateRequest(new_epoch=new_epoch))

    def _retry_epoch_change(self, new_epoch: int) -> None:
        change = self._epoch_changes.get(new_epoch)
        if change is None:
            return
        if change.started:
            self._retransmit_start_epoch(new_epoch)
        else:
            self._broadcast_state_request(new_epoch)
        change.timer.start()

    def on_EpochState(self, src: Address, msg: EpochState,
                      packet: Packet) -> None:
        change = self._epoch_changes.get(msg.new_epoch)
        if change is None or change.started:
            return
        change.responses.setdefault(msg.shard, {})[msg.sender] = msg
        if self._epoch_quorum_complete(change):
            self._start_epoch(change)

    def _epoch_quorum_complete(self, change: _EpochChange) -> bool:
        for shard, addrs in self.shards.items():
            responses = change.responses.get(shard, {})
            if len(responses) < len(addrs) // 2 + 1:
                return False
        return True

    def _start_epoch(self, change: _EpochChange) -> None:
        """Rebuild every shard's state for the new epoch (§6.5)."""
        change.started = True
        self.max_epoch_started = max(self.max_epoch_started, change.new_epoch)
        # Cross-shard knowledge: every transaction any replica logged,
        # indexed by each participant's (epoch, seq) slot via its stamp.
        known: dict[SlotId, TxnRecord] = {}
        all_perm_drops: set[SlotId] = set()
        for responses in change.responses.values():
            for state in responses.values():
                all_perm_drops.update(state.perm_drops)
                for entry in state.log:
                    if entry.kind == "txn":
                        for slot in stamped_slots(entry.record.multistamp):
                            known.setdefault(slot, entry.record)
        all_perm_drops.update(self.dropped)
        for shard, addrs in self.shards.items():
            responses = change.responses.get(shard, {})
            freshest = max(s.last_normal_epoch for s in responses.values())
            fresh = [s for s in responses.values()
                     if s.last_normal_epoch == freshest]
            view = max(s.view_num for s in fresh)
            base = max((s.log for s in fresh), key=last_index_of,
                       default=())
            new_log = self._complete_log(shard, base, freshest, known,
                                         frozenset(all_perm_drops))
            start = StartEpoch(shard=shard, new_epoch=change.new_epoch,
                               view_num=view, log=tuple(new_log))
            change.start_msgs[shard] = start
            change.acks[shard] = set()
            self._trace("fc_epoch_start", epoch=change.new_epoch,
                        shard=shard, view=view,
                        log_len=last_index_of(new_log))
            for addr in addrs:
                self.send(addr, start)
        self.epoch_changes_completed += 1

    def _complete_log(self, shard: GroupId, base: tuple[LogEntry, ...],
                      epoch: int, known: dict[SlotId, TxnRecord],
                      perm_drops: frozenset) -> list[LogEntry]:
        """Extend the longest log (a shipped base + suffix) with
        transactions other shards know about, NO-OP the unrecoverable
        gaps, and apply drop decisions."""
        out = merge_logs([base], perm_drops)
        last_seq = last_seq_of(out, epoch)
        target = max([last_seq] + [slot.seq for slot in known
                                   if slot.shard == shard
                                   and slot.epoch == epoch])
        for seq in range(last_seq + 1, target + 1):
            slot = SlotId(shard, epoch, seq)
            record = known.get(slot)
            if record is not None and stamp_hits(record.multistamp,
                                                 perm_drops):
                record = None
            out.append(LogEntry(index=last_index_of(out) + 1, slot=slot,
                                kind="noop" if record is None else "txn",
                                record=record))
        return out

    def _retransmit_start_epoch(self, new_epoch: int) -> None:
        change = self._epoch_changes.get(new_epoch)
        if change is None or not change.started:
            return
        for shard, start in change.start_msgs.items():
            pending = [a for a in self.shards[shard]
                       if a not in change.acks.get(shard, set())]
            for addr in pending:
                self.send(addr, start)

    def on_StartEpochAck(self, src: Address, msg: StartEpochAck,
                         packet: Packet) -> None:
        change = self._epoch_changes.get(msg.new_epoch)
        if change is None or not change.started:
            return
        change.acks.setdefault(msg.shard, set()).add(src)
        done = all(
            len(change.acks.get(shard, ())) >= len(addrs) // 2 + 1
            for shard, addrs in self.shards.items()
        )
        if done and change.timer is not None:
            change.timer.stop()
