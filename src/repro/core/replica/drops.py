"""Dropped messages (§6.3). On a DROP-NOTIFICATION a replica first asks
its shard's peers (the paper's optimization), then escalates to the
Failure Coordinator's FIND-TXN protocol. It answers the FC's
TXN-REQUESTs with the transaction or a temp-drop promise, and applies
the FC's verdicts (TXN-FOUND, TXN-DROPPED).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.messages import (
    FindTxn, HasTxn, PeerTxnRequest, PeerTxnResponse,
    TempDroppedTxn, TxnDropped, TxnFound, TxnRecord, TxnRequestMsg)
from repro.core.replica.state import (
    ReplicaState, _slot_fields, record_from_packet)
from repro.core.transaction import SlotId
from repro.net.message import Address, Packet


@dataclass
class _Recovery:
    slot: SlotId
    phase: str                 # "wait" | "peer" | "fc"
    timer: Any = None
    peers_answered: int = 0


class DropRecovery(ReplicaState):
    """§6.3: peer recovery, FC escalation, and the FC's drop agreement."""

    def _init_recovery(self) -> None:
        self._recovering: dict[SlotId, _Recovery] = {}

    def _start_recovery(self, slot: SlotId) -> None:
        if slot in self._recovering or slot.seq < self.channel.next_seq:
            return
        self._trace("recovery_start", slot=_slot_fields(slot))
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

    def _cancel_recoveries(self) -> None:
        for slot in list(self._recovering):
            self._cancel_recovery(slot)

    def _escalate_to_fc(self, slot: SlotId) -> None:
        recovery = self._recovering.get(slot)
        if recovery is None:
            return
        recovery.phase = "fc"
        self.drops_escalated_to_fc += 1
        self._trace("recovery_fc", slot=_slot_fields(slot))
        self.send(self.fc_address, FindTxn(slot=slot, sender=self.address))
        recovery.timer = self.timer(self.config.fc_retry_timeout,
                                    self._escalate_to_fc, slot)
        recovery.timer.start()

    def on_PeerTxnRequest(self, src: Address, msg: PeerTxnRequest,
                          packet: Packet) -> None:
        entry = self.log.find_slot(msg.slot)
        record = entry.record if entry is not None else None
        dropped = entry is not None and record is None \
            and msg.slot in self.perm_drops
        if entry is None and msg.slot.epoch == self.channel.epoch:
            record = record_from_packet(
                self.channel.get_buffered(msg.slot.seq))
        self.send(src, PeerTxnResponse(slot=msg.slot, entry=record,
                                       sender=self.address, dropped=dropped))

    def on_PeerTxnResponse(self, src: Address, msg: PeerTxnResponse,
                           packet: Packet) -> None:
        recovery = self._recovering.get(msg.slot)
        if recovery is None or recovery.phase != "peer":
            return
        if msg.entry is not None:
            self.drops_recovered_from_peer += 1
            self._trace("recovery_peer", slot=_slot_fields(msg.slot), peer=src)
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
        for upcall in self.channel.resolve(slot.seq,
                                           self._recovered_packet(record)):
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
        record = entry.record if entry is not None else None
        if record is None and slot.shard == self.channel.group \
                and slot.epoch == self.channel.epoch:
            record = record_from_packet(self.channel.get_buffered(slot.seq))
        if record is not None or self.log.is_cut(slot):
            # A cut slot was executed at every replica of this shard:
            # never promise to drop it (DESIGN.md, "Bounded replica
            # logs"); the record-less answer ends the stale find.
            self.send(src, HasTxn(slot=slot, record=record,
                                  sender=self.address))
            return
        # Promise: we will not process this transaction until the FC
        # decides its fate.
        self.temp_drops.add(slot)
        self.send(src, TempDroppedTxn(
            slot=slot, shard=self.shard, view_num=self.view_num,
            epoch_num=self.epoch_num, sender=self.address,
            replica_index=self.replica_index, is_dl=self.is_dl))

    def on_TxnFound(self, src: Address, msg: TxnFound, packet: Packet) -> None:
        self.un_drops.add(msg.slot)
        self._fc_decided(msg.slot, msg.record)

    def on_TxnDropped(self, src: Address, msg: TxnDropped,
                      packet: Packet) -> None:
        self.perm_drops.add(msg.slot)
        self._fc_decided(msg.slot, None)

    def _fc_decided(self, slot: SlotId, record: Optional[TxnRecord]) -> None:
        """Act on an FC verdict already recorded in un- or perm-drops:
        close our own gap with it, let a view change that waited on the
        slot finish, and resume delivery."""
        if slot.shard == self.channel.group:
            self._resolve_slot(slot, record)
        self._view_change_verdict(slot)
        self._drain()
