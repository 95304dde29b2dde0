"""Epoch change (§6.5), replica side. On a NEW-EPOCH notification a
replica stops processing and asks the FC for an epoch change; it
answers the FC's state request with its log and perm-drops plus a
promise, then adopts the consistent state the FC rebuilds
(START-EPOCH). Adopting it ends any view change in progress.
"""

from __future__ import annotations

from repro.core.messages import (
    EpochChangeReq, EpochState, EpochStateRequest, StartEpoch, StartEpochAck)
from repro.core.replica.state import ReplicaState
from repro.net.message import Address, Packet


class EpochChangeProtocol(ReplicaState):
    """§6.5; the FC (:mod:`repro.core.fc`) drives it."""

    _promised_epoch = 1     # highest epoch promised to the FC

    def _suspend(self) -> None:
        """Stop normal processing until START-EPOCH."""
        self.status = "epoch-change"
        self._sync_timer.stop()
        self._vc_timer.stop()

    def _notice_new_epoch(self, new_epoch: int) -> None:
        if new_epoch <= self._promised_epoch and self.status == "epoch-change":
            return
        self._suspend()
        self._trace("epoch_change_start", epoch=new_epoch)
        self.send(self.fc_address, EpochChangeReq(
            shard=self.shard, new_epoch=new_epoch, sender=self.address))

    def on_EpochStateRequest(self, src: Address, msg: EpochStateRequest,
                             packet: Packet) -> None:
        if msg.new_epoch <= self.epoch_num:
            return
        self._promised_epoch = max(self._promised_epoch, msg.new_epoch)
        self._suspend()
        self.send(src, EpochState(
            shard=self.shard, new_epoch=msg.new_epoch,
            last_normal_epoch=self.epoch_num, view_num=self.view_num,
            sender=self.address, **self._figure4_fields(all_drops=False)))

    def on_StartEpoch(self, src: Address, msg: StartEpoch,
                      packet: Packet) -> None:
        ack = StartEpochAck(shard=self.shard, new_epoch=msg.new_epoch,
                            sender=self.address)
        if msg.new_epoch < self.epoch_num or (
                msg.new_epoch == self.epoch_num and self.status == "normal"):
            # Duplicate; re-ack so the FC stops retransmitting.
            self.send(src, ack)
            return
        self.epoch_num = msg.new_epoch
        self._promised_epoch = msg.new_epoch
        self.view_num = msg.view_num
        self.temp_drops.clear()
        self.perm_drops.clear()
        self.un_drops.clear()
        self._delivery_queue.clear()
        self._cancel_recoveries()
        self._install(list(msg.log), "epoch_change_complete")
        replay = self.channel.begin_epoch(msg.new_epoch) \
            if msg.new_epoch > self.channel.epoch else []
        # Our log may already extend into the new epoch (FC rebuilt it
        # from a replica that advanced further); jump past those slots.
        for upcall in self.channel.fast_forward(
                self.log.last_seq(self.channel.epoch) + 1):
            self._apply_upcall(upcall)
        self._become_role()
        self.send(src, ack)
        for replayed in replay:
            self._on_sequenced(replayed)
        self._drain()
