"""Normal case (§6.2): multi-sequenced transactions arrive in order;
every replica logs and replies, and only the Designated Learner
executes and includes the result. A promised temp-drop blocks delivery
until the FC decides (§6.3 step 3). Also the §7.1 reconnaissance read.
"""

from __future__ import annotations

from typing import Any

from repro.core.log import stamp_hits, stamped_slots
from repro.core.messages import ReconRead, ReconReply, TxnRecord
from repro.core.replica.state import ReplicaState, record_from_packet
from repro.core.transaction import SlotId
from repro.net.libsequencer import Upcall, UpcallKind
from repro.net.message import Address, MultiStamp, Packet


class NormalCase(ReplicaState):
    """§6.2: sequenced packets pass the channel, then reach the log in
    sequence order."""

    def handle(self, src: Address, message: Any, packet: Packet) -> None:
        if packet.multistamp is not None:
            stable = getattr(message, "stable", None)
            if stable:
                self._learn_foreign_stable(stable)
            self._on_sequenced(packet)
        else:
            super().handle(src, message, packet)

    def _on_sequenced(self, packet: Packet) -> None:
        for upcall in self.channel.on_packet(packet):
            self._apply_upcall(upcall)
        self._drain()

    def _apply_upcall(self, upcall: Upcall) -> None:
        slot = SlotId(self.channel.group, upcall.epoch, upcall.seq)
        if upcall.kind is UpcallKind.DELIVER:
            self._delivery_queue.append(
                (slot, record_from_packet(upcall.packet)))
        elif upcall.kind is UpcallKind.DROP_NOTIFICATION:
            self._start_recovery(slot)
        elif upcall.kind is UpcallKind.NEW_EPOCH:
            self._notice_new_epoch(upcall.epoch)

    def _drain(self) -> None:
        """Process in-order deliveries until empty or blocked by an
        undecided temp-drop (§6.3 step 3)."""
        if self.status != "normal":
            return
        while self._delivery_queue:
            slot, record = self._delivery_queue[0]
            if record is None or stamp_hits(record.multistamp,
                                            self.perm_drops):
                self._delivery_queue.popleft()
                self._append_noop(slot)
                continue
            if self._blocked_by_temp_drop(record.multistamp):
                break
            self._delivery_queue.popleft()
            self._append_txn(slot, record)

    def _blocked_by_temp_drop(self, stamp: MultiStamp) -> bool:
        """A replica that promised a temp-drop cedes the transaction's
        fate to the FC and may not process it until the FC decides."""
        if not self.temp_drops:
            return False
        return any(slot in self.temp_drops and slot not in self.un_drops
                   and slot not in self.perm_drops
                   for slot in stamped_slots(stamp))

    def _append_noop(self, slot: SlotId) -> None:
        entry = self._append(slot, None)
        if self.is_dl:
            self._feed_entry(entry)

    def _append_txn(self, slot: SlotId, record: TxnRecord) -> None:
        txn = record.txn
        if self.config.oum_mode and self.shard not in txn.participants:
            # Eris-OUM: this server received a message for a transaction
            # it does not participate in — CPU was burned, slot consumed,
            # nothing to do (the cost Figure 11 measures).
            self._append_noop(slot)
            return
        entry = self._append(slot, record)
        self.txns_processed += 1
        self._cancel_recovery(slot)
        if self.is_dl:
            self._feed_entry(entry, reply=True)
        else:
            self._reply(txn, entry.index, committed=True, result=None)

    def on_ReconRead(self, src: Address, msg: ReconRead,
                     packet: Packet) -> None:
        self.send(src, ReconReply(key=msg.key, value=self.store.get(msg.key)))
