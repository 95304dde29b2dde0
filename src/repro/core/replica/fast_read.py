"""Coordination-free read fast path (Harmonia-style, PAPERS.md).
Once it has logged a READ_ONLY transaction, every replica periodically
reports its execution watermark to the sequencing element
(AppliedUpto), and serves the clean READ_ONLY transactions the element
forwards without a stamp: one replica's reply instead of the §5.1
quorum, safe because the dirty-set check proved every committed
conflicting write is already executed at *every* replica.
"""

from __future__ import annotations

from typing import Optional

from repro.core.log import LogEntry
from repro.core.messages import (
    AppliedUpto,
    FastReadReply,
    FastReadRequest,
    TxnRecord,
)
from repro.core.replica.state import ReplicaState
from repro.core.transaction import SlotId
from repro.net.message import Address, Packet


class FastReads(ReplicaState):
    """The watermark tick and the fast-read service."""

    def _init_fast_reads(self) -> None:
        # No timer, and so no event, until the first READ_ONLY
        # transaction is logged: a workload without reads keeps the
        # event schedule the determinism digests pin.
        self._watermark_timer = None

    def _append(self, slot: SlotId, record: Optional[TxnRecord]) -> LogEntry:
        """Log the slot; the first READ_ONLY transaction starts the
        watermark reports. Eris-OUM never reports: its one global
        order has no per-shard watermark."""
        entry = super()._append(slot, record)
        if (record is not None and self._watermark_timer is None
                and record.txn.op_class == "read_only"
                and not self.config.oum_mode):
            interval = self.config.watermark_interval \
                or self.config.sync_interval
            self._watermark_timer = self.periodic(interval,
                                                  self._watermark_tick)
            self._watermark_timer.start()
        return entry

    def _applied_watermark(self) -> tuple[int, int]:
        """(epoch, seq) through which this replica has *executed*: a
        prefix summary, as the log is epoch-monotone and in-epoch
        sequence numbers are contiguous (perm-drops log as NO-OPs).
        (current epoch, 0) is reported only when the replica is
        demonstrably caught up; otherwise the stale position makes the
        sequencer's coverage check fail, the safe direction."""
        caught_up = self.fed_index == self.log.last_index \
            and not self._delivery_queue
        slot = self.log.slot_at(self.fed_index)
        if slot is not None:
            if slot.epoch == self.channel.epoch or not caught_up:
                return (slot.epoch, slot.seq)
        return (self.channel.epoch, 0) if caught_up else (0, 0)

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
        """Serve a clean READ_ONLY transaction from this replica alone:
        the dirty-set check proved every conflicting committed write is
        executed here. A replica that lags the check's epoch, or is mid
        view or epoch change, stays silent; the client retries."""
        if self.crashed or self.status != "normal" \
                or self.epoch_num < msg.min_epoch:
            return
        txn = msg.txn
        outcome = self.engine.execute_read_only(txn)
        if outcome is None:
            # The procedure wrote despite its READ_ONLY declaration (a
            # workload bug): the engine rolled it back; refuse to answer.
            self._trace("fast_read_refused", txn=txn.txn_id.label(),
                        reason="wrote-under-read-only")
            return
        committed, result = outcome
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
