"""Synchronization (§6.6). The DL periodically ships every follower the
safe-to-execute point plus the log entries that follower demonstrably
missed; the follower logs them, executes the safe prefix and
acknowledges with how far it executed. The lowest such point over the
shard is its stable index, which the next SyncLog carries: each side
then cuts its log at a checkpoint at or below it (DESIGN.md, "Bounded
replica logs"). The SyncLog doubles as the DL heartbeat that arms view
changes. The sync tick also drives the §7.2 abort of general
transactions whose client failed.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.log import LogEntry
from repro.core.messages import IndependentTxnRequest, SyncAck, SyncLog
from repro.core.replica.state import ReplicaState
from repro.core.transaction import IndependentTransaction, TxnId
from repro.net.message import Address, Packet


class Synchronization(ReplicaState):
    """§6.6 on both sides, and the §7.2 stuck-general abort."""

    def _init_sync(self) -> None:
        self._reset_sync_progress()
        self._sync_timer = self.periodic(self.config.sync_interval,
                                         self._sync_tick)
        self._abort_seq = 0

    def _reset_sync_progress(self) -> None:
        """Per-peer sync bookkeeping (DL side): ``_peer_synced`` is the
        log length each follower last acknowledged, ``_peer_applied``
        how far it had executed, ``_peer_announced`` the
        ``commit_upto`` of the previous SyncLog sent to it."""
        self._peer_synced: dict[Address, int] = {a: 0 for a in self._peers()}
        self._peer_applied: dict[Address, int] = dict(self._peer_synced)
        self._peer_announced: dict[Address, int] = dict(self._peer_synced)

    def _install(self, image: Sequence[LogEntry], event: str,
                 **trace) -> None:
        """A new view or epoch restarts the DL's per-peer progress."""
        super()._install(image, event, **trace)
        self._reset_sync_progress()

    def _sync_tick(self) -> None:
        if not self.is_dl or self.status != "normal" or self.crashed:
            return
        self._trace("sync", view=self.view_num, epoch=self.epoch_num,
                    log_len=self.log.last_index)
        self._checkpoint_step(min(self.fed_index,
                                  *self._peer_applied.values()))
        for peer in self._peers():
            # Followers log entries from the groupcast itself; ship only
            # those a follower had a whole interval to receive and still
            # has not acknowledged — none at all when nothing was lost.
            from_index = self._peer_synced.get(peer, 0) + 1
            announced = self._peer_announced.get(peer, 0)
            self._peer_announced[peer] = self.log.last_index
            self.send(peer, SyncLog(
                shard=self.shard, view_num=self.view_num,
                epoch_num=self.epoch_num, from_index=from_index,
                entries=tuple(self.log.entries(from_index, announced)),
                commit_upto=self.log.last_index, stable=self._stable_index))
        self._abort_stuck_generals()

    def on_SyncLog(self, src: Address, msg: SyncLog, packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or self.status != "normal" \
                or msg.view_num < self.view_num:
            return
        if msg.view_num > self.view_num:
            # Lazily learn the new view from its DL.
            self.view_num = msg.view_num
        self._vc_timer.restart()
        if self.is_dl:
            return
        for entry in msg.entries:
            if entry.index <= self.log.last_index:
                continue
            if entry.index != self.log.last_index + 1:
                break  # gap relative to our log; next sync will fill it
            adopted = self._append(entry.slot, entry.record)
            self._cancel_recovery(entry.slot)
            if adopted.kind == "txn":
                self._reply(adopted.record.txn, adopted.index,
                            committed=True, result=None)
        # The channel may not have seen these sequence numbers; jump it
        # forward so later packets do not look like gaps.
        for upcall in self.channel.fast_forward(
                self.log.last_seq(self.channel.epoch) + 1):
            self._apply_upcall(upcall)
        # Execute the safe prefix.
        self._catch_up_engine(reply=False,
                              upto=min(msg.commit_upto, self.log.last_index))
        self._checkpoint_step(msg.stable)
        self.send(src, SyncAck(
            shard=self.shard, view_num=self.view_num,
            epoch_num=self.epoch_num, log_len=self.log.last_index,
            sender=self.address, applied=self.fed_index))
        self._drain()

    def on_SyncAck(self, src: Address, msg: SyncAck, packet: Packet) -> None:
        if msg.view_num == self.view_num and msg.epoch_num == self.epoch_num:
            self._peer_synced[src] = max(self._peer_synced.get(src, 0),
                                         msg.log_len)
            self._peer_applied[src] = msg.applied

    # -- client-failure aborts (§7.2) -----------------------------------------
    def _abort_stuck_generals(self) -> None:
        if not self.engine.pending_generals:
            return
        horizon = self.now - self.config.general_abort_timeout
        for pending in self.engine.expired_generals(horizon):
            self._abort_seq += 1
            abort_txn = IndependentTransaction(
                txn_id=TxnId(client=f"{self.address}#aborter",
                             seq=self._abort_seq),
                proc="__conclusory__",
                args={"gtid": pending.gtid, "commit": False},
                participants=pending.participants,
                kind="conclusory",
            )
            self.send_groupcast(pending.participants,
                                IndependentTxnRequest(abort_txn))
