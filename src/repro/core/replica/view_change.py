"""DL view change (§6.4), VR-style. On a DL timeout a replica sends its
Figure 4 state to the next view's DL in a VIEW-CHANGE. The new DL
merges a majority's logs and drop sets, waits for the FC's verdict on
every undecided temp-drop its merged log holds, then installs the
result and sends START-VIEW. An epoch change (§6.5) ends any view
change in progress (:meth:`ViewChangeProtocol._install`). A DL that
already started a view answers a late VIEW-CHANGE for it with
START-VIEW, as VR does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.log import LogEntry, merge_logs, stamped_slots
from repro.core.messages import HasTxn, StartView, ViewChange
from repro.core.replica.state import ReplicaState
from repro.core.transaction import SlotId
from repro.net.message import Address, Packet


@dataclass
class _ViewChangeRound:
    """The scratch state of this replica's view change to ``view``."""

    view: int
    #: VIEW-CHANGE messages received for ``view``, by sender.
    received: dict[Address, ViewChange] = field(default_factory=dict)
    #: The merged log (base + suffix), once a majority arrived (new DL
    #: only).
    merged: Optional[list[LogEntry]] = None
    #: Undecided temp-drops the merged log holds; the round finishes
    #: once the FC has decided every one.
    waiting: set[SlotId] = field(default_factory=set)


class ViewChangeProtocol(ReplicaState):
    """§6.4; ``_vc_round`` is None outside a view change."""

    def _init_view_change(self) -> None:
        self._vc_round: Optional[_ViewChangeRound] = None
        self._vc_timer = self.timer(self.config.view_change_timeout,
                                    self._on_dl_timeout)

    def _on_dl_timeout(self) -> None:
        if self.crashed or self.status == "epoch-change":
            return
        self._initiate_view_change(self.view_num + 1)

    def _initiate_view_change(self, new_view: int) -> None:
        self.status = "view-change"
        self.view_num = new_view
        self._vc_round = _ViewChangeRound(new_view)
        self._trace("view_change_start", view=new_view, epoch=self.epoch_num)
        self._sync_timer.stop()
        message = ViewChange(shard=self.shard, new_view=new_view,
                             epoch_num=self.epoch_num, sender=self.address,
                             **self._figure4_fields())
        target = self.dl_address(new_view)
        if target == self.address:
            self._record_view_change(message)
        else:
            self.send(target, message)
        self._vc_timer.restart()  # escalate to view+1 if this stalls

    def on_ViewChange(self, src: Address, msg: ViewChange,
                      packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or msg.new_view < self.view_num:
            return
        leads = self.dl_address(msg.new_view) == self.address
        if leads and msg.new_view == self.view_num \
                and self.status == "normal":
            # A laggard: the view already started without it.
            self.send(msg.sender, self._start_view())
            return
        if leads and msg.new_view > self.view_num:
            self._initiate_view_change(msg.new_view)
        self._record_view_change(msg)

    def _record_view_change(self, msg: ViewChange) -> None:
        round_ = self._vc_round
        if round_ is None or round_.view != msg.new_view:
            return
        round_.received[msg.sender] = msg
        if self.status != "view-change" \
                or self.dl_address(round_.view) != self.address \
                or len(round_.received) < len(self.shard_addrs) // 2 + 1:
            return
        messages = list(round_.received.values())
        self.perm_drops = set().union(*(m.perm_drops for m in messages))
        self.temp_drops = set().union(*(m.temp_drops for m in messages))
        self.un_drops = set().union(*(m.un_drops for m in messages))
        round_.merged = merge_logs([m.log for m in messages],
                                   self.perm_drops)
        # Any logged transaction matching an undecided temp-drop forces
        # us to wait for the FC's verdict (§6.4).
        undecided = self.temp_drops - self.un_drops - self.perm_drops
        round_.waiting = set()
        for entry in round_.merged:
            if entry.kind != "txn":
                continue
            for slot in stamped_slots(entry.record.multistamp):
                if slot in undecided:
                    round_.waiting.add(slot)
                    self.send(self.fc_address, HasTxn(
                        slot=slot, record=entry.record, sender=self.address))
        self._maybe_finish_view_change()

    def _view_change_verdict(self, slot: SlotId) -> None:
        """The FC decided ``slot``: a round that waited on it may finish."""
        if self._vc_round is not None:
            self._vc_round.waiting.discard(slot)
            self._maybe_finish_view_change()

    def _maybe_finish_view_change(self) -> None:
        round_ = self._vc_round
        if self.status != "view-change" or round_.merged is None \
                or round_.waiting:
            return
        self._install(merge_logs([round_.merged], self.perm_drops),
                      "view_change_complete", role="dl")
        start = self._start_view()
        for peer in self._peers():
            self.send(peer, start)
        self._become_role()
        self._drain()

    def _start_view(self) -> StartView:
        return StartView(shard=self.shard, view_num=self.view_num,
                         epoch_num=self.epoch_num, **self._figure4_fields())

    def _install(self, image: Sequence[LogEntry], event: str,
                 **trace) -> None:
        """Whether it completes a view or an epoch change, installing an
        agreed log ends the view-change round in progress, if any."""
        super()._install(image, event, **trace)
        self._vc_round = None

    def on_StartView(self, src: Address, msg: StartView,
                     packet: Packet) -> None:
        if msg.epoch_num != self.epoch_num or msg.view_num < self.view_num:
            return
        self.view_num = msg.view_num
        self.temp_drops = set(msg.temp_drops)
        self.perm_drops = set(msg.perm_drops)
        self.un_drops = set(msg.un_drops)
        self._install(list(msg.log), "view_change_complete",
                      role="follower")
        self._become_role()
        self._drain()
