"""The Eris replica (§6): the Figure 4 state (:mod:`.state`) plus one
module per sub-protocol — :mod:`.normal` (§6.2), :mod:`.drops` (§6.3),
:mod:`.view_change` (§6.4), :mod:`.epoch_change` (§6.5), :mod:`.sync`
(§6.6) and :mod:`.fast_read` — composed into :class:`ErisReplica`.
Every replica sends one TxnReply per transaction, synchronously, and
executes strictly in log order (DESIGN.md, "Eris protocol notes").
"""

from repro.core.replica.drops import DropRecovery
from repro.core.replica.epoch_change import EpochChangeProtocol
from repro.core.replica.fast_read import FastReads
from repro.core.replica.normal import NormalCase
from repro.core.replica.state import ErisConfig
from repro.core.replica.sync import Synchronization
from repro.core.replica.view_change import ViewChangeProtocol

__all__ = ["ErisConfig", "ErisReplica"]


class ErisReplica(NormalCase, DropRecovery, ViewChangeProtocol,
                  EpochChangeProtocol, Synchronization, FastReads):
    """One member of one shard's replica group."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._init_recovery()
        # Timers are created and started in this order (sync, view
        # change, watermark): the determinism digests hash the
        # (time, seq) of every fired event.
        self._init_sync()
        self._init_view_change()
        self._become_role()
        self._init_fast_reads()

    def crash(self) -> None:
        super().crash()
        self._sync_timer.stop()
        self._vc_timer.stop()
        if self._watermark_timer is not None:
            self._watermark_timer.stop()
        self._cancel_recoveries()
