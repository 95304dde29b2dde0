"""Eris: the paper's transaction processing protocol (Sections 6–7).

Layering follows Figure 3:

- the network layer (:mod:`repro.net`) provides *ordering* via
  multi-sequenced groupcast;
- the independent-transaction layer here adds *reliability* and
  atomicity — :mod:`repro.core.replica` (the Figure 4 state plus one
  module per §6 sub-protocol: normal case, drop recovery, DL view
  change, epoch change, synchronization, and the fast-read service),
  :mod:`repro.core.fc` (the Failure Coordinator), and
  :mod:`repro.core.client`;
- the general-transaction layer adds *isolation* for cross-shard
  dependent transactions — :mod:`repro.core.general` plus lock support
  inside :mod:`repro.core.engine`.
"""

from repro.core.client import ErisClient
from repro.core.engine import ExecutionEngine
from repro.core.fc import FailureCoordinator
from repro.core.general import GeneralTransactionManager
from repro.core.log import ErisLog, LogEntry
from repro.core.replica import ErisConfig, ErisReplica
from repro.core.transaction import IndependentTransaction, SlotId, TxnId

__all__ = [
    "ErisClient",
    "ExecutionEngine",
    "FailureCoordinator",
    "GeneralTransactionManager",
    "ErisLog",
    "LogEntry",
    "ErisConfig",
    "ErisReplica",
    "IndependentTransaction",
    "SlotId",
    "TxnId",
]
