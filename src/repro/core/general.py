"""General transactions built from independent transactions (§7).

A general transaction runs in two phases, each an independent
transaction sequenced by the network layer:

1. a **preliminary transaction** atomically acquires every read and
   write lock on every participant and returns the read values (and,
   for state-dependent transactions, re-validates the reconnaissance
   results);
2. a **conclusory transaction** commits (installing the writes the
   client computed from the preliminary's reads) or aborts; either way
   the locks release.

Because the lock set is acquired in one atomic step executed in the
linearized order, wait-for cycles cannot form — Eris's general
transactions never deadlock (§7.3). Client failures are handled by the
replicas themselves: a DL that sees locks held too long sequences an
Abort conclusory of its own (§7.2), which races any in-flight client
Commit safely because the first conclusory in the serial order wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.core.client import ErisClient
from repro.core.transaction import TxnId
from repro.net.endpoint import OpResult
from repro.net.message import GroupId


@dataclass
class GeneralOutcome(OpResult):
    """Result of a full two-phase general transaction: ``result`` holds
    the values the preliminary read, ``retries`` both phases' retries."""

    gtid: Optional[TxnId] = None
    reason: str = ""


#: ``compute(values) -> writes-dict`` maps the preliminary's reads to
#: the writes to install; returning None aborts the transaction.
ComputeFn = Callable[[dict], Optional[dict]]


class GeneralTransactionManager:
    """Client-side driver for §7 general transactions."""

    def __init__(self, client: ErisClient):
        self.client = client
        self.committed = 0
        self.aborted = 0

    def execute(
        self,
        read_keys,
        write_keys,
        participants: tuple[GroupId, ...],
        compute: ComputeFn,
        callback: Callable[[GeneralOutcome], None],
        expected: Optional[dict] = None,
    ) -> TxnId:
        """Run one general transaction; ``callback`` fires after the
        conclusory transaction completes on every participant."""
        start = self.client.now
        # The callback reads ``gtid`` when the preliminary completes,
        # which is always after ``submit`` has returned it.
        gtid = self.client.submit(
            proc="__prelim__",
            args={"expected": expected} if expected else {},
            participants=participants,
            read_keys=frozenset(read_keys),
            write_keys=frozenset(write_keys),
            kind="preliminary",
            callback=lambda prelim: self._on_preliminary(
                gtid, prelim, participants, compute, callback, start),
        )
        return gtid

    def _on_preliminary(self, gtid: TxnId, prelim: OpResult,
                        participants: tuple[GroupId, ...],
                        compute: ComputeFn,
                        callback: Callable[[GeneralOutcome], None],
                        start: float) -> None:
        values: dict = {}
        # A preliminary that timed out has no per-shard results.
        for result in (prelim.result or {}).values():
            if isinstance(result, dict):
                values.update(result.get("values", {}))
        writes: Optional[dict] = None
        reason = ""
        if not prelim.committed:
            reason = "validation failed"  # stale reconnaissance (§7.1)
        else:
            writes = compute(values)
            if writes is None:
                reason = "application abort"
        commit = writes is not None
        self.client.submit(
            proc="__conclusory__",
            args={"gtid": gtid, "commit": commit, "writes": writes or {}},
            participants=participants,
            kind="conclusory",
            callback=lambda conclusory: self._on_conclusory(
                gtid, commit and conclusory.committed, values, reason,
                prelim.retries + conclusory.retries, callback, start),
        )

    def _on_conclusory(self, gtid: TxnId, committed: bool, values: dict,
                       reason: str, retries: int,
                       callback: Callable[[GeneralOutcome], None],
                       start: float) -> None:
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        callback(GeneralOutcome(
            committed=committed,
            latency=self.client.now - start,
            result=values,
            retries=retries,
            gtid=gtid,
            reason=reason,
        ))

    # -- reconnaissance queries (§7.1) ----------------------------------------
    def reconnaissance(self, keys_by_replica: dict[str, list[Hashable]],
                       callback: Callable[[dict], None]) -> None:
        """Issue non-transactional reads for state-dependent
        transactions: one ReconRead per key to the replica (normally
        the owning shard's DL) named in ``keys_by_replica``."""
        expected = sum(len(keys) for keys in keys_by_replica.values())
        if expected == 0:
            callback({})
            return
        gathered: dict = {}

        def on_value(key: Hashable, value: Any) -> None:
            gathered[key] = value
            if len(gathered) == expected:
                callback(dict(gathered))

        for replica, keys in keys_by_replica.items():
            for key in keys:
                self.client.recon(replica, key, on_value)
