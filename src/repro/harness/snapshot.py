"""Wire-transportable replica state for the distributed §6.7 checkers.

In a single-process run, :func:`repro.harness.checkers.run_all_checks`
reads replica objects directly. In a multi-process run the replicas
live in other address spaces, so at end of run each worker serializes
its replica into a :class:`~repro.runtime.launcher.ReplicaSnapshot`
(a registered wire dataclass — the log entries inside are the *same*
``LogEntry`` / ``TxnRecord`` dataclasses the protocol ships, so nothing
is lossily re-encoded) and the launcher's state-collection RPC carries
it back to the driver.

The driver then rehydrates each snapshot into a :class:`SnapshotReplica`
— a duck-typed stand-in exposing exactly the surface the checkers read
(``log`` / ``store`` / ``view_num`` / ``is_dl`` / ``crashed`` /
``_fed``) — and groups them into a :class:`SnapshotCluster`, so the
checkers run **unmodified** on merged multi-process state.
"""

from __future__ import annotations

from typing import Any

from repro.core.log import LogEntry
from repro.runtime.launcher import ReplicaSnapshot


def snapshot_replica(replica) -> ReplicaSnapshot:
    """Capture a live :class:`~repro.core.replica.ErisReplica`."""
    return ReplicaSnapshot(
        address=replica.address,
        shard=replica.shard,
        replica_index=replica.replica_index,
        view_num=replica.view_num,
        is_dl=replica.is_dl,
        crashed=replica.crashed,
        fed=len(replica._fed),
        entries=tuple(replica.log.entries()),
        store=tuple(sorted(replica.store.snapshot().items())),
    )


class SnapshotLog:
    """Just enough of :class:`repro.core.log.ErisLog` for the checkers:
    iteration and ``entries()``."""

    def __init__(self, entries: tuple[LogEntry, ...]):
        self._entries = list(entries)

    def entries(self) -> list[LogEntry]:
        return list(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class SnapshotStore:
    """Just enough of :class:`repro.store.kv.KVStore`: ``snapshot()``."""

    def __init__(self, items: tuple[tuple[Any, Any], ...]):
        self._data = dict(items)

    def snapshot(self) -> dict:
        return dict(self._data)


class SnapshotReplica:
    """Checker-facing stand-in for a remote replica.

    ``eris_like`` is the marker :func:`repro.harness.checkers._eris_like`
    accepts in place of an ``isinstance(..., ErisReplica)`` — the
    snapshot deliberately is *not* an ErisReplica (it has no runtime,
    no sockets, no timers), it only answers the checkers' questions.
    """

    eris_like = True

    def __init__(self, snap: ReplicaSnapshot):
        self.address = snap.address
        self.shard = snap.shard
        self.replica_index = snap.replica_index
        self.view_num = snap.view_num
        self.is_dl = snap.is_dl
        self.crashed = snap.crashed
        self.log = SnapshotLog(snap.entries)
        self.store = SnapshotStore(snap.store)
        # The checkers only ever take len() of _fed.
        self._fed = [None] * snap.fed


class SnapshotCluster:
    """The merged view ``run_all_checks`` consumes: per-shard replica
    lists, in replica-index order. The merged trace is passed to the
    checkers separately."""

    tracer = None

    def __init__(self, snapshots: list[ReplicaSnapshot]):
        by_shard: dict[int, list[SnapshotReplica]] = {}
        for snap in snapshots:
            by_shard.setdefault(snap.shard, []).append(
                SnapshotReplica(snap))
        self.replicas = {
            shard: sorted(replicas, key=lambda r: r.replica_index)
            for shard, replicas in sorted(by_shard.items())
        }
