"""Deterministic transaction execution for one shard.

The engine consumes log entries **in log order** and applies them to
the shard's store. It is the single execution path for both roles:

- the Designated Learner feeds entries as they are logged (executing
  synchronously, §6.1), and
- non-DL replicas feed the same entries later, when the §6.6
  synchronization protocol marks them safe.

Determinism is the load-bearing property: given the same entry
sequence, every replica makes identical decisions — duplicate
suppression, lock grant order, deferred-transaction wakeups — so
replicas converge on the same application state even though the DL
interleaves deferred transactions differently from naive log order.

Locking (§7): keys are locked only while general transactions are
outstanding. A preliminary transaction atomically acquires its whole
lock set (or queues, FIFO); its conclusory transaction commits/aborts
under those locks and releases them. While any locks are held, every
transaction's declared key set is checked, and conflicting transactions
are deferred in lock-queue order — cycles are impossible because
acquisition is a single atomic step executed in the linearized order
(this is why Eris cannot deadlock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.errors import TransactionAborted
from repro.core.log import LogEntry
from repro.core.transaction import IndependentTransaction, TxnId
from repro.store.kv import KVStore
from repro.store.locks import LockManager, LockOutcome, LockPolicy
from repro.store.procedures import ProcedureRegistry, TxnContext
from repro.store.undo import UndoLog

#: Callback invoked when an entry's execution completes:
#: ``on_done(committed: bool, result: Any)``.
DoneCallback = Callable[[bool, Any], None]


@dataclass
class PendingGeneral:
    """A general transaction whose locks are held on this shard."""

    gtid: TxnId
    participants: tuple[int, ...]
    granted_at: float
    values: dict = field(default_factory=dict)


@dataclass
class _ExecResult:
    committed: bool
    result: Any


class ExecutionEngine:
    """Serial executor with §7 lock semantics for one shard replica."""

    def __init__(
        self,
        store: KVStore,
        registry: ProcedureRegistry,
        shard: int,
        owns: Optional[Callable[[Hashable], bool]] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.store = store
        self.registry = registry
        self.shard = shard
        self._owns = owns or (lambda key: True)
        self._clock = clock or (lambda: 0.0)
        self.locks = LockManager()
        self.pending_generals: dict[TxnId, PendingGeneral] = {}
        self._queued_prelims: set[TxnId] = set()
        self._waiting_conclusory: dict[TxnId, tuple[LogEntry, DoneCallback]] = {}
        #: At-most-once table (§6.1): client -> {seq: outcome}. Keyed
        #: per sequence number (not latest-only) because clients may
        #: pipeline transactions whose executions complete out of
        #: order once general-transaction locks defer some of them.
        #: Holds only seqs at or above the client's completion floor.
        self.client_table: dict[str, dict[int, _ExecResult]] = {}
        #: client -> the highest completion floor its requests carried,
        #: in log order. Every seq below it completed at every
        #: participant, so its outcome is no longer kept and a request
        #: for it is a stale duplicate.
        self.client_floors: dict[str, int] = {}
        self.deferred_executions = 0

    # -- public API --------------------------------------------------------
    def feed(self, entry: LogEntry,
             on_done: Optional[DoneCallback] = None) -> None:
        """Process the next log entry. Must be called in log order."""
        done = on_done or (lambda committed, result: None)
        if entry.is_noop:
            done(False, "no-op")
            return
        txn = entry.record.txn
        if txn.floor_gap is not None:
            self._raise_floor(txn.txn_id.client, txn.floor)
        if self._is_duplicate(txn):
            self._reply_duplicate(txn, done)
            return
        if txn.kind == "conclusory":
            self._feed_conclusory(entry, txn, done)
            return
        if self._needs_locks(txn):
            self._feed_locked(entry, txn, done)
        else:
            self._run_and_finish(entry, txn, done)

    def reset(self) -> None:
        """Forget all execution state (used before a full replay)."""
        self.locks = LockManager()
        self.pending_generals.clear()
        self._queued_prelims.clear()
        self._waiting_conclusory.clear()
        self.client_table.clear()
        self.client_floors.clear()

    @property
    def quiescent(self) -> bool:
        """Has every fed entry run, with no lock held or queued? Only
        then does the store plus the §6.1 table capture the engine."""
        return not (self.pending_generals or self._queued_prelims
                    or self._waiting_conclusory
                    or self.locks.queue_length() > 0)

    def table_snapshot(self) -> tuple[dict, dict]:
        """A copy of the §6.1 at-most-once state (a checkpoint's half
        beside the store)."""
        return ({client: dict(rows)
                 for client, rows in self.client_table.items()},
                dict(self.client_floors))

    def load_table(self, snapshot: tuple[dict, dict]) -> None:
        """Restart from a checkpoint: :meth:`reset`, then the table."""
        self.reset()
        table, floors = snapshot
        self.client_table.update(
            (client, dict(rows)) for client, rows in table.items())
        self.client_floors.update(floors)

    def cached_reply(self, txn_id: TxnId) -> Optional[tuple[bool, Any]]:
        """The recorded outcome for a transaction already executed on
        this shard (at-most-once semantics, §6.1)."""
        cached = self.client_table.get(txn_id.client, {}).get(txn_id.seq)
        if cached is not None:
            return cached.committed, cached.result
        return None

    def expired_generals(self, older_than: float) -> list[PendingGeneral]:
        """General transactions whose locks were granted before
        ``older_than`` — candidates for the §7.2 unilateral abort of
        failed clients."""
        return [
            pending for pending in self.pending_generals.values()
            if pending.granted_at <= older_than
            and pending.gtid not in self._queued_prelims
        ]

    # -- duplicate suppression --------------------------------------------------
    def _raise_floor(self, client: str, floor: int) -> None:
        """Act on a request's completion floor: forget the client's
        outcomes below it. Done in log order, so every replica (and
        every replay) keeps the same rows."""
        if floor <= self.client_floors.get(client, 0):
            return
        self.client_floors[client] = floor
        rows = self.client_table.get(client)
        if rows:
            for seq in [seq for seq in rows if seq < floor]:
                del rows[seq]

    def _is_duplicate(self, txn: IndependentTransaction) -> bool:
        client, seq = txn.txn_id.client, txn.txn_id.seq
        return seq < self.client_floors.get(client, 0) \
            or seq in self.client_table.get(client, ())

    def _reply_duplicate(self, txn: IndependentTransaction,
                         done: DoneCallback) -> None:
        cached = self.client_table.get(txn.txn_id.client, {}).get(
            txn.txn_id.seq)
        if cached is None:
            # Below the floor: the client already holds this outcome
            # and ignores the answer.
            done(False, "duplicate below completion floor")
            return
        done(cached.committed, cached.result)

    # -- lock-free fast path ----------------------------------------------------
    def _needs_locks(self, txn: IndependentTransaction) -> bool:
        """Locks are consulted only when general transactions are
        outstanding (§7: 'used only when there are outstanding general
        transactions'); preliminary transactions always acquire."""
        if txn.kind == "preliminary":
            return True
        return bool(self.pending_generals) or bool(self._queued_prelims) \
            or self.locks.queue_length() > 0

    # -- locked path ----------------------------------------------------------
    def _feed_locked(self, entry: LogEntry, txn: IndependentTransaction,
                     done: DoneCallback) -> None:
        reads, writes = txn.keys_on(self._owns)
        lock_txn = (txn.txn_id, entry.index)  # unique per log entry
        if txn.kind == "preliminary":
            self._queued_prelims.add(txn.txn_id)
        outcome = self.locks.request(
            lock_txn, reads, writes,
            timestamp=entry.index,
            policy=LockPolicy.QUEUE,
            on_grant=lambda: self._granted(entry, txn, lock_txn, done),
        )
        if outcome is LockOutcome.GRANTED:
            self._granted(entry, txn, lock_txn, done)
        else:
            self.deferred_executions += 1

    def _granted(self, entry: LogEntry, txn: IndependentTransaction,
                 lock_txn, done: DoneCallback) -> None:
        if self._is_duplicate(txn):
            self.locks.release_all(lock_txn)
            self._queued_prelims.discard(txn.txn_id)
            self._reply_duplicate(txn, done)
            return
        if txn.kind == "preliminary":
            self._queued_prelims.discard(txn.txn_id)
            result = self._execute_preliminary(entry, txn, lock_txn)
            self._record_outcome(txn, result)
            done(result.committed, result.result)
            waiting = self._waiting_conclusory.pop(txn.txn_id, None)
            if waiting is not None:
                self._feed_conclusory(waiting[0], waiting[0].record.txn,
                                      waiting[1])
        else:
            result = self._execute(txn)
            self._record_outcome(txn, result)
            self.locks.release_all(lock_txn)
            done(result.committed, result.result)

    # -- general transactions (§7.1) ------------------------------------------
    def _execute_preliminary(self, entry: LogEntry,
                             txn: IndependentTransaction, lock_txn) -> _ExecResult:
        """Reads under locks; writes are installed by the conclusory."""
        values = {}
        ok = True
        for key in sorted(txn.read_keys | txn.write_keys, key=repr):
            if self._owns(key):
                values[key] = self.store.get(key)
        expected = txn.args.get("expected") or {}
        for key, expected_value in expected.items():
            if self._owns(key) and values.get(key) != expected_value:
                ok = False  # reconnaissance results went stale (§7.1)
        self.pending_generals[txn.txn_id] = PendingGeneral(
            gtid=txn.txn_id,
            participants=txn.participants,
            granted_at=self._clock(),
        )
        # Remember the lock handle under the gtid for release at the
        # conclusory; LockManager keys grants by lock_txn.
        self.pending_generals[txn.txn_id].values["__lock_txn__"] = lock_txn
        return _ExecResult(committed=ok,
                           result={"ok": ok, "values": values})

    def _feed_conclusory(self, entry: LogEntry, txn: IndependentTransaction,
                         done: DoneCallback) -> None:
        gtid = txn.args["gtid"]
        if gtid in self._queued_prelims:
            # The preliminary is still waiting for locks; the conclusory
            # must execute after it (log order guarantees we only get
            # here with the preliminary already fed).
            self._waiting_conclusory[gtid] = (entry, done)
            return
        pending = self.pending_generals.pop(gtid, None)
        if pending is None:
            # Already concluded (duplicate conclusory, or the DL's
            # unilateral abort raced the client's commit, §7.2). The
            # first conclusory in the log won; this one is a no-op.
            self._record_outcome(txn, _ExecResult(False, "already concluded"))
            done(False, "already concluded")
            return
        committed = bool(txn.args.get("commit", False))
        if committed:
            for key, value in txn.args.get("writes", {}).items():
                if self._owns(key):
                    self.store.put(key, value)
        lock_txn = pending.values.get("__lock_txn__")
        if lock_txn is not None:
            self.locks.release_all(lock_txn)
        result = _ExecResult(committed, {"ok": committed})
        self._record_outcome(txn, result)
        done(result.committed, result.result)

    # -- plain execution ----------------------------------------------------
    def _run_and_finish(self, entry: LogEntry, txn: IndependentTransaction,
                        done: DoneCallback) -> None:
        result = self._execute(txn)
        self._record_outcome(txn, result)
        done(result.committed, result.result)

    def execute_read_only(self, txn: IndependentTransaction
                          ) -> Optional[tuple[bool, Any]]:
        """Run a READ_ONLY transaction outside the log (the read fast
        path): ``(committed, result)``, or None, with its writes rolled
        back, when the procedure wrote after all."""
        outcome = self._execute(txn, read_only=True)
        if outcome is None:
            return None
        return outcome.committed, outcome.result

    def _execute(self, txn: IndependentTransaction,
                 read_only: bool = False) -> Optional[_ExecResult]:
        undo = UndoLog()
        ctx = TxnContext(self.store, shard=self.shard, owns=self._owns,
                         undo=undo)
        try:
            outcome = _ExecResult(
                committed=True,
                result=self.registry.execute(txn.proc, ctx, txn.args))
        except TransactionAborted as abort:
            # Deterministic abort: every participant reaches the same
            # decision from the same arguments and replicated data.
            undo.rollback(self.store)
            outcome = _ExecResult(committed=False, result=abort.reason)
        if read_only and ctx.write_set:
            undo.rollback(self.store)
            return None
        return outcome

    def _record_outcome(self, txn: IndependentTransaction,
                        result: _ExecResult) -> None:
        self.client_table.setdefault(txn.txn_id.client, {})[
            txn.txn_id.seq] = result
