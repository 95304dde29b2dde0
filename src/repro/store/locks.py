"""Per-key read/write locks with queueing and wait-die.

Used three ways in the reproduction:

- **Eris general transactions (§7):** a preliminary transaction acquires
  its whole lock set in one atomic step inside the linearizable
  independent-transaction layer, so requests either fully grant or
  queue; cycles in the wait-for graph are impossible and no deadlock
  handling is needed (``QUEUE`` policy).
- **Lock-Store (2PL):** locks are held from prepare to commit across
  client round trips. Deadlocks are possible, so the ``WAIT_DIE``
  policy aborts a younger requester that conflicts with an older holder
  (the client retries with its original timestamp, guaranteeing
  progress).
- **Granola's locking mode** for non-independent transactions.

Grant order is FIFO over queued requests, with the all-or-nothing rule:
a queued request is granted only when *every* lock it needs is free,
which both avoids partial-hold deadlocks and models the paper's
atomic lock acquisition step.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    QUEUED = "queued"
    ABORTED = "aborted"


class LockPolicy(enum.Enum):
    QUEUE = "queue"          # always wait (deadlock-free callers only)
    WAIT_DIE = "wait-die"    # younger requester aborts on conflict


_request_ids = itertools.count()


@dataclass
class LockRequest:
    """One transaction's (whole) lock set request.

    ``timestamp`` is any totally ordered value; wait-die callers must
    guarantee uniqueness (e.g. a ``(time, tag)`` tuple), since equal
    timestamps would let neither side of a conflict die and allow
    cross-shard waits to form a cycle.
    """

    txn: Hashable
    read_keys: frozenset
    write_keys: frozenset
    timestamp: object
    on_grant: Optional[Callable[[], None]] = None
    on_abort: Optional[Callable[[], None]] = None
    policy: "LockPolicy" = None  # filled in by LockManager.request
    request_id: int = field(default_factory=lambda: next(_request_ids))


class LockManager:
    """Key-granularity shared/exclusive locks for one shard."""

    def __init__(self) -> None:
        self._readers: dict[Hashable, set] = {}   # key -> {txn}
        self._writer: dict[Hashable, Hashable] = {}  # key -> txn
        self._held_by: dict[Hashable, set] = {}   # txn -> {key}
        self._ts: dict[Hashable, float] = {}      # txn -> timestamp
        self._queue: list[LockRequest] = []
        self.grants = 0
        self.waits = 0
        self.aborts = 0

    # -- queries --------------------------------------------------------
    def holds_any(self, txn: Hashable) -> bool:
        return bool(self._held_by.get(txn))

    def is_locked(self, key: Hashable, mode: LockMode = LockMode.WRITE) -> bool:
        """Would a request for ``key`` in ``mode`` conflict right now?"""
        if key in self._writer:
            return True
        if mode is LockMode.WRITE and self._readers.get(key):
            return True
        return False

    def queue_length(self) -> int:
        return len(self._queue)

    # -- acquisition --------------------------------------------------------
    def request(
        self,
        txn: Hashable,
        read_keys,
        write_keys,
        timestamp: object = 0.0,
        policy: LockPolicy = LockPolicy.QUEUE,
        on_grant: Optional[Callable[[], None]] = None,
        on_abort: Optional[Callable[[], None]] = None,
    ) -> LockOutcome:
        """Atomically request a read/write lock set.

        Returns GRANTED (locks now held), QUEUED (``on_grant`` fires
        when every lock becomes available — or ``on_abort`` if wait-die
        later dooms the queued request), or ABORTED (wait-die now).
        """
        req = LockRequest(
            txn=txn,
            read_keys=frozenset(read_keys) - frozenset(write_keys),
            write_keys=frozenset(write_keys),
            timestamp=timestamp,
            on_grant=on_grant,
            on_abort=on_abort,
            policy=policy,
        )
        conflicts = self._conflicting_holders(req)
        if not conflicts:
            self._grant(req)
            self.grants += 1
            self._reap_doomed()
            return LockOutcome.GRANTED
        if policy is LockPolicy.WAIT_DIE and self._doomed(req, conflicts):
            # A younger transaction dies rather than waiting on an older
            # holder; the client retries keeping its original timestamp.
            self.aborts += 1
            return LockOutcome.ABORTED
        self._queue.append(req)
        self.waits += 1
        return LockOutcome.QUEUED

    # -- release ----------------------------------------------------------
    def release_all(self, txn: Hashable) -> list[LockRequest]:
        """Drop every lock ``txn`` holds (and any queued request), then
        grant now-satisfiable queued requests in FIFO order.

        Returns the newly granted requests; their ``on_grant`` callbacks
        have already been invoked.
        """
        for key in self._held_by.pop(txn, set()):
            if self._writer.get(key) == txn:
                del self._writer[key]
            readers = self._readers.get(key)
            if readers:
                readers.discard(txn)
                if not readers:
                    del self._readers[key]
        self._ts.pop(txn, None)
        self._queue = [r for r in self._queue if r.txn != txn]
        return self._pump()

    # -- internals ----------------------------------------------------------
    def _conflicting_holders(self, req: LockRequest) -> set:
        holders: set = set()
        for key in req.write_keys:
            writer = self._writer.get(key)
            if writer is not None and writer != req.txn:
                holders.add(writer)
            for reader in self._readers.get(key, ()):
                if reader != req.txn:
                    holders.add(reader)
        for key in req.read_keys:
            writer = self._writer.get(key)
            if writer is not None and writer != req.txn:
                holders.add(writer)
        return holders

    def _grant(self, req: LockRequest) -> None:
        held = self._held_by.setdefault(req.txn, set())
        for key in req.write_keys:
            self._writer[key] = req.txn
            held.add(key)
        for key in req.read_keys:
            self._readers.setdefault(key, set()).add(req.txn)
            held.add(key)
        self._ts.setdefault(req.txn, req.timestamp)

    def _doomed(self, req: LockRequest, conflicts: set) -> bool:
        """Wait-die death sentence: some conflicting holder is older."""
        ts = req.timestamp
        return any(self._ts.get(holder) is not None
                   and self._ts.get(holder) < ts
                   for holder in conflicts)

    def _reap_doomed(self) -> list[LockRequest]:
        """Re-apply wait-die to *queued* requests: a waiter that now
        conflicts with an older holder must die, or a younger-waits-on-
        older edge would survive and cross-shard cycles could form."""
        doomed: list[LockRequest] = []
        kept: list[LockRequest] = []
        for req in self._queue:
            if req.policy is LockPolicy.WAIT_DIE:
                conflicts = self._conflicting_holders(req)
                if conflicts and self._doomed(req, conflicts):
                    doomed.append(req)
                    continue
            kept.append(req)
        if doomed:
            self._queue = kept
            self.aborts += len(doomed)
            for req in doomed:
                if req.on_abort is not None:
                    req.on_abort()
        return doomed

    def _pump(self) -> list[LockRequest]:
        granted: list[LockRequest] = []
        made_progress = True
        while made_progress:
            made_progress = False
            for i, req in enumerate(self._queue):
                if not self._conflicting_holders(req):
                    del self._queue[i]
                    self._grant(req)
                    self.grants += 1
                    granted.append(req)
                    made_progress = True
                    break
        self._reap_doomed()
        for req in granted:
            if req.on_grant is not None:
                req.on_grant()
        return granted
