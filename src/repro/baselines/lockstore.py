"""Lock-Store: the conventional layered design (Figure 1).

Two-phase commit across shards, strict two-phase locking within them,
and Viewstamped Replication (Multi-Paxos-equivalent) under each shard —
the architecture the paper attributes to Spanner-like systems. The
client acts as the 2PC coordinator:

1. **Prepare** to each participant's leader. The leader acquires the
   transaction's locks (wait-die on conflict — the younger transaction
   aborts and the client retries with its original timestamp, so
   deadlock is impossible and starvation bounded), synchronously
   replicates the prepare through VR, executes the stored procedure
   (independent ops) or reads the lock set (general ops), and votes.
2. **Commit/Abort** to each leader, again synchronously replicated;
   locks release and (for general ops) the client-computed writes
   install.

Single-shard transactions take the standard one-phase-commit shortcut:
one lock-acquire + one VR round.

Per the paper's Figure 9 note, Lock-Store runs the *same* protocol for
independent (MRMW) and general (CRMW) transactions, so the two perform
identically. Backups log prepares/commits for durability; execution
happens at the leader (primary-copy), which is all the paper's
normal-case experiments exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines.common import WorkloadOp
from repro.errors import TransactionAborted
from repro.net.endpoint import ClientNode, DoneFn, Pending
from repro.net.message import Address, Packet
from repro.net.network import Network
from repro.replication.vr import VRConfig, VRReplica
from repro.store.kv import KVStore
from repro.store.locks import LockManager, LockOutcome, LockPolicy
from repro.store.procedures import ProcedureRegistry, TxnContext
from repro.store.undo import UndoLog


@dataclass(frozen=True)
class LSPrepare:
    tag: str
    ts: tuple            # unique wait-die priority: (submit time, tag)
    proc: str
    args: dict
    read_keys: frozenset
    write_keys: frozenset
    is_general: bool
    one_phase: bool


@dataclass(frozen=True)
class LSVote:
    tag: str
    shard: int
    vote: str            # "ok" | "abort"
    result: Any = None
    committed: bool = True   # one-phase outcome


@dataclass(frozen=True)
class LSDecision:
    tag: str
    commit: bool
    writes: tuple = ()   # general ops: ((key, value), ...)


@dataclass(frozen=True)
class LSAck:
    tag: str
    shard: int


class LockStoreReplica(VRReplica):
    """One replica of one Lock-Store shard."""

    def __init__(self, address: Address, network: Network, shard: int,
                 group: list[Address], index: int,
                 store: KVStore, registry: ProcedureRegistry,
                 owns=None, execution_cost: float = 0.5e-6,
                 vr_config: Optional[VRConfig] = None):
        super().__init__(address, network, group, index, vr_config)
        self.shard = shard
        self.store = store
        self.registry = registry
        self._owns = owns or (lambda key: True)
        self.execution_cost = execution_cost
        self.locks = LockManager()
        self._undo: dict[str, UndoLog] = {}
        self._vote_cache: dict[str, LSVote] = {}
        self._finished: set[str] = set()
        self._lock_pending: set[str] = set()
        self.txns_prepared = 0

    def execute_op(self, op: Any) -> Any:
        """Backups log only (primary-copy execution); see module doc."""
        return None

    # -- prepare phase ------------------------------------------------------
    def on_LSPrepare(self, src: Address, msg: LSPrepare,
                     packet: Packet) -> None:
        if not self.is_leader or self.vr_status != "normal":
            return
        if msg.tag in self._vote_cache:
            self.send(src, self._vote_cache[msg.tag])
            return
        if msg.tag in self._finished or msg.tag in self._undo \
                or msg.tag in self._lock_pending:
            return  # queued/deciding/applied; retransmissions wait
        reads = frozenset(k for k in msg.read_keys if self._owns(k))
        writes = frozenset(k for k in msg.write_keys if self._owns(k))
        self._lock_pending.add(msg.tag)
        outcome = self.locks.request(
            msg.tag, reads, writes,
            timestamp=msg.ts,
            policy=LockPolicy.WAIT_DIE,
            on_grant=lambda: self._locks_granted(src, msg),
            on_abort=lambda: self._locks_denied(src, msg),
        )
        if outcome is LockOutcome.ABORTED:
            self._lock_pending.discard(msg.tag)
            self.send(src, LSVote(tag=msg.tag, shard=self.shard,
                                  vote="abort"))
        elif outcome is LockOutcome.GRANTED:
            self._locks_granted(src, msg)

    def _locks_denied(self, client: Address, msg: LSPrepare) -> None:
        """Wait-die killed this request while it was queued."""
        self._lock_pending.discard(msg.tag)
        self.send(client, LSVote(tag=msg.tag, shard=self.shard,
                                 vote="abort"))

    def _locks_granted(self, client: Address, msg: LSPrepare) -> None:
        self._lock_pending.discard(msg.tag)
        if not self.is_leader or msg.tag in self._finished:
            # The coordinator already aborted this transaction (its
            # prepare was still queued when the decision arrived).
            self.locks.release_all(msg.tag)
            return
        if msg.one_phase:
            self.replicate(("commit-1p", msg.tag),
                           lambda _: self._finish_one_phase(client, msg))
        else:
            self.replicate(("prepare", msg.tag),
                           lambda _: self._finish_prepare(client, msg))

    def _finish_one_phase(self, client: Address, msg: LSPrepare) -> None:
        committed, result = self._execute(msg, undo=None)
        self.locks.release_all(msg.tag)
        self._finished.add(msg.tag)
        vote = LSVote(tag=msg.tag, shard=self.shard, vote="ok",
                      result=result, committed=committed)
        self._vote_cache[msg.tag] = vote
        self.send(client, vote)

    def _finish_prepare(self, client: Address, msg: LSPrepare) -> None:
        undo = UndoLog()
        if msg.is_general:
            # General ops read their lock set; writes come at commit.
            keys = (msg.read_keys | msg.write_keys)
            result = {k: self.store.get(k) for k in keys if self._owns(k)}
            committed = True
            self.busy(self.execution_cost)
        else:
            committed, result = self._execute(msg, undo=undo)
        if not committed:
            # Deterministic application abort at prepare time.
            undo.rollback(self.store)
            self.locks.release_all(msg.tag)
            vote = LSVote(tag=msg.tag, shard=self.shard, vote="abort",
                          result=result)
        else:
            self._undo[msg.tag] = undo
            self.txns_prepared += 1
            vote = LSVote(tag=msg.tag, shard=self.shard, vote="ok",
                          result=result)
        self._vote_cache[msg.tag] = vote
        self.send(client, vote)

    def _execute(self, msg: LSPrepare, undo: Optional[UndoLog]) -> tuple:
        ctx = TxnContext(self.store, shard=self.shard, owns=self._owns,
                         undo=undo)
        self.busy(self.execution_cost)
        try:
            return True, self.registry.execute(msg.proc, ctx, msg.args)
        except TransactionAborted as abort:
            if undo is not None:
                undo.rollback(self.store)
            return False, abort.reason

    # -- decision phase ------------------------------------------------------
    def on_LSDecision(self, src: Address, msg: LSDecision,
                      packet: Packet) -> None:
        if not self.is_leader or self.vr_status != "normal":
            return
        if msg.tag in self._finished:
            self.send(src, LSAck(tag=msg.tag, shard=self.shard))
            return
        if msg.tag not in self._undo:
            # Never prepared here (aborted at lock time, or the prepare
            # is still waiting in the lock queue): ack an abort so the
            # coordinator can finish, and drop any queued lock request.
            if not msg.commit:
                self._finished.add(msg.tag)
                self._lock_pending.discard(msg.tag)
                self.locks.release_all(msg.tag)
                self._vote_cache.pop(msg.tag, None)
                self.send(src, LSAck(tag=msg.tag, shard=self.shard))
            return
        kind = "commit" if msg.commit else "abort"
        self.replicate((kind, msg.tag),
                       lambda _: self._finish_decision(src, msg))

    def _finish_decision(self, client: Address, msg: LSDecision) -> None:
        undo = self._undo.pop(msg.tag, None)
        if undo is not None:
            if msg.commit:
                for key, value in msg.writes:
                    if self._owns(key):
                        self.store.put(key, value)
            else:
                undo.rollback(self.store)
        self.locks.release_all(msg.tag)
        self._finished.add(msg.tag)
        self._vote_cache.pop(msg.tag, None)
        self.send(client, LSAck(tag=msg.tag, shard=self.shard))


@dataclass(eq=False, kw_only=True)
class _PendingTxn(Pending):
    op: WorkloadOp
    ts: Optional[tuple] = None
    phase: str = "prepare"       # "prepare" | "decide"
    votes: dict = field(default_factory=dict)
    acks: set = field(default_factory=set)
    commit: bool = True
    writes: tuple = ()
    one_phase: bool = False


class LockStoreClient(ClientNode):
    """2PC coordinator with wait-die retry loops."""

    max_retries = 200

    def __init__(self, address: Address, network: Network,
                 shard_leaders: dict[int, Address],
                 retry_timeout: float = 10e-3,
                 one_phase: bool = False):
        super().__init__(address, network, retry_timeout)
        self.shard_leaders = dict(shard_leaders)
        #: One-phase commit for single-shard transactions. Off by
        #: default: the paper's Lock-Store runs the full 2PC exchange
        #: for every transaction (its measured 4.5x gap matches the
        #: two-round cost). The ablation benchmark flips this on.
        self.one_phase = one_phase

    def submit(self, op: WorkloadOp, done: DoneFn) -> None:
        self._attempt(_PendingTxn(done=done, start=self.now, op=op))

    def _attempt(self, pending: _PendingTxn) -> None:
        tag = self.fresh_tag(self.address)
        if pending.ts is None:
            # Wait-die priority: unique and totally ordered (time, tag)
            # — ties would let conflicting transactions all wait and
            # deadlock. A retry after an abort keeps its first one, so
            # it ages into the oldest and eventually wins.
            pending.ts = (self.now, tag)
        pending.phase = "prepare"
        pending.votes = {}
        self._open(tag, pending)
        self._send_phase(pending)

    def _send_phase(self, pending: _PendingTxn) -> None:
        op = pending.op
        if pending.phase == "decide":
            message = LSDecision(tag=pending.key, commit=pending.commit,
                                 writes=pending.writes if pending.commit
                                 else ())
            for shard in op.participants:
                if shard not in pending.acks:
                    self.send(self.shard_leaders[shard], message)
            return
        pending.one_phase = (self.one_phase and not op.is_distributed
                             and not op.is_general)
        message = LSPrepare(
            tag=pending.key, ts=pending.ts, proc=op.proc, args=op.args,
            read_keys=op.read_keys, write_keys=op.write_keys,
            is_general=op.is_general, one_phase=pending.one_phase,
        )
        for shard in op.participants:
            if shard not in pending.votes:
                self.send(self.shard_leaders[shard], message)

    def on_LSVote(self, src: Address, msg: LSVote, packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "prepare":
            return
        op = pending.op
        if pending.one_phase:
            if msg.vote == "abort":
                # Wait-die lock abort on the one-phase path: retry.
                self._abort(pending)
            else:
                self._finish(pending, msg.committed, msg.result)
            return
        pending.votes[msg.shard] = msg
        if msg.vote == "abort":
            self._decide(pending, commit=False)
            return
        if len(pending.votes) == len(op.participants):
            if op.is_general and op.compute is not None:
                values: dict = {}
                for vote in pending.votes.values():
                    if isinstance(vote.result, dict):
                        values.update(vote.result)
                writes = op.compute(values)
                if writes is None:
                    self._decide(pending, commit=False)
                    return
                pending.writes = tuple(writes.items())
            self._decide(pending, commit=True)

    def _decide(self, pending: _PendingTxn, commit: bool) -> None:
        pending.phase = "decide"
        pending.commit = commit
        pending.acks = set()
        self._send_phase(pending)

    def on_LSAck(self, src: Address, msg: LSAck, packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "decide":
            return
        pending.acks.add(msg.shard)
        if len(pending.acks) == len(pending.op.participants):
            if pending.commit:
                self._finish(pending, True,
                             {shard: vote.result
                              for shard, vote in pending.votes.items()})
            else:
                self._abort(pending)
