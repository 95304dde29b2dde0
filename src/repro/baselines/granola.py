"""Granola: application-level independent transactions (Cowling &
Liskov, USENIX ATC '12).

Granola is the closest prior system: it also optimizes for independent
transactions and avoids locks for them, but it coordinates entirely at
the application level:

- every operation is synchronously replicated through VR before it can
  proceed ("Multi-Paxos replication overhead", §8.1), and
- distributed independent transactions need a **timestamp vote round**
  between the participant shards' leaders: each proposes a timestamp,
  the final timestamp is the maximum, and execution follows timestamp
  order.

Because transactions never block on locks, Granola keeps its throughput
flat under contention (Figure 8) — but the extra replication and vote
round keep it 2.5–2.75× below Eris (Figures 6, 12).

For *general* transactions Granola must switch to its locking mode
(§7.3 discusses the cost): a lock-prepare/commit exchange per phase,
each synchronously replicated, with lock queues that collapse under
contention (Figures 9, 10).

Simplifications (documented per DESIGN.md): backups log operations for
durability and the leader executes (primary-copy), and decided
transactions execute when their vote set completes rather than in
strict global timestamp order — the message pattern and blocking
behaviour, which the evaluation measures, are preserved.
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


@dataclass(frozen=True)
class GRequest:
    """Client → every participant leader (independent transactions).

    Key sets ride along because a repository that has switched into
    locking mode must lock even independent transactions.
    """

    tag: str
    proc: str
    args: dict
    participants: tuple[int, ...]
    read_keys: frozenset = frozenset()
    write_keys: frozenset = frozenset()


@dataclass(frozen=True)
class GVote:
    """Leader ↔ leader timestamp proposal for one transaction."""

    tag: str
    shard: int
    proposed_ts: int


@dataclass(frozen=True)
class GReply:
    tag: str
    shard: int
    committed: bool
    result: Any
    final_ts: int


@dataclass(frozen=True)
class GLockPrepare:
    """Client → leader, locking mode phase 1 (general transactions)."""

    tag: str
    read_keys: frozenset
    write_keys: frozenset


@dataclass(frozen=True)
class GLockReply:
    tag: str
    shard: int
    values: dict


@dataclass(frozen=True)
class GLockCommit:
    tag: str
    commit: bool
    writes: tuple = ()


@dataclass(frozen=True)
class GLockAck:
    tag: str
    shard: int


@dataclass
class _Coordination:
    request: GRequest
    client: Address
    own_ts: int
    votes: dict[int, int] = field(default_factory=dict)


class GranolaReplica(VRReplica):
    """One replica of one Granola repository (shard)."""

    def __init__(self, address: Address, network: Network, shard: int,
                 group: list[Address], index: int,
                 store: KVStore, registry: ProcedureRegistry,
                 peer_leaders: Optional[dict[int, Address]] = None,
                 owns=None, execution_cost: float = 0.5e-6,
                 vr_config: Optional[VRConfig] = None):
        super().__init__(address, network, group, index, vr_config)
        self.shard = shard
        self.store = store
        self.registry = registry
        self.peer_leaders = dict(peer_leaders or {})
        self._owns = owns or (lambda key: True)
        self.execution_cost = execution_cost
        self.locks = LockManager()
        self._clock = 0
        self._coordinating: dict[str, _Coordination] = {}
        self._early_votes: dict[str, dict[int, int]] = {}
        self._replies: dict[str, GReply] = {}
        self._lock_state: dict[str, frozenset] = {}
        self._lock_replies: dict[str, GLockReply] = {}
        self.txns_executed = 0

    def execute_op(self, op: Any) -> Any:
        """Backups log only; the leader executes (primary-copy)."""
        return None

    def _next_ts(self) -> int:
        self._clock += 1
        return self._clock

    def _observe_ts(self, ts: int) -> None:
        self._clock = max(self._clock, ts)

    # -- independent transactions ------------------------------------------------
    def on_GRequest(self, src: Address, msg: GRequest,
                    packet: Packet) -> None:
        if not self.is_leader or self.vr_status != "normal":
            return
        if msg.tag in self._replies:
            self.send(src, self._replies[msg.tag])
            return
        if msg.tag in self._coordinating:
            # Client retransmission: our vote (or a peer's) may have
            # been lost — re-send ours so the exchange can finish.
            state = self._coordinating[msg.tag]
            vote = GVote(tag=msg.tag, shard=self.shard,
                         proposed_ts=state.own_ts)
            for shard in msg.participants:
                if shard != self.shard and shard not in state.votes:
                    self.send(self.peer_leaders[shard], vote)
            return
        self.replicate(("txn", msg.tag, msg.proc),
                       lambda _: self._logged(src, msg))

    def _logged(self, client: Address, msg: GRequest) -> None:
        if len(msg.participants) == 1:
            # Single-repository: execute as soon as the op is durable.
            self._execute_and_reply(client, msg, final_ts=self._next_ts())
            return
        state = _Coordination(request=msg, client=client,
                              own_ts=self._next_ts())
        state.votes[self.shard] = state.own_ts
        for shard, ts in self._early_votes.pop(msg.tag, {}).items():
            state.votes[shard] = ts
        self._coordinating[msg.tag] = state
        vote = GVote(tag=msg.tag, shard=self.shard, proposed_ts=state.own_ts)
        for shard in msg.participants:
            if shard != self.shard:
                self.send(self.peer_leaders[shard], vote)
        self._maybe_execute(msg.tag)

    def on_GVote(self, src: Address, msg: GVote, packet: Packet) -> None:
        self._observe_ts(msg.proposed_ts)
        state = self._coordinating.get(msg.tag)
        if state is None:
            if msg.tag in self._replies:
                # We already executed; the sender must have missed our
                # vote — answer with our decided timestamp.
                self.send(src, GVote(tag=msg.tag, shard=self.shard,
                                     proposed_ts=self._replies[msg.tag]
                                     .final_ts))
                return
            self._early_votes.setdefault(msg.tag, {})[msg.shard] = \
                msg.proposed_ts
            return
        state.votes[msg.shard] = msg.proposed_ts
        self._maybe_execute(msg.tag)

    def _maybe_execute(self, tag: str) -> None:
        state = self._coordinating.get(tag)
        if state is None:
            return
        if len(state.votes) < len(state.request.participants):
            return
        del self._coordinating[tag]
        final_ts = max(state.votes.values())
        self._observe_ts(final_ts)
        self._execute_and_reply(state.client, state.request, final_ts)

    @property
    def locking_mode(self) -> bool:
        """Granola switches the whole repository into locking mode
        while any locking transaction is outstanding; independent
        transactions then pay lock acquisition too — the cost behind
        the paper's >50% CRMW drop (§8.1, Figures 9–10)."""
        return bool(self._lock_state)

    def _execute_and_reply(self, client: Address, msg: GRequest,
                           final_ts: int) -> None:
        if self.locking_mode:
            reads = frozenset(k for k in msg.read_keys if self._owns(k))
            writes = frozenset(k for k in msg.write_keys if self._owns(k))
            lock_txn = ("ind", msg.tag)
            outcome = self.locks.request(
                lock_txn, reads, writes,
                policy=LockPolicy.QUEUE,
                on_grant=lambda: self._execute_locked(client, msg,
                                                      final_ts, lock_txn),
            )
            if outcome is LockOutcome.GRANTED:
                self._execute_locked(client, msg, final_ts, lock_txn)
            return
        self._execute_now(client, msg, final_ts)

    def _execute_locked(self, client: Address, msg: GRequest,
                        final_ts: int, lock_txn) -> None:
        self._execute_now(client, msg, final_ts)
        # Locking mode persists the lock release through the log (lock
        # state must survive leader failure in Granola's design): one
        # extra synchronous replication round per transaction — the
        # "less efficient locking mode" the paper charges for the >50%
        # CRMW throughput drop.
        if self.is_leader and self.vr_status == "normal":
            self.replicate(("unlock", msg.tag),
                           lambda _: self.locks.release_all(lock_txn))
        else:
            self.locks.release_all(lock_txn)

    def _execute_now(self, client: Address, msg: GRequest,
                     final_ts: int) -> None:
        ctx = TxnContext(self.store, shard=self.shard, owns=self._owns)
        self.busy(self.execution_cost)
        self.txns_executed += 1
        try:
            result = self.registry.execute(msg.proc, ctx, msg.args)
            committed = True
        except TransactionAborted as abort:
            result = abort.reason
            committed = False
        reply = GReply(tag=msg.tag, shard=self.shard, committed=committed,
                       result=result, final_ts=final_ts)
        self._replies[msg.tag] = reply
        self.send(client, reply)

    # -- locking mode (general transactions) -----------------------------------
    def on_GLockPrepare(self, src: Address, msg: GLockPrepare,
                        packet: Packet) -> None:
        if not self.is_leader or self.vr_status != "normal":
            return
        if msg.tag in self._lock_replies:
            self.send(src, self._lock_replies[msg.tag])
            return
        if msg.tag in self._lock_state:
            return  # duplicate; reply is on its way once locks grant
        reads = frozenset(k for k in msg.read_keys if self._owns(k))
        writes = frozenset(k for k in msg.write_keys if self._owns(k))
        self._lock_state[msg.tag] = reads | writes
        outcome = self.locks.request(
            msg.tag, reads, writes,
            policy=LockPolicy.QUEUE,
            on_grant=lambda: self._lock_granted(src, msg),
        )
        if outcome is LockOutcome.GRANTED:
            self._lock_granted(src, msg)

    def _lock_granted(self, client: Address, msg: GLockPrepare) -> None:
        self.replicate(("lock-prepare", msg.tag),
                       lambda _: self._lock_prepared(client, msg))

    def _lock_prepared(self, client: Address, msg: GLockPrepare) -> None:
        keys = self._lock_state.get(msg.tag, frozenset())
        values = {k: self.store.get(k) for k in keys}
        self.busy(self.execution_cost)
        reply = GLockReply(tag=msg.tag, shard=self.shard, values=values)
        self._lock_replies[msg.tag] = reply
        self.send(client, reply)

    def on_GLockCommit(self, src: Address, msg: GLockCommit,
                       packet: Packet) -> None:
        if not self.is_leader or self.vr_status != "normal":
            return
        if msg.tag not in self._lock_state:
            self.send(src, GLockAck(tag=msg.tag, shard=self.shard))
            return
        kind = "lock-commit" if msg.commit else "lock-abort"
        self.replicate((kind, msg.tag),
                       lambda _: self._lock_finished(src, msg))

    def _lock_finished(self, client: Address, msg: GLockCommit) -> None:
        if self._lock_state.pop(msg.tag, None) is not None:
            if msg.commit:
                for key, value in msg.writes:
                    if self._owns(key):
                        self.store.put(key, value)
            self.locks.release_all(msg.tag)
        self._lock_replies.pop(msg.tag, None)
        self.send(client, GLockAck(tag=msg.tag, shard=self.shard))


@dataclass(eq=False, kw_only=True)
class _PendingOp(Pending):
    op: WorkloadOp
    phase: str                       # "request" | "lock" | "commit"
    replies: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    acks: set = field(default_factory=set)
    commit: bool = True
    writes: tuple = ()


class GranolaClient(ClientNode):
    """Submits independent ops directly; drives locking mode for
    general ops."""

    def __init__(self, address: Address, network: Network,
                 shard_leaders: dict[int, Address],
                 retry_timeout: float = 10e-3):
        super().__init__(address, network, retry_timeout)
        self.shard_leaders = dict(shard_leaders)

    def submit(self, op: WorkloadOp, done: DoneFn) -> None:
        tag = self.fresh_tag(self.address)
        pending = _PendingOp(done=done, start=self.now, op=op,
                             phase="lock" if op.is_general else "request")
        self._open(tag, pending)
        self._send_phase(pending)

    def _send_phase(self, pending: _PendingOp) -> None:
        op = pending.op
        if pending.phase == "request":
            message = GRequest(tag=pending.key, proc=op.proc, args=op.args,
                               participants=op.participants,
                               read_keys=op.read_keys,
                               write_keys=op.write_keys)
            for shard in op.participants:
                if shard not in pending.replies:
                    self.send(self.shard_leaders[shard], message)
        elif pending.phase == "lock":
            # Locks are acquired one shard at a time in ascending shard
            # order (resource ordering): no cross-shard wait cycle can
            # form, at the cost of one lock round trip per participant.
            message = GLockPrepare(tag=pending.key, read_keys=op.read_keys,
                                   write_keys=op.write_keys)
            for shard in sorted(op.participants):
                if shard not in pending.replies:
                    self.send(self.shard_leaders[shard], message)
                    break
        else:
            message = GLockCommit(tag=pending.key, commit=pending.commit,
                                  writes=pending.writes)
            for shard in op.participants:
                if shard not in pending.acks:
                    self.send(self.shard_leaders[shard], message)

    # -- independent path ---------------------------------------------------
    def on_GReply(self, src: Address, msg: GReply, packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "request":
            return
        pending.replies[msg.shard] = msg
        if len(pending.replies) == len(pending.op.participants):
            committed = all(r.committed for r in pending.replies.values())
            self._finish(pending, committed,
                         {s: r.result for s, r in pending.replies.items()})

    # -- locking-mode path ----------------------------------------------------
    def on_GLockReply(self, src: Address, msg: GLockReply,
                      packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "lock":
            return
        pending.replies[msg.shard] = msg
        pending.values.update(msg.values)
        if len(pending.replies) < len(pending.op.participants):
            self._send_phase(pending)   # lock the next shard in order
            return
        writes = pending.op.compute(pending.values) \
            if pending.op.compute else {}
        pending.commit = writes is not None
        pending.writes = tuple(writes.items()) if writes else ()
        pending.phase = "commit"
        pending.acks = set()
        self._send_phase(pending)

    def on_GLockAck(self, src: Address, msg: GLockAck,
                    packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "commit":
            return
        pending.acks.add(msg.shard)
        if len(pending.acks) == len(pending.op.participants):
            self._finish(pending, pending.commit, pending.values)
