"""TAPIR: inconsistent replication + OCC (Zhang et al., SOSP '15).

TAPIR commits transactions in a single round trip when its *fast path*
succeeds: the client sends Prepare (carrying the transaction and an OCC
timestamp) to **every** replica of every participant; each replica
validates against its prepared set; if all ``n`` replicas of each shard
vote OK, the client decides commit and sends Commit followed by
Finalize. The extra commit and finalize messages per transaction are
exactly the overhead the paper cites for TAPIR's throughput gap
(§8.1), and the OCC validation aborts are what collapse it under
contention (Figure 8).

If replies are missing after the fast-path window but a classic quorum
(f+1) voted OK, the client takes the *slow path*: an extra consensus
round to the shard before committing — this is the degradation packet
loss induces in Figure 13 ("replica state divergence that forces the
more expensive consensus slow path").

Per the paper's Figure 9 note, TAPIR runs the same protocol for
independent and general transactions (prepares return read values for
general ops; the commit carries the client-computed writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.baselines.common import WorkloadOp
from repro.errors import TransactionAborted
from repro.net.endpoint import ClientNode, DoneFn, Node, Pending
from repro.net.message import Address, Packet
from repro.net.network import Network
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry, TxnContext


@dataclass(frozen=True)
class TPrepare:
    tag: str
    ts: float
    proc: str
    args: dict
    read_keys: frozenset
    write_keys: frozenset
    is_general: bool


@dataclass(frozen=True)
class TPrepareReply:
    tag: str
    shard: int
    replica_index: int
    vote: str            # "ok" | "abort"
    result: Any = None


@dataclass(frozen=True)
class TDecision:
    tag: str
    commit: bool
    writes: tuple = ()


@dataclass(frozen=True)
class TDecisionAck:
    tag: str
    shard: int
    replica_index: int
    committed: bool
    result: Any = None


@dataclass(frozen=True)
class TSlowConfirm:
    tag: str


@dataclass(frozen=True)
class TSlowConfirmAck:
    tag: str
    shard: int
    replica_index: int


@dataclass(frozen=True)
class TFinalize:
    tag: str


class TapirReplica(Node):
    """One inconsistently-replicated shard member."""

    def __init__(self, address: Address, network: Network, shard: int,
                 replica_index: int, store: KVStore,
                 registry: ProcedureRegistry, owns=None,
                 execution_cost: float = 0.5e-6):
        super().__init__(address, network)
        self.shard = shard
        self.replica_index = replica_index
        self.store = store
        self.registry = registry
        self._owns = owns or (lambda key: True)
        self.execution_cost = execution_cost
        self._prepared: dict[str, TPrepare] = {}
        self._finished: set[str] = set()
        self.occ_aborts = 0

    # -- OCC validation at prepare time ---------------------------------------
    def on_TPrepare(self, src: Address, msg: TPrepare,
                    packet: Packet) -> None:
        if msg.tag in self._prepared or msg.tag in self._finished:
            return  # duplicate; client retransmissions resolve via acks
        reads = frozenset(k for k in msg.read_keys if self._owns(k))
        writes = frozenset(k for k in msg.write_keys if self._owns(k))
        if self._conflicts(reads, writes):
            self.occ_aborts += 1
            self.send(src, TPrepareReply(tag=msg.tag, shard=self.shard,
                                         replica_index=self.replica_index,
                                         vote="abort"))
            return
        self._prepared[msg.tag] = msg
        result = None
        if msg.is_general:
            result = {k: self.store.get(k) for k in (reads | writes)}
        self.send(src, TPrepareReply(tag=msg.tag, shard=self.shard,
                                     replica_index=self.replica_index,
                                     vote="ok", result=result))

    def _conflicts(self, reads: frozenset, writes: frozenset) -> bool:
        for other in self._prepared.values():
            other_reads = frozenset(k for k in other.read_keys
                                    if self._owns(k))
            other_writes = frozenset(k for k in other.write_keys
                                     if self._owns(k))
            if writes & (other_reads | other_writes) or reads & other_writes:
                return True
        return False

    # -- commit / abort ------------------------------------------------------
    def on_TDecision(self, src: Address, msg: TDecision,
                     packet: Packet) -> None:
        prepared = self._prepared.pop(msg.tag, None)
        if prepared is None:
            # Not prepared here (we voted abort, or already finished):
            # acknowledge so the coordinator can make progress.
            self._finished.add(msg.tag)
            self.send(src, TDecisionAck(
                tag=msg.tag, shard=self.shard,
                replica_index=self.replica_index,
                committed=msg.commit))
            return
        self._finished.add(msg.tag)
        committed = msg.commit
        result = None
        if msg.commit:
            self.busy(self.execution_cost)
            if prepared.is_general:
                for key, value in msg.writes:
                    if self._owns(key):
                        self.store.put(key, value)
            else:
                ctx = TxnContext(self.store, shard=self.shard,
                                 owns=self._owns)
                try:
                    result = self.registry.execute(prepared.proc, ctx,
                                                   prepared.args)
                except TransactionAborted as abort:
                    committed = False
                    result = abort.reason
        self.send(src, TDecisionAck(tag=msg.tag, shard=self.shard,
                                    replica_index=self.replica_index,
                                    committed=committed, result=result))

    def on_TSlowConfirm(self, src: Address, msg: TSlowConfirm,
                        packet: Packet) -> None:
        self.send(src, TSlowConfirmAck(tag=msg.tag, shard=self.shard,
                                       replica_index=self.replica_index))

    def on_TFinalize(self, src: Address, msg: TFinalize,
                     packet: Packet) -> None:
        # Finalize closes the IR consensus record; no reply needed. The
        # CPU cost of receiving it is the point (§8.1).
        self._finished.add(msg.tag)


@dataclass(eq=False, kw_only=True)
class _PendingTxn(Pending):
    op: WorkloadOp
    ts: float = 0.0
    phase: str = "prepare"     # prepare | slow | decide
    votes: dict = field(default_factory=dict)   # (shard, idx) -> reply
    slow_acks: set = field(default_factory=set)
    slow_needed: set = field(default_factory=set)
    acks: dict = field(default_factory=dict)    # shard -> set(idx)
    commit: bool = True
    writes: tuple = ()
    result: Any = None
    fast_timer: Any = None


class TapirClient(ClientNode):
    """Drives the IR fast/slow path and OCC retries."""

    max_retries = 200
    #: How long the fast path waits for every replica's vote before
    #: the slow path settles for a majority.
    fast_timeout = 1e-3

    def __init__(self, address: Address, network: Network,
                 shard_replicas: dict[int, list[Address]],
                 retry_timeout: float = 10e-3):
        super().__init__(address, network, retry_timeout)
        self.shard_replicas = {s: list(a) for s, a in shard_replicas.items()}
        self.fast_path_commits = 0
        self.slow_path_commits = 0

    def _n(self, shard: int) -> int:
        return len(self.shard_replicas[shard])

    def _f_plus_1(self, shard: int) -> int:
        return self._n(shard) // 2 + 1

    def submit(self, op: WorkloadOp, done: DoneFn) -> None:
        self._attempt(_PendingTxn(done=done, start=self.now, op=op))

    def _attempt(self, pending: _PendingTxn) -> None:
        """One OCC attempt under a fresh tag and timestamp."""
        tag = self.fresh_tag(self.address)
        pending.ts = self.now
        pending.phase = "prepare"
        pending.votes, pending.acks = {}, {}
        pending.writes, pending.result = (), None
        pending.fast_timer = self.timer(self.fast_timeout,
                                        self._fast_window_closed, tag)
        pending.fast_timer.start()
        self._open(tag, pending)
        self._send_phase(pending)

    def _send_phase(self, pending: _PendingTxn) -> None:
        if pending.phase == "prepare":
            op = pending.op
            message = TPrepare(tag=pending.key, ts=pending.ts, proc=op.proc,
                               args=op.args, read_keys=op.read_keys,
                               write_keys=op.write_keys,
                               is_general=op.is_general)
        elif pending.phase == "slow":
            message = TSlowConfirm(tag=pending.key)
        else:
            message = TDecision(tag=pending.key, commit=pending.commit,
                                writes=pending.writes)
        self._send_all(pending, message)

    def _send_all(self, pending: _PendingTxn, message: Any) -> None:
        for shard in pending.op.participants:
            for addr in self.shard_replicas[shard]:
                self.send(addr, message)

    # -- vote collection -------------------------------------------------------
    def on_TPrepareReply(self, src: Address, msg: TPrepareReply,
                         packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "prepare":
            return
        pending.votes[(msg.shard, msg.replica_index)] = msg
        if msg.vote == "abort":
            self._decide(pending, commit=False)
            return
        if all(
            sum(1 for (s, _), v in pending.votes.items()
                if s == shard and v.vote == "ok") == self._n(shard)
            for shard in pending.op.participants
        ):
            self.fast_path_commits += 1
            self._decide(pending, commit=True)

    def _fast_window_closed(self, tag: str) -> None:
        pending = self._pending.get(tag)
        if pending is None or pending.phase != "prepare":
            return
        ok_counts = {shard: sum(1 for (s, _), v in pending.votes.items()
                                if s == shard and v.vote == "ok")
                     for shard in pending.op.participants}
        if all(count >= self._f_plus_1(shard)
               for shard, count in ok_counts.items()):
            # Slow path: one extra consensus round before committing.
            pending.phase = "slow"
            pending.slow_needed = set(pending.op.participants)
            pending.slow_acks = set()
            self._send_phase(pending)
        else:
            pending.fast_timer.start()  # keep waiting; retransmit covers

    def on_TSlowConfirmAck(self, src: Address, msg: TSlowConfirmAck,
                           packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "slow":
            return
        pending.slow_acks.add((msg.shard, msg.replica_index))
        done_shards = {shard for shard in pending.slow_needed
                       if sum(1 for (s, _) in pending.slow_acks
                              if s == shard) >= self._f_plus_1(shard)}
        if done_shards == pending.slow_needed:
            self.slow_path_commits += 1
            self._decide(pending, commit=True)

    # -- decision -----------------------------------------------------------
    def _decide(self, pending: _PendingTxn, commit: bool) -> None:
        pending.phase = "decide"
        pending.commit = commit
        pending.fast_timer.stop()
        if commit and pending.op.is_general and pending.op.compute is not None:
            values: dict = {}
            for vote in pending.votes.values():
                if isinstance(vote.result, dict):
                    values.update(vote.result)
            writes = pending.op.compute(values)
            if writes is None:
                pending.commit = False
            else:
                pending.writes = tuple(writes.items())
        self._send_phase(pending)

    def on_TDecisionAck(self, src: Address, msg: TDecisionAck,
                        packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or pending.phase != "decide":
            return
        pending.acks.setdefault(msg.shard, set()).add(msg.replica_index)
        if msg.result is not None:
            pending.result = msg.result
        if not msg.committed:
            pending.commit = False
        if all(len(pending.acks.get(shard, ())) >= self._f_plus_1(shard)
               for shard in pending.op.participants):
            self._send_all(pending, TFinalize(tag=pending.key))
            if pending.commit:
                self._finish(pending, True, pending.result)
            else:
                self._abort(pending)

    def _finish(self, pending: _PendingTxn, committed, result=None) -> None:
        pending.fast_timer.stop()
        super()._finish(pending, committed, result)
