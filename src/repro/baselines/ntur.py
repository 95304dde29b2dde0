"""NT-UR: non-transactional, unreplicated (§8).

One node per shard, no coordination, no replication, no concurrency
control — "its performance is the maximum expected of any system with
the same number of shards". Multi-shard operations are just independent
messages to each shard (one two-shard operation costs the same as two
one-shard operations, which is why NT-UR throughput also falls as the
distributed fraction grows in Figure 7).

For general operations (the CRMW workload), NT-UR still has to move
data between shards: the client reads in one round and writes in a
second, with no isolation whatsoever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.baselines.common import WorkloadOp
from repro.errors import TransactionAborted
from repro.net.endpoint import ClientNode, DoneFn, Node, Pending
from repro.net.message import Address, Packet
from repro.net.network import Network
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry, TxnContext


@dataclass(frozen=True)
class NTURExecute:
    tag: str
    proc: str
    args: dict


@dataclass(frozen=True)
class NTURRead:
    tag: str
    keys: tuple


@dataclass(frozen=True)
class NTURWrite:
    tag: str
    writes: tuple  # ((key, value), ...)


@dataclass(frozen=True)
class NTURReply:
    tag: str
    shard: int
    committed: bool
    result: Any


class NTURServer(Node):
    """A single unreplicated node owning one shard."""

    def __init__(self, address: Address, network: Network, shard: int,
                 store: KVStore, registry: ProcedureRegistry,
                 owns: Optional[Callable[[Hashable], bool]] = None,
                 execution_cost: float = 0.5e-6):
        super().__init__(address, network)
        self.shard = shard
        self.store = store
        self.registry = registry
        self._owns = owns or (lambda key: True)
        self.execution_cost = execution_cost
        self.ops_executed = 0

    def on_NTURExecute(self, src: Address, msg: NTURExecute,
                       packet: Packet) -> None:
        ctx = TxnContext(self.store, shard=self.shard, owns=self._owns)
        self.busy(self.execution_cost)
        self.ops_executed += 1
        try:
            result = self.registry.execute(msg.proc, ctx, msg.args)
            committed = True
        except TransactionAborted as abort:
            result = abort.reason
            committed = False
        self.send(src, NTURReply(tag=msg.tag, shard=self.shard,
                                 committed=committed, result=result))

    def on_NTURRead(self, src: Address, msg: NTURRead,
                    packet: Packet) -> None:
        self.busy(self.execution_cost)
        values = {k: self.store.get(k) for k in msg.keys if self._owns(k)}
        self.send(src, NTURReply(tag=msg.tag, shard=self.shard,
                                 committed=True, result=values))

    def on_NTURWrite(self, src: Address, msg: NTURWrite,
                     packet: Packet) -> None:
        self.busy(self.execution_cost)
        for key, value in msg.writes:
            if self._owns(key):
                self.store.put(key, value)
        self.send(src, NTURReply(tag=msg.tag, shard=self.shard,
                                 committed=True, result=None))


@dataclass(eq=False, kw_only=True)
class _Pending(Pending):
    op: WorkloadOp
    phase: str                      # "execute" | "read" | "write"
    awaiting: set = field(default_factory=set)
    committed: bool = True
    results: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


class NTURClient(ClientNode):
    """Fire-and-collect client; no retries (nothing is guaranteed)."""

    def __init__(self, address: Address, network: Network,
                 shard_servers: dict[int, Address]):
        super().__init__(address, network, retry_timeout=None)
        self.shard_servers = dict(shard_servers)

    def submit(self, op: WorkloadOp, done: DoneFn) -> None:
        tag = self.fresh_tag(self.address)
        pending = _Pending(done=done, start=self.now, op=op,
                           phase="read" if op.is_general else "execute",
                           awaiting=set(op.participants))
        self._open(tag, pending)
        if op.is_general:
            keys = tuple(op.read_keys | op.write_keys)
            for shard in op.participants:
                self.send(self.shard_servers[shard],
                          NTURRead(tag=tag, keys=keys))
        else:
            for shard in op.participants:
                self.send(self.shard_servers[shard],
                          NTURExecute(tag=tag, proc=op.proc, args=op.args))

    def on_NTURReply(self, src: Address, msg: NTURReply,
                     packet: Packet) -> None:
        pending = self._pending.get(msg.tag)
        if pending is None or msg.shard not in pending.awaiting:
            return
        pending.awaiting.discard(msg.shard)
        pending.committed = pending.committed and msg.committed
        pending.results[msg.shard] = msg.result
        if pending.phase == "read" and isinstance(msg.result, dict):
            pending.values.update(msg.result)
        if pending.awaiting:
            return
        if pending.phase == "read":
            writes = pending.op.compute(pending.values) \
                if pending.op.compute else None
            if writes is None:
                self._finish(pending, False, pending.results)
                return
            pending.phase = "write"
            pending.awaiting = set(pending.op.participants)
            shipped = tuple(writes.items())
            for shard in pending.op.participants:
                self.send(self.shard_servers[shard],
                          NTURWrite(tag=msg.tag, writes=shipped))
            return
        self._finish(pending, pending.committed, pending.results)
