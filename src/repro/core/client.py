"""The Eris client (§6.1–6.2).

Clients send independent transactions straight to every replica of
every participant shard through multi-sequenced groupcast, then wait
for a view-consistent quorum of REPLYs from each shard — a majority
with matching (epoch-num, view-num, txn-index) *including the DL*,
whose reply carries the execution result. In the normal case that is
one round trip with no server-to-server communication at all
(Figure 5).

Clients retry unacknowledged transactions (the retry is stamped fresh
by the sequencer; replicas' at-most-once tables suppress
re-execution, §6.1), so the client also provides the reliability
backstop against packets the in-network layer dropped. The retry loop
is the client core's, :class:`~repro.net.endpoint.ClientNode`, shared
with every baseline.

Clients also carry each shard's stable point to the others: a DL's
reply to a multi-shard transaction may name how far every replica of
its shard has executed, and the client's next request relays it, so a
replica can cut multi-shard entries from its log (DESIGN.md, "Bounded
replica logs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.messages import (
    FastReadReply,
    IndependentTxnRequest,
    ReconRead,
    ReconReply,
    TxnReply,
)
from repro.core.quorum import ViewConsistentQuorum
from repro.core.transaction import IndependentTransaction, TxnId
from repro.net.endpoint import ClientNode, DoneFn, Pending
from repro.net.message import Address, GroupId, Packet
from repro.net.network import Network


@dataclass(eq=False, kw_only=True)
class _PendingTxn(Pending):
    txn: IndependentTransaction
    quorums: dict[GroupId, ViewConsistentQuorum]
    satisfied: dict[GroupId, Any] = field(default_factory=dict)


@dataclass(eq=False, kw_only=True)
class _PendingRecon(Pending):
    """Waiters for one outstanding reconnaissance read, keyed by its
    ``(replica, key)`` in ``_recon_pending``; it never calls ``done``."""

    callbacks: list[Callable[[Any, Any], None]]


class ErisClient(ClientNode):
    """Submits independent transactions and tracks quorum replies."""

    def __init__(self, address: Address, network: Network,
                 shard_sizes: dict[GroupId, int],
                 retry_timeout: float = 1e-3):
        super().__init__(address, network, retry_timeout)
        self.shard_sizes = dict(shard_sizes)
        self._seq = 0
        #: Lowest seq given up after ``max_retries``: a stale copy of
        #: it may still be logged and executed at some participants, so
        #: it holds the completion floor for good.
        self._abandoned_floor: Optional[int] = None
        #: Shard -> the newest stable point ``(epoch, seq)`` a DL
        #: reported, and those of them no request has relayed yet.
        self._stable: dict[GroupId, tuple[int, int]] = {}
        self._stable_news: dict[GroupId, tuple[int, int]] = {}
        # Keyed by (replica, key): concurrent reads of one key from
        # *different* replicas are distinct requests and must not share
        # waiters — a stale replica's reply may satisfy only its own.
        self._recon_pending: dict[tuple[Address, Any], _PendingRecon] = {}
        #: Transactions completed by a single-replica FastReadReply.
        self.fast_read_count = 0

    # -- submission --------------------------------------------------------
    def next_txn_id(self) -> TxnId:
        self._seq += 1
        return TxnId(client=self.address, seq=self._seq)

    def submit(
        self,
        proc: str,
        args: dict,
        participants: tuple[GroupId, ...],
        callback: DoneFn,
        read_keys: frozenset = frozenset(),
        write_keys: frozenset = frozenset(),
        kind: str = "independent",
        op_class: str = "generic",
    ) -> TxnId:
        """Fire one independent transaction; ``callback`` gets its
        :class:`OpResult` (``result`` maps shard to the DL's result)
        when a view-consistent quorum from every participant arrives
        (or, for a READ_ONLY transaction the sequencer routed down the
        fast path, when a single :class:`FastReadReply` does)."""
        txn_id = self.next_txn_id()
        txn = IndependentTransaction(
            txn_id=txn_id,
            proc=proc,
            args=args,
            participants=tuple(participants),
            read_keys=read_keys,
            write_keys=write_keys,
            kind=kind,
            op_class=op_class,
            floor_gap=txn_id.seq - self._completion_floor(txn_id.seq),
        )
        pending = _PendingTxn(
            done=callback,
            start=self.now,
            txn=txn,
            quorums={shard: ViewConsistentQuorum(self.shard_sizes[shard])
                     for shard in txn.participants},
        )
        self._open(txn_id, pending)
        self._send_phase(pending)
        return txn_id

    def _completion_floor(self, seq: int) -> int:
        """The lowest seq, ``seq`` included, not yet seen complete at
        every participant (§6.1): replicas keep at-most-once outcomes
        only from here up. ``_pending`` is filled in increasing seq
        order and deletion keeps that order, so its first key is its
        lowest seq."""
        oldest = next(iter(self._pending), None)
        if oldest is not None and oldest.seq < seq:
            seq = oldest.seq
        if self._abandoned_floor is not None and self._abandoned_floor < seq:
            seq = self._abandoned_floor
        return seq

    def _send_phase(self, pending: Pending) -> None:
        if type(pending) is _PendingRecon:
            replica, key = pending.key
            self.send(replica, ReconRead(key=key))
            return
        txn = pending.txn
        stable = None
        if self._stable_news:
            stable = tuple(value for shard, point in self._stable_news.items()
                           for value in (shard, *point))
            self._stable_news.clear()
        packet = self.send_groupcast(
            txn.participants, IndependentTxnRequest(txn, stable),
            read_only=txn.op_class == "read_only")
        tracer = self.tracer
        if tracer is not None and packet is not None:
            # One txn_submit per transmission attempt; the causal id
            # ties the attempt to its request packet's fan-out tree.
            tracer.record("txn_submit", self.address,
                          cause=packet.trace_id, txn=txn.txn_id.label(),
                          retry=pending.retries,
                          participants=list(txn.participants))

    def _give_up(self, pending: Pending) -> None:
        if type(pending) is _PendingRecon:
            # The replica is unreachable: its waiters read None.
            del self._recon_pending[pending.key]
            for callback in pending.callbacks:
                callback(pending.key[1], None)
            return
        seq = pending.key.seq
        if self._abandoned_floor is None or seq < self._abandoned_floor:
            self._abandoned_floor = seq
        self._finish(pending, None)

    def _finish(self, pending: _PendingTxn, committed: Optional[bool],
                result: Any = None, **trace: Any) -> None:
        """Record ``txn_complete`` (plus the ``trace`` fields), then
        complete through the core."""
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                "txn_complete", self.address, txn=pending.key.label(),
                committed=bool(committed), timedout=committed is None,
                retries=pending.retries, **trace)
        super()._finish(pending, committed, result)

    # -- replies ----------------------------------------------------------
    def on_TxnReply(self, src: Address, msg: TxnReply, packet: Packet) -> None:
        if msg.stable:
            point = (msg.epoch_num, msg.stable)
            if point > self._stable.get(msg.shard, (0, 0)):
                self._stable[msg.shard] = self._stable_news[msg.shard] = point
        pending = self._pending.get(msg.txn_id)
        if pending is None or msg.shard in pending.satisfied:
            return
        quorum = pending.quorums.get(msg.shard)
        if quorum is None:
            return
        key = (msg.epoch_num, msg.view_num, msg.txn_index)
        quorum.add(key, msg.replica_index, msg.is_dl,
                   payload=(msg.committed, msg.result))
        satisfied_key = quorum.satisfied()
        if satisfied_key is None:
            return
        satisfied = pending.satisfied
        satisfied[msg.shard] = quorum.dl_payload(satisfied_key)
        if len(satisfied) == len(pending.txn.participants):
            # Independent transactions reach the same deterministic
            # decision on every participant; for preliminary
            # transactions the client aggregates the per-shard
            # validation votes itself.
            self._finish(pending, all(ok for ok, _ in satisfied.values()),
                         {shard: result
                          for shard, (_, result) in satisfied.items()})

    def on_FastReadReply(self, src: Address, msg: FastReadReply,
                         packet: Packet) -> None:
        """Single-replica completion of a clean READ_ONLY transaction.

        No quorum is collected: the sequencer only forwarded the read
        after its dirty-set check proved every committed conflicting
        write is already applied at *every* replica, so one replica's
        answer is authoritative. If the slow path already completed
        this transaction (a retry raced the reply), the pending entry
        is gone and the reply is ignored.
        """
        pending = self._pending.get(msg.txn_id)
        if pending is None:
            return
        self.fast_read_count += 1
        self._finish(pending, msg.committed, {msg.shard: msg.result},
                     fast_read=True)

    # -- reconnaissance reads (§7.1) ------------------------------------------
    def recon(self, replica: Address, key: Any,
              callback: Callable[[Any, Any], None]) -> None:
        """Non-transactional read of ``key`` from ``replica``;
        ``callback(key, value)`` fires on the reply.

        Requests are keyed by ``(replica, key)``: a reply only releases
        waiters for the replica it came from, so a read deliberately
        sent to a specific replica cannot be satisfied by another
        (possibly stale) replica's answer. §7.1's general transactions
        depend on recon for their reads, so a dropped ``ReconReply``
        must not strand them: the read retries in the client core's
        loop; after ``max_retries`` attempts the waiters fire with
        ``None`` (replica unreachable)."""
        rkey = (replica, key)
        entry = self._recon_pending.get(rkey)
        if entry is not None:
            entry.callbacks.append(callback)
            return
        entry = _PendingRecon(done=None, start=self.now,
                              callbacks=[callback])
        self._open(rkey, entry, self._recon_pending)
        self._send_phase(entry)

    def on_ReconReply(self, src: Address, msg: ReconReply,
                      packet: Packet) -> None:
        entry = self._recon_pending.pop((src, msg.key), None)
        if entry is None:
            return
        entry.timer.stop()
        for callback in entry.callbacks:
            callback(msg.key, msg.value)
