"""Correctness checkers for Eris executions (§6.7 invariants).

Two evidence sources feed one invariant core:

- **replica state** — one :class:`~repro.core.log.ReplicaSnapshot` per
  Eris replica: taken here from a live :class:`Cluster`, or shipped
  back from per-node workers by the launcher's state-collection RPC;
- **a causal trace** — the ``log_append`` / ``log_adopt`` event stream
  recorded by :class:`repro.obs.trace.Tracer`, so the same invariants
  are checkable on an exported JSONL file long after the cluster is
  gone, and on executions reconstructed event-by-event rather than from
  end state.

Each source picks its own reference log per shard (state: the live DL
of the highest view; trace: the longest live log) and hands it to the
same checks. A replica's state covers its cut prefix through the
snapshot's :class:`~repro.core.log.CutSummary` — a digest of the
prefix's ``(slot, kind)`` sequence and its commit order — stitched onto
the entries above the base, so a cut weakens no check:

- **serializability** — build the cross-shard precedence graph over
  transactions from each shard's committed log order; strict
  serializability requires it be acyclic (checked with networkx). This
  is the executable counterpart of the paper's second §6.7 invariant.
- **atomicity** — a transaction committed at any participant appears in
  the log of *every* participant shard.
- **replica consistency** — within each shard, live replicas' logs are
  prefix-consistent (and, state-side, executed stores converge after a
  drain, and no normal replica's channel runs ahead of its log).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

import networkx as nx

from repro.core.log import ReplicaSnapshot, fold_digest, last_seq_of
from repro.errors import InvariantViolation
from repro.harness.cluster import Cluster, live_dl
from repro.obs.trace import TraceEvent, Tracer, load_trace

# -- the invariant core ----------------------------------------------------
#
# Evidence-neutral: a shard's commit order is a list of transaction
# identities, and a log is a sequence of (slot, kind) pairs. ``source``
# prefixes every message ("" for replica state, "trace: " for a trace).


def _first_occurrences(txns: Iterable) -> list:
    """A shard's serialization order from its logged transactions. A
    retried transaction can occupy two slots (the client's retry gets a
    fresh stamp; execution suppresses the duplicate via the at-most-once
    table), and only the first occurrence is the serialization point."""
    seen: set = set()
    order: list = []
    for txn in txns:
        if txn not in seen:
            seen.add(txn)
            order.append(txn)
    return order


def _check_acyclic(orders: dict[int, list], source: str) -> None:
    """The cross-shard precedence graph over per-shard commit orders
    must have no cycle."""
    graph = nx.DiGraph()
    for order in orders.values():
        # Consecutive edges suffice: shard order is total, so the
        # transitive closure covers all same-shard pairs.
        graph.add_edges_from(zip(order, order[1:]))
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return
    raise InvariantViolation(
        f"{source}precedence cycle across shards: {cycle[:10]}")


def _check_participants(orders: dict[int, list], participants: dict,
                        source: str) -> None:
    """A transaction logged at any shard appears at every participant
    shard that has a log."""
    logged = {shard: set(order) for shard, order in orders.items()}
    for shard, order in orders.items():
        for txn in order:
            for participant in participants.get(txn, ()):
                if participant in logged and txn not in logged[participant]:
                    raise InvariantViolation(
                        f"{source}txn {txn} logged at shard {shard} but "
                        f"missing at participant shard {participant}")


def _check_prefix(shard: int, a: str, a_log: Iterable, b: str,
                  b_log: Iterable, source: str, start: int = 1) -> None:
    """Two replica logs of one shard, both from index ``start``, agree
    on (slot, kind) wherever both have an entry."""
    for index, (mine, theirs) in enumerate(zip(a_log, b_log), start):
        if mine != theirs:
            raise InvariantViolation(
                f"{source}log divergence in shard {shard} at index "
                f"{index}: {a} has {mine}, {b} has {theirs}")


# -- state evidence --------------------------------------------------------

#: What the state checkers accept: a live cluster (its Eris replicas
#: are snapshotted), or replica snapshots — e.g. shipped from workers.
StateLike = Union[Cluster, Iterable[ReplicaSnapshot]]


def snapshot_cluster(cluster: Cluster) -> list[ReplicaSnapshot]:
    """One snapshot per Eris replica of a live cluster."""
    return [ReplicaSnapshot.of(replica)
            for replicas in cluster.replicas.values()
            for replica in replicas]


def _by_shard(state: StateLike) -> dict[int, list[ReplicaSnapshot]]:
    if isinstance(state, Cluster):
        state = snapshot_cluster(state)
    shards: dict[int, list[ReplicaSnapshot]] = {}
    for snap in sorted(state, key=lambda s: (s.shard, s.replica_index)):
        shards.setdefault(snap.shard, []).append(snap)
    return shards


def _state_orders(state: StateLike) -> tuple[dict[int, list], dict]:
    """Per shard, the live DL's commit order; and every logged
    transaction's participant shards."""
    orders: dict[int, list] = {}
    participants: dict = {}
    for shard, snaps in _by_shard(state).items():
        dl = live_dl(shard, snaps)
        txns = list(dl.cut.txns())
        txns.extend((entry.record.txn.txn_id, entry.record.txn.participants)
                    for entry in dl.entries if entry.kind == "txn")
        participants.update(txns)
        orders[shard] = _first_occurrences(txn_id for txn_id, _ in txns)
    return orders, participants


def check_serializability(state: StateLike) -> None:
    """Raise :class:`InvariantViolation` if the cross-shard precedence
    graph has a cycle."""
    _check_acyclic(_state_orders(state)[0], "")


def check_atomicity(state: StateLike) -> None:
    """Every logged transaction appears at every participant shard."""
    _check_participants(*_state_orders(state), "")


def _slots(entries) -> Iterable[tuple]:
    return ((entry.slot, entry.kind) for entry in entries)


def _check_snapshot_prefix(shard: int, a: ReplicaSnapshot, a_name: str,
                           b: ReplicaSnapshot, b_name: str) -> None:
    """Two replicas' logs agree on (slot, kind) wherever both have an
    entry, their cut prefixes included: the one cut shorter rolls its
    digest up to the other's base, then the entries above both bases
    are compared one by one."""
    if a.cut.base > b.cut.base:
        a, a_name, b, b_name = b, b_name, a, a_name
    base = b.cut.base
    if a.last_index < base:
        raise InvariantViolation(
            f"log divergence in shard {shard}: {a_name}'s log ends at "
            f"index {a.last_index}, below the index {base} {b_name} cut "
            f"as executed at every replica")
    if fold_digest(a.cut.digest, a.entries[:base - a.cut.base]) \
            != b.cut.digest:
        raise InvariantViolation(
            f"log divergence in shard {shard} at or below index {base}: "
            f"{a_name}'s prefix digest differs from {b_name}'s cut prefix")
    _check_prefix(shard, a_name, _slots(a.entries[base - a.cut.base:]),
                  b_name, _slots(b.entries), "", start=base + 1)


def _check_channel(shard: int, snap: ReplicaSnapshot) -> None:
    """A normal replica's channel never runs ahead of its log: the
    next slot it will log follows the last one it logged."""
    epoch, next_seq = snap.channel
    logged = last_seq_of(snap.entries, epoch, snap.cut.base_slot)
    if snap.status == "normal" and next_seq > logged + 1:
        raise InvariantViolation(
            f"channel ahead of log in shard {shard}: {snap.address} "
            f"expects seq {next_seq} of epoch {epoch} next, but its log "
            f"ends at seq {logged}")


def check_replica_consistency(state: StateLike) -> None:
    """Within each shard: logs are prefix-consistent; stores of fully
    caught-up replicas match the DL's; and no normal replica's channel
    is ahead of its log."""
    for shard, snaps in _by_shard(state).items():
        live = [snap for snap in snaps if not snap.crashed]
        if not live:
            continue
        dl = live_dl(shard, live)
        for snap in live:
            _check_snapshot_prefix(shard, snap, snap.address, dl,
                                   f"DL {dl.address}")
            _check_channel(shard, snap)
            if snap.fed == dl.last_index and snap.store != dl.store:
                raise InvariantViolation(
                    f"store divergence in shard {shard}: "
                    f"{snap.address} executed the full log but its "
                    f"state differs from the DL's")


# -- trace evidence --------------------------------------------------------

#: What the trace checkers accept: a JSONL path, a live Tracer, or a
#: sequence of TraceEvent objects / flat event dicts.
TraceLike = Union[str, Tracer, list]


def _trace_events(trace: TraceLike) -> list[dict]:
    if isinstance(trace, str):
        trace = load_trace(trace)
    if isinstance(trace, Tracer):
        trace = trace.events
    flat = [e.to_dict() if isinstance(e, TraceEvent) else e for e in trace]
    # Tolerate metadata lines (flight-recorder dump headers have no
    # "kind"): the checkers consume only event records.
    return [e for e in flat if "kind" in e]


def trace_replica_orders(trace: TraceLike
                         ) -> dict[int, dict[str, list[tuple]]]:
    """Per shard, per replica, the log as ``(slot, kind, txn)`` tuples
    in append order, reconstructed from ``log_append`` events with
    ``log_adopt`` (view/epoch-change log replacement) applied."""
    orders: dict[int, dict[str, list[tuple]]] = {}
    for event in _trace_events(trace):
        kind = event["kind"]
        if kind == "log_append":
            shard_orders = orders.setdefault(event["shard"], {})
            shard_orders.setdefault(event["node"], []).append(
                (tuple(event["slot"]), event["entry_kind"], event["txn"]))
        elif kind == "log_adopt":
            # The adopted entries sit above the adopter's base; below
            # it, its log is what the trace already showed.
            shard_orders = orders.setdefault(event["shard"], {})
            node = event["node"]
            shard_orders[node] = shard_orders.get(node, [])[
                :event.get("base", 0)] + [
                (tuple(slot), entry_kind, txn)
                for _index, entry_kind, txn, slot in event["entries"]]
    return orders


def _trace_participants(events: list[dict]) -> dict[str, tuple]:
    """txn label → participant shards, from ``log_append`` events."""
    participants: dict[str, tuple] = {}
    for event in events:
        if event["kind"] == "log_append" and event.get("txn") is not None \
                and "participants" in event:
            participants[event["txn"]] = tuple(event["participants"])
    return participants


def _trace_live_logs(events: list[dict]
                     ) -> dict[int, dict[str, list[tuple]]]:
    """:func:`trace_replica_orders` without crashed replicas: a dead
    DL's final appends may legitimately be superseded by the view/epoch
    change that buried it."""
    crashed = {e["node"] for e in events if e["kind"] == "crash"}
    return {shard: {node: log for node, log in logs.items()
                    if node not in crashed}
            for shard, logs in trace_replica_orders(events).items()}


def _trace_orders(events: list[dict]) -> dict[int, list[str]]:
    """Per shard, the commit order of the longest live replica log."""
    return {shard: _first_occurrences(
                txn for _slot, kind, txn in max(logs.values(), key=len,
                                                default=[])
                if kind == "txn")
            for shard, logs in _trace_live_logs(events).items()}


def check_trace_replica_consistency(trace: TraceLike) -> None:
    """Within each shard, every pair of live recorded replica logs must
    be prefix-consistent on (slot, kind)."""
    for shard, logs in _trace_live_logs(_trace_events(trace)).items():
        nodes = sorted(logs)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                _check_prefix(shard, a, (e[:2] for e in logs[a]),
                              b, (e[:2] for e in logs[b]), "trace: ")


def check_trace_serializability(trace: TraceLike) -> None:
    """Cross-shard precedence graph over the traced per-shard commit
    orders must be acyclic."""
    _check_acyclic(_trace_orders(_trace_events(trace)), "trace: ")


def check_trace_atomicity(trace: TraceLike) -> None:
    """A traced transaction logged at any shard appears at every
    participant shard."""
    events = _trace_events(trace)
    _check_participants(_trace_orders(events), _trace_participants(events),
                        "trace: ")


# -- coordination-free read fast-path invariants ---------------------------
#
# The check keys on the ``fast_read`` events the read fast path emits;
# on a trace without reads it is a vacuous no-op. The sequencer's
# ``stamp`` events carry the ground truth it checks against: each
# stamped transaction's op-class and declared write set.

def _fastpath_shard_members(events: list[dict]) -> dict[int, set[str]]:
    """Shard -> every replica that ever appended or applied for it.
    Pre-scanned over the whole trace so a replica that lags at the time
    of a fast read still counts toward the coverage requirement."""
    members: dict[int, set[str]] = {}
    for event in events:
        if event["kind"] in ("log_append", "apply"):
            members.setdefault(event["shard"], set()).add(event["node"])
    return members


def check_trace_fast_reads(trace: TraceLike) -> None:
    """No fast read observes a dirty key (§3 external consistency under
    the Harmonia read path).

    A ``fast_read`` event names the keys served and the shard. Walking
    the trace in order: every earlier-stamped non-READ_ONLY transaction
    whose declared write set intersects those keys — or whose write set
    was undeclared (blind) — must already carry an ``apply`` event at
    *every* non-crashed replica of the shard. Application at a later
    epoch also covers (entering epoch e+1 means the FC-rebuilt log
    resolved every epoch-e stamp as applied or permanently dropped, and
    a perm-dropped write never committed).
    """
    events = _trace_events(trace)
    members = _fastpath_shard_members(events)
    #: group -> list of in-flight writes [epoch, seq, write_keys|None]
    writes: dict[int, list] = {}
    #: (group, node) -> highest applied (epoch, seq), lexicographic
    applied: dict[tuple[int, str], tuple[int, int]] = {}
    crashed: set[str] = set()

    def covered(group: int, epoch: int, seq: int) -> bool:
        need = members.get(group, set()) - crashed
        return bool(need) and all(
            applied.get((group, node), (0, 0)) >= (epoch, seq)
            for node in need)

    for event in events:
        kind = event["kind"]
        if kind == "crash":
            crashed.add(event["node"])
        elif kind == "stamp" and event.get("op_class") not in (None,
                                                               "read_only"):
            write_keys = event.get("write_keys") or None
            for group, seq in event["stamps"]:
                writes.setdefault(group, []).append(
                    [event["epoch"], seq, write_keys])
        elif kind == "apply":
            _shard, epoch, seq = event["slot"]
            key = (event["shard"], event["node"])
            if (epoch, seq) > applied.get(key, (0, 0)):
                applied[key] = (epoch, seq)
        elif kind == "fast_read":
            group = event["shard"]
            read_keys = set(event["keys"])
            in_flight = writes.get(group, [])
            remaining = []
            for record in in_flight:
                epoch, seq, write_keys = record
                if covered(group, epoch, seq):
                    continue  # applied everywhere: no longer in flight
                remaining.append(record)
                if write_keys is not None and not read_keys & set(write_keys):
                    continue  # disjoint declared write set: no conflict
                raise InvariantViolation(
                    f"dirty fast read: {event['node']} served txn "
                    f"{event['txn']} keys {sorted(read_keys)} on shard "
                    f"{group} while the "
                    f"{'blind ' if write_keys is None else ''}write at "
                    f"(epoch {epoch}, seq {seq}) was not yet applied at "
                    f"every replica")
            writes[group] = remaining


def run_trace_checks(trace: TraceLike) -> None:
    """All trace-backed invariant checks on one event stream."""
    events = _trace_events(trace)
    check_trace_replica_consistency(events)
    check_trace_serializability(events)
    check_trace_atomicity(events)
    check_trace_fast_reads(events)


def run_all_checks(cluster: Optional[StateLike] = None,
                   trace: Optional[TraceLike] = None,
                   recorder: Optional[Any] = None,
                   recorder_path: str = "flight-recorder.jsonl") -> None:
    """Run every applicable invariant check.

    ``cluster`` (a live :class:`Cluster`, snapshotted once here, or
    replica snapshots) drives the state-based checkers; ``trace`` (a
    JSONL path, a live Tracer, or an event list) additionally drives the
    trace-backed checkers. Passing a traced cluster alone checks its
    live tracer too.

    ``recorder`` (a :class:`repro.obs.recorder.FlightRecorder`) is the
    black-box hook: when any check raises, the recorder's ring is
    dumped to ``recorder_path`` before the violation propagates, so
    the events leading up to the failure survive the crash.
    """
    if cluster is None and trace is None:
        raise ValueError("run_all_checks needs a cluster, a trace, or both")
    try:
        if cluster is not None:
            if isinstance(cluster, Cluster):
                if trace is None:
                    trace = cluster.tracer
                cluster = snapshot_cluster(cluster)
            check_serializability(cluster)
            check_atomicity(cluster)
            check_replica_consistency(cluster)
        if trace is not None:
            run_trace_checks(trace)
    except InvariantViolation as exc:
        if recorder is not None and len(recorder):
            recorder.dump(recorder_path, reason=str(exc),
                          context={"origin": "run_all_checks"})
        raise
