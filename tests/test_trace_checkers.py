"""Trace-backed invariant checkers: recorded executions of a healthy
cluster pass, and injected serializability / divergence / atomicity
violations are caught — including when the trace round-trips through a
JSONL file."""

import pytest

from conftest import logged_txn_ids, make_ycsb_cluster
from repro.baselines.common import WorkloadOp
from repro.errors import InvariantViolation
from repro.harness import run_all_checks, run_trace_checks
from repro.harness.checkers import (
    check_trace_atomicity,
    check_trace_replica_consistency,
    check_trace_serializability,
    trace_replica_orders,
)


def _run_traced_cluster(n_ops: int = 30):
    """A small two-shard Eris run with tracing on; returns the cluster
    after all ops committed."""
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    client = cluster.make_client()
    done = []
    def submit(i):
        key = i % 50
        op = WorkloadOp(proc="ycsb_rmw",
                        args={"keys": (key, key + 50)},
                        participants=(0, 1),
                        read_keys=frozenset([key, key + 50]),
                        write_keys=frozenset([key, key + 50]))
        client.submit(op, lambda r: (done.append(r),
                                     submit(i + 1) if i + 1 < n_ops
                                     else None))
    submit(0)
    cluster.loop.run(until=0.2)
    assert len(done) == n_ops and all(r.committed for r in done)
    return cluster


# -- healthy executions ----------------------------------------------------

def test_traced_run_passes_all_checks(tmp_path):
    cluster = _run_traced_cluster()
    assert len(cluster.tracer) > 0
    # Live tracer picked up automatically from the traced cluster.
    run_all_checks(cluster)
    # The same invariants hold on the exported JSONL file alone.
    path = str(tmp_path / "trace.jsonl")
    cluster.tracer.export(path)
    run_trace_checks(path)
    run_all_checks(trace=path)


def test_trace_orders_match_replica_state():
    cluster = _run_traced_cluster(n_ops=10)
    orders = trace_replica_orders(cluster.tracer)
    assert set(orders) == {0, 1}
    for shard, replica_orders in orders.items():
        assert len(replica_orders) == 3     # every replica traced
        dl = cluster.replicas[shard][0]
        traced = replica_orders[dl.address]
        assert len(traced) == len(dl.log)
        # The trace keeps the prefix the replica cut.
        for (slot, kind, _txn), entry in zip(traced[dl.log.base:], dl.log):
            assert slot == (entry.slot.shard, entry.slot.epoch,
                            entry.slot.seq)
            assert kind == entry.kind


def test_run_all_checks_requires_evidence():
    with pytest.raises(ValueError):
        run_all_checks()


# -- injected violations ---------------------------------------------------

def _append(node, shard, index, seq, txn, participants=(0, 1)):
    return {"ts": index * 1e-6, "kind": "log_append", "node": node,
            "cause": -1, "shard": shard, "index": index,
            "entry_kind": "txn", "slot": [shard, 1, seq], "txn": txn,
            "participants": list(participants)}


def test_checker_catches_serializability_cycle():
    # Shard 0 commits t1 before t2; shard 1 commits t2 before t1 — the
    # cross-shard precedence graph has a cycle, which multi-sequencing
    # is supposed to make impossible.
    trace = [
        _append("r0.0", 0, 1, 1, "1:1"),
        _append("r0.0", 0, 2, 2, "1:2"),
        _append("r1.0", 1, 1, 1, "1:2"),
        _append("r1.0", 1, 2, 2, "1:1"),
    ]
    with pytest.raises(InvariantViolation, match="cycle"):
        check_trace_serializability(trace)
    with pytest.raises(InvariantViolation):
        run_trace_checks(trace)


def test_checker_catches_replica_divergence():
    # Two replicas of shard 0 disagree at the same log position.
    trace = [
        _append("r0.0", 0, 1, 1, "1:1"),
        _append("r0.1", 0, 1, 2, "1:9"),
    ]
    with pytest.raises(InvariantViolation, match="divergence"):
        check_trace_replica_consistency(trace)
    with pytest.raises(InvariantViolation):
        run_trace_checks(trace)


def test_checker_catches_atomicity_violation():
    # t1 is a two-shard transaction but only shard 0 ever logs it.
    trace = [
        _append("r0.0", 0, 1, 1, "1:1", participants=(0, 1)),
        _append("r1.0", 1, 1, 1, "1:2", participants=(1,)),
    ]
    with pytest.raises(InvariantViolation, match="missing at participant"):
        check_trace_atomicity(trace)


def test_injected_violation_detected_from_jsonl(tmp_path):
    # A doctored trace file fails the checkers after a round-trip.
    import json
    trace = [
        _append("r0.0", 0, 1, 1, "1:1"),
        _append("r0.0", 0, 2, 2, "1:2"),
        _append("r1.0", 1, 1, 1, "1:2"),
        _append("r1.0", 1, 2, 2, "1:1"),
    ]
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        for event in trace:
            handle.write(json.dumps(event) + "\n")
    with pytest.raises(InvariantViolation):
        run_trace_checks(path)
    with pytest.raises(InvariantViolation):
        run_all_checks(trace=path)


def test_log_adopt_replaces_traced_order():
    # A view change rewrites a replica's log; the adopted order is
    # authoritative, so a pre-adoption divergence must be forgiven.
    trace = [
        _append("r0.0", 0, 1, 1, "1:1"),
        _append("r0.1", 0, 1, 2, "1:9"),      # diverged...
        {"ts": 1.0, "kind": "log_adopt", "node": "r0.1", "cause": -1,
         "shard": 0, "rebuilt": True,
         "entries": [[1, "txn", "1:1", [0, 1, 1]]]},  # ...then adopted
    ]
    check_trace_replica_consistency(trace)     # no violation


def _adopt(node, base, entries):
    return {"ts": 2.0, "kind": "log_adopt", "node": node, "cause": -1,
            "shard": 0, "rebuilt": False, "base": base,
            "entries": [[index, "txn", f"1:{seq}", [0, 1, seq]]
                        for index, seq in entries]}


def test_adopt_of_base_and_suffix_keeps_the_traced_prefix():
    """A replica that cut its log adopts only the entries above its
    base: the trace keeps the prefix it already saw, and rebuilds the
    same per-shard orders as when the whole log was shipped."""
    appended = [_append(node, 0, seq, seq, f"1:{seq}")
                for seq in range(1, 6) for node in ("r0.0", "r0.1")]
    cut = {"ts": 1.5, "kind": "log_cut", "node": "r0.1", "cause": -1,
           "shard": 0, "base": 3}
    whole = appended + [_adopt("r0.1", 0, [(i, i) for i in range(1, 7)])]
    above = appended + [cut, _adopt("r0.1", 3, [(4, 4), (5, 5), (6, 6)])]
    orders = trace_replica_orders(above)
    assert orders == trace_replica_orders(whole)
    assert [slot[2] for slot, _, _ in orders[0]["r0.1"]] == \
        [1, 2, 3, 4, 5, 6]
    run_trace_checks(above)


def test_trace_orders_match_replica_state_across_a_view_change():
    """A traced run in which replicas cut their logs and then adopt a
    new view's base + suffix: the trace rebuilds each live replica's
    whole commit order, cut prefix included."""
    cluster = _run_traced_cluster(n_ops=150)
    dead = next(r for r in cluster.replicas[0] if r.is_dl)
    assert dead.log.base > 0
    dead.crash()
    cluster.loop.run(until=cluster.loop.now + 0.2)
    orders = trace_replica_orders(cluster.tracer)
    for replica in cluster.replicas[0]:
        if replica.crashed:
            continue
        traced = [txn for _slot, kind, txn in orders[0][replica.address]
                  if kind == "txn"]
        assert traced == [txn_id.label()
                          for txn_id in logged_txn_ids(replica)]
    assert any(e.kind == "log_adopt" and e.to_dict()["base"]
               for e in cluster.tracer.events)
    run_all_checks(cluster)
