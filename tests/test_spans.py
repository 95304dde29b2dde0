"""Span reconstruction and latency attribution (repro.obs.spans).

Two layers of coverage: synthetic flat-dict traces with hand-placed
timestamps pin the exact phase arithmetic, and traced integration runs
— normal-case, deterministic drops with peer recovery, whole-shard
drops with FC escalation, client retransmissions — check that
adversarial event streams still produce well-formed span forests whose
phase decomposition telescopes exactly to the end-to-end latency.
"""

import json

import pytest

from repro.baselines.common import WorkloadOp
from repro.obs import (
    PHASES,
    Span,
    analyze_spans,
    analyze_trace,
    build_spans,
    export_chrome_trace,
)

from conftest import drive, make_ycsb_cluster, submit_and_wait


# -- synthetic traces: exact phase arithmetic ------------------------------

def synthetic_commit_trace():
    """One txn, one request (cause 1), two replicas, hand-placed
    timestamps. The fastest chain is r0's; r1's reply completes the
    quorum 4us later."""
    return [
        {"ts": 0.0, "kind": "txn_submit", "node": "c0", "cause": 1,
         "txn": "c0:1", "retry": 0, "participants": [0]},
        {"ts": 0.0, "kind": "send", "node": "c0", "cause": 1},
        {"ts": 10e-6, "kind": "deliver", "node": "seq", "cause": 1},
        {"ts": 13e-6, "kind": "stamp", "node": "seq", "cause": 1,
         "epoch": 1, "stamps": [[0, 1]], "queue_delay": 2e-6},
        {"ts": 23e-6, "kind": "deliver", "node": "r0", "cause": 1},
        {"ts": 24e-6, "kind": "deliver", "node": "r1", "cause": 1},
        {"ts": 26e-6, "kind": "reply", "node": "r0", "cause": 2,
         "txn": "c0:1", "shard": 0, "replica": 0, "is_dl": True,
         "committed": True},
        {"ts": 30e-6, "kind": "reply", "node": "r1", "cause": 3,
         "txn": "c0:1", "shard": 0, "replica": 1, "is_dl": False,
         "committed": True},
        {"ts": 36e-6, "kind": "deliver", "node": "c0", "cause": 2},
        {"ts": 40e-6, "kind": "deliver", "node": "c0", "cause": 3},
        {"ts": 40e-6, "kind": "txn_complete", "node": "c0", "cause": -1,
         "txn": "c0:1", "committed": True, "timedout": False,
         "retries": 0},
    ]


def test_synthetic_phase_decomposition_is_exact():
    forest = build_spans(synthetic_commit_trace())
    (txn,) = forest.txns
    assert txn.complete and txn.committed and not txn.timedout
    assert txn.end_to_end == pytest.approx(40e-6)
    # Fastest chain goes through r0: submit 0 -> seq 10 -> stamp 13 ->
    # r0 23 -> reply 26 -> client 36; quorum completes at 40.
    assert txn.phases == pytest.approx({
        "retry_wait": 0.0,
        "client_to_seq": 10e-6,
        "sequencer": 3e-6,
        "seq_to_replica": 10e-6,
        "replica_apply": 3e-6,
        "reply_to_client": 10e-6,
        "quorum_wait": 4e-6,
    })
    assert sum(txn.phases.values()) == pytest.approx(txn.end_to_end)
    # Critical path is r1, whose reply arrived last (lag 4us), measured
    # through its own chain (arrival 24, apply 6, network 10).
    assert txn.critical["node"] == "r1"
    assert txn.critical["is_dl"] is False
    assert txn.critical["lag"] == pytest.approx(4e-6)
    assert txn.critical["phases"]["replica_apply"] == pytest.approx(6e-6)
    assert sum(txn.critical["phases"].values()) \
        == pytest.approx(txn.end_to_end)


def test_synthetic_sequencer_queue_delay_lands_on_span():
    forest = build_spans(synthetic_commit_trace())
    (attempt,) = forest.txns[0].attempts
    (seq_span,) = attempt.find("sequencer")
    assert seq_span.attrs["queue_delay"] == pytest.approx(2e-6)
    report = analyze_spans(forest)
    assert report["sequencer_queue"]["count"] == 1


def test_synthetic_incomplete_txn_not_attributed():
    events = synthetic_commit_trace()[:-1]      # no txn_complete
    forest = build_spans(events)
    (txn,) = forest.txns
    assert not txn.complete and txn.phases is None
    assert forest.attributed() == []
    report = analyze_spans(forest)
    assert report["txns"]["total"] == 1
    assert report["txns"]["attributed"] == 0


def test_synthetic_timeout_marks_but_does_not_attribute():
    events = [
        {"ts": 0.0, "kind": "txn_submit", "node": "c0", "cause": 1,
         "txn": "c0:1", "retry": 0, "participants": [0]},
        {"ts": 5e-3, "kind": "txn_complete", "node": "c0", "cause": -1,
         "txn": "c0:1", "committed": False, "timedout": True,
         "retries": 3},
    ]
    (txn,) = build_spans(events).txns
    assert txn.timedout and txn.retries == 3 and txn.phases is None


def test_span_tree_walk_and_find():
    forest = build_spans(synthetic_commit_trace())
    root = forest.txns[0].as_span()
    names = [s.name for s in root.walk()]
    assert names[0] == "txn" and "attempt" in names
    assert "client_to_seq" in names and "quorum_wait" in names
    assert len(root.find("seq_to_replica")) == 2   # both fan-out copies
    serialized = root.to_dict()
    assert serialized["attrs"]["txn"] == "c0:1"
    assert serialized["children"]


# -- integration: traced runs ----------------------------------------------

def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def test_traced_run_attributes_every_commit():
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    client = cluster.make_client()
    for key in range(8):
        submit_and_wait(cluster, client, rmw_op([key], cluster.partitioner))
    submit_and_wait(cluster, client, rmw_op([0, 1], cluster.partitioner))
    forest = build_spans(cluster.tracer.events)
    assert len(forest.txns) == 9
    assert len(forest.attributed()) == 9
    for txn in forest.txns:
        assert txn.committed and not txn.timedout
        assert all(txn.phases[name] >= 0.0 for name in PHASES)
        # The telescoping invariant: phases sum exactly to end-to-end.
        assert sum(txn.phases.values()) == pytest.approx(
            txn.end_to_end, rel=1e-12)
        assert txn.critical is not None
    multi = forest.by_label[forest.txns[-1].txn]
    assert multi.participants == (0, 1)


def test_traced_run_analysis_report_is_consistent():
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    client = cluster.make_client()
    for key in range(10):
        submit_and_wait(cluster, client,
                        rmw_op([key, key + 1], cluster.partitioner))
    report = analyze_trace(cluster.tracer.events)
    assert report["txns"]["attributed"] == report["txns"]["total"] == 10
    shares = [report["phases"][name]["share"] for name in PHASES]
    assert sum(shares) == pytest.approx(1.0)
    consistency = report["consistency"]
    assert consistency["mean_phase_sum_us"] == pytest.approx(
        consistency["mean_e2e_us"], rel=1e-9)
    assert abs(consistency["residual_us"]) < 1e-6
    assert sum(report["critical_path"]["by_member"].values()) == 10
    assert report["by_group"]   # per-participant-set split present


def test_dropped_copy_recovered_from_peer_shows_in_tree():
    cluster = make_ycsb_cluster(tracing=True)
    victim = cluster.replicas[0][1]
    cluster.network.drop_filter = lambda pkt: (
        pkt.multistamp is not None and pkt.dst == victim.address
        and cluster.loop.now < 0.5e-3)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.02)
    assert victim.drops_recovered_from_peer >= 1
    forest = build_spans(cluster.tracer.events)
    # Both txns committed and attributed despite the dropped copies...
    assert len(forest.attributed()) == 2
    # ...the drops are visible as markers on the attempt subtrees...
    dropped = [s for t in forest.txns for a in t.attempts
               for s in a.find("dropped")]
    assert dropped and all(s.node == victim.address for s in dropped)
    # ...and the peer recovery is a span attached to the missed txn.
    recoveries = [r for t in forest.txns for r in t.recoveries]
    assert any(r.attrs["outcome"] == "peer" and r.node == victim.address
               for r in recoveries)
    report = analyze_spans(forest)
    assert report["recovery"]["count"] >= 1
    assert report["recovery"]["fc_escalated"] == 0


def test_whole_shard_drop_escalates_to_fc_span():
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    part = cluster.partitioner
    shard1 = {r.address for r in cluster.replicas[1]}

    def drop_first(pkt):
        return (pkt.multistamp is not None and pkt.dst in shard1
                and pkt.multistamp.seq_for(1) == 1)

    cluster.network.drop_filter = drop_first
    client = cluster.make_client()
    done = []
    client.submit(rmw_op([0, 1], part), done.append)
    drive(cluster, 1e-3)
    cluster.network.drop_filter = None
    client.submit(rmw_op([3], part), done.append)
    drive(cluster, 0.1)
    assert len(done) == 2 and all(r.committed for r in done)
    assert cluster.fc.finds_resolved >= 1
    forest = build_spans(cluster.tracer.events)
    escalations = [s for t in forest.txns for r in t.recoveries
                   for s in r.find("fc_escalation")] \
        + [s for o in forest.orphans for s in o.find("fc_escalation")]
    assert escalations
    assert any(s.attrs["outcome"] == "fc_found" for s in escalations)
    report = analyze_spans(forest)
    assert report["recovery"]["fc_escalated"] >= 1


def test_client_retry_becomes_second_attempt_with_retry_wait():
    cluster = make_ycsb_cluster(tracing=True)
    # Lose the entire first request (no replica or sequencer sees it)
    # so the client's 1ms retransmission timer fires.
    cluster.network.drop_filter = lambda pkt: (
        pkt.groupcast is not None and cluster.loop.now < 0.5e-3)
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner), timeout=0.1)
    assert result.committed
    forest = build_spans(cluster.tracer.events)
    (txn,) = forest.txns
    assert txn.retries >= 1
    assert len(txn.attempts) == txn.retries + 1
    assert txn.attempts[1].attrs["retry"] == 1
    assert txn.phases is not None
    # The committed chain started at the retransmission, so the wait
    # for the retry timer is its own phase — and the sum still
    # telescopes to the full submit-to-commit latency.
    assert txn.phases["retry_wait"] >= 1e-3
    assert sum(txn.phases.values()) == pytest.approx(txn.end_to_end,
                                                     rel=1e-12)


# -- Chrome trace export ---------------------------------------------------

def test_chrome_export_structure(tmp_path):
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    client = cluster.make_client()
    for key in range(3):
        submit_and_wait(cluster, client, rmw_op([key], cluster.partitioner))
    forest = build_spans(cluster.tracer.events)
    path = str(tmp_path / "spans.trace.json")
    count = export_chrome_trace(forest, path)
    with open(path) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert len(events) == count
    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert spans and meta
    assert all(e["dur"] >= 0.0 for e in spans)
    # One process per transaction, named by its txn label.
    process_names = {e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
    assert process_names == {t.txn for t in forest.txns}
    # Every span's (pid, tid) has a thread_name mapping it to a node.
    named_tracks = {(e["pid"], e["tid"]) for e in meta
                    if e["name"] == "thread_name"}
    assert {(e["pid"], e["tid"]) for e in spans} <= named_tracks


def test_chrome_export_handles_orphan_recoveries(tmp_path):
    orphan = Span("recovery", 1e-3, 2e-3, "r0",
                  attrs={"slot": [1, 0, 5], "outcome": "unresolved"})
    forest = build_spans([])
    forest.orphans.append(orphan)
    path = str(tmp_path / "orphans.trace.json")
    export_chrome_trace(forest, path)
    payload = json.load(open(path))
    names = [e.get("args", {}).get("name") for e in payload["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names == ["unattached recoveries"]
