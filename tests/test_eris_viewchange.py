"""Integration tests: DL failure and view change (§6.4)."""

from repro.baselines.common import WorkloadOp
from repro.harness.checkers import run_all_checks

from conftest import (
    drive, logged_txn_ids, make_ycsb_cluster, submit_and_wait)


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def kill_dl(cluster, shard):
    dl = next(r for r in cluster.replicas[shard] if r.is_dl)
    dl.crash()
    return dl


def live_dl(cluster, shard):
    return next(r for r in cluster.replicas[shard]
                if not r.crashed and r.is_dl)


def test_new_dl_elected_after_failure():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    old = kill_dl(cluster, 0)
    drive(cluster, 0.2)   # several view-change timeouts
    new = live_dl(cluster, 0)
    assert new.address != old.address
    assert new.view_num >= 1
    assert new.status == "normal"


def test_committed_txns_survive_view_change():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    for _ in range(5):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    kill_dl(cluster, 0)
    drive(cluster, 0.2)
    new = live_dl(cluster, 0)
    # All five increments must be reflected at the new DL.
    assert new.store.get(0) == 5
    assert len(logged_txn_ids(new)) == 5


def test_processing_continues_after_view_change():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    kill_dl(cluster, 0)
    drive(cluster, 0.25)
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    assert live_dl(cluster, 0).store.get(0) == 2


def test_view_change_in_one_shard_does_not_stall_others():
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    kill_dl(cluster, 0)
    # Shard 1 (key 1) keeps committing immediately.
    result = submit_and_wait(cluster, client,
                             rmw_op([1], cluster.partitioner))
    assert result.committed
    drive(cluster, 0.25)
    run_all_checks(cluster)


def test_multi_shard_txns_after_view_change_stay_serializable():
    cluster = make_ycsb_cluster(n_shards=2)
    clients = [cluster.make_client() for _ in range(4)]
    done = []
    for i in range(20):
        clients[i % 4].submit(rmw_op([i % 4, 4 + i % 3],
                                     cluster.partitioner), done.append)
    drive(cluster, 0.05)
    kill_dl(cluster, 0)
    drive(cluster, 0.25)
    for i in range(20):
        clients[i % 4].submit(rmw_op([i % 4, 4 + i % 3],
                                     cluster.partitioner), done.append)
    drive(cluster, 0.5)
    committed = [r for r in done if r.committed]
    assert len(committed) >= 38
    run_all_checks(cluster)


def test_second_view_change_after_second_failure():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    kill_dl(cluster, 0)
    drive(cluster, 0.25)
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner),
                    timeout=1.0)
    # A second failure exceeds f=1: with only one replica left no
    # majority exists, so we only check the first two view changes.
    new = live_dl(cluster, 0)
    assert new.view_num >= 1
    assert new.store.get(0) == 2


# -- fault matrix: loss / reordering during the view change itself ---------

import pytest
from repro.harness.faults import FaultPlan


def _dl_index(cluster, shard):
    return next(i for i, r in enumerate(cluster.replicas[shard]) if r.is_dl)


@pytest.mark.parametrize("drop_rate", [0.05, 0.2])
def test_view_change_completes_under_packet_loss(drop_rate):
    """Packets lost during the change protocol itself: VIEW-CHANGE /
    VIEW-CHANGE-ACK / START-VIEW are dropped and must be retried until
    the new view forms."""
    cluster = make_ycsb_cluster(n_shards=1, tracing=True)
    client = cluster.make_client()
    for _ in range(3):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    now = cluster.loop.now
    plan = FaultPlan(cluster)
    plan.set_drop_rate_at(now + 1e-3, drop_rate)
    plan.kill_replica_at(now + 2e-3, 0, _dl_index(cluster, 0))
    plan.set_drop_rate_at(now + 0.2, 0.0)     # heal, let it settle
    drive(cluster, 0.6)
    tracer = cluster.tracer
    assert tracer.count("crash") == 1
    assert tracer.count("view_change_start") >= 1
    completes = tracer.select("view_change_complete")
    assert any(e.data.get("role") == "dl" for e in completes)
    new = live_dl(cluster, 0)
    assert new.view_num >= 1 and new.status == "normal"
    assert new.store.get(0) == 3
    run_all_checks(cluster)                   # state + trace invariants


def test_view_change_under_loss_then_processing_resumes():
    cluster = make_ycsb_cluster(n_shards=2, tracing=True)
    client = cluster.make_client()
    for i in range(4):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    now = cluster.loop.now
    plan = FaultPlan(cluster)
    plan.set_drop_rate_at(now + 1e-3, 0.1)
    plan.kill_replica_at(now + 2e-3, 0, _dl_index(cluster, 0))
    plan.set_drop_rate_at(now + 0.2, 0.0)
    drive(cluster, 0.6)
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    tracer = cluster.tracer
    assert tracer.count("view_change_complete") >= 1
    # Random loss on the data path exercised drop recovery too.
    summary_drops = tracer.count("drop")
    assert summary_drops > 0
    run_all_checks(cluster)


def test_view_change_with_reordered_links():
    """fifo_links off: packets between two endpoints may arrive in any
    order. The view change (and normal processing around it) must not
    depend on FIFO delivery. Several concurrent clients keep links busy
    enough that jitter actually inverts arrival order."""
    cluster = make_ycsb_cluster(n_shards=1, tracing=True)
    cluster.network.config.fifo_links = False
    cluster.network.config.jitter = 30e-6    # >> back-to-back send gaps
    clients = [cluster.make_client() for _ in range(5)]
    done = []
    # Batched submission: several packets in flight on the SAME link at
    # once, which is what lets jitter invert their arrival order.
    for c in clients:
        for _ in range(8):
            c.submit(rmw_op([0], cluster.partitioner), done.append)
    drive(cluster, 0.05)
    kill_dl(cluster, 0)
    drive(cluster, 0.6)
    new = live_dl(cluster, 0)
    assert new.view_num >= 1 and new.status == "normal"
    committed = [r for r in done if r.committed]
    assert len(committed) >= 5 * 8 - 5       # clients retry through it
    assert new.store.get(0) == len(committed)
    # The tracer actually observed out-of-order deliveries.
    assert cluster.tracer.count("reorder") > 0
    run_all_checks(cluster)
