"""Integration tests: general transactions (§7) end to end."""

from repro.baselines.common import WorkloadOp
from repro.core.general import GeneralTransactionManager
from repro.harness.checkers import run_all_checks

from conftest import drive, make_ycsb_cluster, submit_and_wait


def swap_op(k1, k2, partitioner):
    keys = frozenset([k1, k2])

    def swap(values):
        return {k1: values.get(k2, 0), k2: values.get(k1, 0)}

    return WorkloadOp(proc="ycsb_swap", args={},
                      participants=partitioner.participants_for(keys),
                      read_keys=keys, write_keys=keys,
                      is_general=True, compute=swap)


def write_op(key, value, partitioner):
    return WorkloadOp(proc="ycsb_write", args={"key": key, "value": value},
                      participants=(partitioner.shard_of(key),),
                      write_keys=frozenset([key]))


def test_cross_shard_swap_commits():
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    part = cluster.partitioner
    submit_and_wait(cluster, client, write_op(0, "A", part))
    submit_and_wait(cluster, client, write_op(1, "B", part))
    result = submit_and_wait(cluster, client, swap_op(0, 1, part))
    assert result.committed
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == "B"
    assert cluster.authoritative_store(part.shard_of(1)).get(1) == "A"
    run_all_checks(cluster)


def test_swap_reports_both_phases_retries_and_its_reads():
    """A general op's OpResult carries the preliminary's and the
    conclusory's retries and the values the preliminary read."""
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    part = cluster.partitioner
    submit_and_wait(cluster, client, write_op(0, "A", part))
    submit_and_wait(cluster, client, write_op(1, "B", part))
    node = client.node

    def first_preliminary_reply(packet):
        pending = node._pending.get(getattr(packet.payload, "txn_id", None))
        return (packet.dst == node.address and pending is not None
                and pending.txn.kind == "preliminary"
                and pending.retries == 0)

    cluster.network.drop_filter = first_preliminary_reply
    result = submit_and_wait(cluster, client, swap_op(0, 1, part))
    assert result.committed
    assert result.retries >= 1
    assert result.result == {0: "A", 1: "B"}


def test_swap_takes_two_independent_txn_rounds():
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    single = submit_and_wait(cluster, client,
                             write_op(0, "x", cluster.partitioner))
    general = submit_and_wait(cluster, client,
                              swap_op(0, 1, cluster.partitioner))
    assert general.latency > 1.5 * single.latency


def test_compute_returning_none_aborts():
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    part = cluster.partitioner
    submit_and_wait(cluster, client, write_op(0, 10, part))
    op = WorkloadOp(proc="noop", args={}, participants=(0, 1),
                    read_keys=frozenset([0, 1]),
                    write_keys=frozenset([0, 1]),
                    is_general=True, compute=lambda values: None)
    result = submit_and_wait(cluster, client, op)
    assert not result.committed
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == 10
    # Locks released: a later swap succeeds.
    assert submit_and_wait(cluster, client, swap_op(0, 1, part)).committed


def test_locks_block_conflicting_independent_txn():
    """While a general transaction holds its locks, a conflicting
    independent transaction waits; a non-conflicting one proceeds."""
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    client = cluster.make_client()
    manager = GeneralTransactionManager(client.node)
    order = []
    # Slow general txn: hold locks on {0, 1} across the two phases.
    manager.execute(
        read_keys={0, 1}, write_keys={0, 1}, participants=(0, 1),
        compute=lambda values: {0: 100, 1: 100},
        callback=lambda outcome: order.append(("general", outcome.committed)))
    conflicting = WorkloadOp(
        proc="ycsb_rmw", args={"keys": (0,)}, participants=(0,),
        read_keys=frozenset([0]), write_keys=frozenset([0]))
    unrelated = WorkloadOp(
        proc="ycsb_rmw", args={"keys": (2,)}, participants=(0,),
        read_keys=frozenset([2]), write_keys=frozenset([2]))
    results = {}
    other = cluster.make_client()
    other.submit(conflicting, lambda r: results.setdefault("conflict", r))
    other.submit(unrelated, lambda r: results.setdefault("unrelated", r))
    drive(cluster, 0.1)
    assert order and order[0][1]
    assert results["conflict"].committed
    assert results["unrelated"].committed
    # The conflicting increment serialized after the general txn's
    # write of 100, so the final value is 101 (not 1).
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == 101
    run_all_checks(cluster)


def test_reconnaissance_then_validated_commit():
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    client = cluster.make_client()
    manager = GeneralTransactionManager(client.node)
    submit_and_wait(cluster, client, write_op(0, 5, part))
    dl0 = next(r for r in cluster.replicas[part.shard_of(0)] if r.is_dl)
    observed = {}
    manager.reconnaissance({dl0.address: [0]}, observed.update)
    drive(cluster, 0.01)
    assert observed == {0: 5}
    outcomes = []
    manager.execute(read_keys={0}, write_keys={0}, participants=(0,),
                    compute=lambda values: {0: values[0] + 1},
                    callback=outcomes.append, expected=dict(observed))
    drive(cluster, 0.05)
    assert outcomes[0].committed
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == 6


def test_stale_reconnaissance_aborts():
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    client = cluster.make_client()
    manager = GeneralTransactionManager(client.node)
    submit_and_wait(cluster, client, write_op(0, 5, part))
    outcomes = []
    manager.execute(read_keys={0}, write_keys={0}, participants=(0,),
                    compute=lambda values: {0: 99},
                    callback=outcomes.append, expected={0: 12345})
    drive(cluster, 0.05)
    assert not outcomes[0].committed
    assert outcomes[0].reason == "validation failed"
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == 5


def test_failed_client_aborted_by_dl(loop=None):
    """§7.2: a DL aborts a general transaction whose client vanished."""
    cluster = make_ycsb_cluster(
        n_shards=2,
        eris=__import__("repro.core.replica",
                        fromlist=["ErisConfig"]).ErisConfig(
            general_abort_timeout=20e-3))
    part = cluster.partitioner
    client = cluster.make_client()
    manager = GeneralTransactionManager(client.node)
    # Start the preliminary, then crash the client before the
    # preliminary replies return, so the conclusory is never sent and
    # the locks stay stuck until the DL reclaims them.
    manager.execute(read_keys={0, 1}, write_keys={0, 1},
                    participants=(0, 1),
                    compute=lambda values: {0: -777, 1: -777},
                    callback=lambda outcome: None)
    cluster.loop.run(until=cluster.loop.now + 15e-6)
    client.node.crash()
    drive(cluster, 0.3)
    # Locks were reclaimed: another client's conflicting txn commits.
    fresh = cluster.make_client()
    result = submit_and_wait(
        cluster, fresh,
        WorkloadOp(proc="ycsb_rmw", args={"keys": (0, 1)},
                   participants=part.participants_for([0, 1]),
                   read_keys=frozenset([0, 1]),
                   write_keys=frozenset([0, 1])),
        timeout=1.0)
    assert result.committed
    # The crashed client's writes never landed.
    assert cluster.authoritative_store(part.shard_of(0)).get(0) != -777
    run_all_checks(cluster)


def test_no_deadlock_with_opposite_order_generals():
    """Two generals locking {a, b} from 'opposite directions' cannot
    deadlock: acquisition is one atomic step in the linearized order."""
    cluster = make_ycsb_cluster(n_shards=2)
    outcomes = []
    for i in range(8):
        client = cluster.make_client()
        manager = GeneralTransactionManager(client.node)
        keys = ({0, 1} if i % 2 == 0 else {1, 0})
        manager.execute(read_keys=keys, write_keys=keys,
                        participants=(0, 1),
                        compute=lambda values: {0: i, 1: i},
                        callback=outcomes.append)
    drive(cluster, 0.5)
    assert len(outcomes) == 8
    assert all(o.committed for o in outcomes)
    run_all_checks(cluster)
