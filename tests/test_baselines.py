"""Integration tests for the four comparison systems."""

import pytest

from repro.baselines.common import WorkloadOp
from repro.store.kv import MISSING

from conftest import drive, make_ycsb_cluster, submit_and_wait


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def write_op(key, value, partitioner):
    return WorkloadOp(proc="ycsb_write", args={"key": key, "value": value},
                      participants=(partitioner.shard_of(key),),
                      write_keys=frozenset([key]))


def swap_op(k1, k2, partitioner):
    keys = frozenset([k1, k2])
    return WorkloadOp(proc="swap", args={},
                      participants=partitioner.participants_for(keys),
                      read_keys=keys, write_keys=keys, is_general=True,
                      compute=lambda v: {k1: v.get(k2, 0),
                                         k2: v.get(k1, 0)})


# -- NT-UR ----------------------------------------------------------------

def test_ntur_single_shard_execute():
    cluster = make_ycsb_cluster(system="ntur")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 1


def test_ntur_multi_shard_is_independent_messages():
    cluster = make_ycsb_cluster(system="ntur")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 1
    assert cluster.stores[1][0].get(1) == 1


def test_ntur_general_two_round_swap():
    cluster = make_ycsb_cluster(system="ntur")
    client = cluster.make_client()
    submit_and_wait(cluster, client, write_op(0, 7, cluster.partitioner))
    submit_and_wait(cluster, client, write_op(1, 9, cluster.partitioner))
    result = submit_and_wait(cluster, client,
                             swap_op(0, 1, cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 9
    assert cluster.stores[1][0].get(1) == 7


def test_ntur_application_abort_reported():
    cluster = make_ycsb_cluster(system="ntur")
    cluster.registry.register("fail", lambda ctx, args: ctx.abort("no"))
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             WorkloadOp(proc="fail", args={},
                                        participants=(0,)))
    assert not result.committed


# -- Lock-Store ------------------------------------------------------------

def test_lockstore_single_shard_commit():
    cluster = make_ycsb_cluster(system="lockstore")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 1


def test_lockstore_distributed_2pc_commit():
    cluster = make_ycsb_cluster(system="lockstore")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 1
    assert cluster.stores[1][0].get(1) == 1
    # Locks fully released afterwards.
    for replicas in cluster.replicas.values():
        leader = replicas[0]
        assert leader.locks.queue_length() == 0
        assert not leader.locks._writer


def test_lockstore_general_swap():
    cluster = make_ycsb_cluster(system="lockstore")
    client = cluster.make_client()
    submit_and_wait(cluster, client, write_op(0, 7, cluster.partitioner))
    submit_and_wait(cluster, client, write_op(1, 9, cluster.partitioner))
    result = submit_and_wait(cluster, client,
                             swap_op(0, 1, cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 9
    assert cluster.stores[1][0].get(1) == 7


def test_lockstore_application_abort_rolls_back():
    cluster = make_ycsb_cluster(system="lockstore")

    def half_write(ctx, args):
        if ctx.owns(0):
            ctx.put(0, "tainted")
        ctx.abort("deterministic")

    cluster.registry.register("half", half_write)
    client = cluster.make_client()
    result = submit_and_wait(
        cluster, client,
        WorkloadOp(proc="half", args={}, participants=(0, 1),
                   write_keys=frozenset([0])))
    assert not result.committed
    assert cluster.stores[0][0].get(0) == 0  # rolled back to loaded value


def test_lockstore_conflicting_txns_serialize():
    cluster = make_ycsb_cluster(system="lockstore")
    clients = [cluster.make_client() for _ in range(10)]
    done = []
    for client in clients:
        client.submit(rmw_op([0, 1], cluster.partitioner), done.append)
    drive(cluster, 0.5)
    assert len(done) == 10
    assert all(r.committed for r in done)
    assert cluster.stores[0][0].get(0) == 10
    assert cluster.stores[1][0].get(1) == 10


def test_lockstore_one_phase_flag_reduces_rounds():
    normal = make_ycsb_cluster(system="lockstore")
    fast = make_ycsb_cluster(system="lockstore", lockstore_one_phase=True)
    op = rmw_op([0], normal.partitioner)
    slow_latency = submit_and_wait(normal, normal.make_client(), op).latency
    fast_latency = submit_and_wait(fast, fast.make_client(), op).latency
    assert fast_latency < slow_latency


# -- TAPIR ----------------------------------------------------------------

def test_tapir_fast_path_commit():
    cluster = make_ycsb_cluster(system="tapir")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner))
    assert result.committed
    assert client.node.fast_path_commits == 1
    assert client.node.slow_path_commits == 0
    assert cluster.stores[0][0].get(0) == 1


def test_tapir_replicas_all_apply_on_commit():
    cluster = make_ycsb_cluster(system="tapir")
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.02)
    for store in cluster.stores[0]:
        assert store.get(0) == 1


def test_tapir_occ_conflict_aborts_and_retries():
    cluster = make_ycsb_cluster(system="tapir")
    clients = [cluster.make_client() for _ in range(8)]
    done = []
    for client in clients:
        client.submit(rmw_op([0, 1], cluster.partitioner), done.append)
    drive(cluster, 0.5)
    assert len(done) == 8
    assert all(r.committed for r in done)
    total_aborts = sum(c.node.aborts_retried for c in clients)
    assert total_aborts >= 1   # simultaneous conflicting prepares
    assert cluster.stores[0][0].get(0) == 8


def test_tapir_slow_path_on_partial_replies():
    cluster = make_ycsb_cluster(system="tapir")
    # Silence one replica of shard 0 so the fast quorum (all 3) fails.
    victim = cluster.replicas[0][2]
    cluster.network.drop_filter = \
        lambda pkt: pkt.dst == victim.address
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner), timeout=1.0)
    assert result.committed
    assert client.node.slow_path_commits == 1


def test_tapir_general_swap():
    cluster = make_ycsb_cluster(system="tapir")
    client = cluster.make_client()
    submit_and_wait(cluster, client, write_op(0, 7, cluster.partitioner))
    submit_and_wait(cluster, client, write_op(1, 9, cluster.partitioner))
    result = submit_and_wait(cluster, client,
                             swap_op(0, 1, cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 9


# -- Granola ----------------------------------------------------------------

def test_granola_single_repository():
    cluster = make_ycsb_cluster(system="granola")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 1


def test_granola_distributed_vote_round():
    cluster = make_ycsb_cluster(system="granola")
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner))
    assert result.committed
    # Final timestamps agree across participants.
    # (Reply bookkeeping is per-leader; check both stores updated.)
    assert cluster.stores[0][0].get(0) == 1
    assert cluster.stores[1][0].get(1) == 1


def test_granola_distributed_latency_exceeds_single():
    cluster = make_ycsb_cluster(system="granola")
    client = cluster.make_client()
    single = submit_and_wait(cluster, client,
                             rmw_op([0], cluster.partitioner))
    multi = submit_and_wait(cluster, client,
                            rmw_op([2, 3], cluster.partitioner))
    assert multi.latency > single.latency


def test_granola_locking_mode_swap():
    cluster = make_ycsb_cluster(system="granola")
    client = cluster.make_client()
    submit_and_wait(cluster, client, write_op(0, 7, cluster.partitioner))
    submit_and_wait(cluster, client, write_op(1, 9, cluster.partitioner))
    result = submit_and_wait(cluster, client,
                             swap_op(0, 1, cluster.partitioner))
    assert result.committed
    assert cluster.stores[0][0].get(0) == 9
    assert cluster.stores[1][0].get(1) == 7
    for replicas in cluster.replicas.values():
        assert not replicas[0].locks._writer   # locks released


def test_granola_locking_mode_serializes_conflicts():
    cluster = make_ycsb_cluster(system="granola")
    done = []
    for i in range(6):
        client = cluster.make_client()
        client.submit(swap_op(0, 1, cluster.partitioner), done.append)
    drive(cluster, 0.5)
    assert len(done) == 6
    assert all(r.committed for r in done)
    # Even number of swaps of (0, 0) is identity; just check both exist.
    assert cluster.stores[0][0].get(0) is not MISSING


# -- every system: the one client core -------------------------------------

RETRYING = ["lockstore", "tapir", "granola", "eris", "eris-oum"]
SYSTEMS = ["ntur"] + RETRYING


def submit_mixed_load(cluster, clients, done, n_ops=30):
    for i in range(n_ops):
        keys = [i % 5, 5 + i % 3] if i % 3 == 0 else [i % 7]
        clients[i % 5].submit(rmw_op(keys, cluster.partitioner),
                              lambda result, i=i: done.append((i, result)))


def assert_each_op_counted_once(clients, done, n_ops=30):
    assert sorted(i for i, _ in done) == list(range(n_ops))
    assert sum(c.node.committed_count + c.node.aborted_count
               + c.node.timedout_count for c in clients) == len(done)
    assert all(c.node.inflight == 0 for c in clients)


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_system_runs_mixed_load(system):
    cluster = make_ycsb_cluster(system=system)
    clients = [cluster.make_client() for _ in range(5)]
    done = []
    submit_mixed_load(cluster, clients, done)
    drive(cluster, 0.5)
    assert len(done) == 30
    assert all(r.committed for _, r in done)
    assert_each_op_counted_once(clients, done)


@pytest.mark.parametrize("system", RETRYING)
def test_every_client_retries_a_lost_first_transmission(system):
    """Every message an op's first attempt sends is dropped: the client
    core retransmits and each op commits, counting its retry."""
    cluster = make_ycsb_cluster(system=system)
    clients = [cluster.make_client() for _ in range(5)]
    nodes = {client.node.address: client.node for client in clients}

    def first_transmission(packet):
        node = nodes.get(packet.src)
        if node is None:
            return False
        payload = packet.payload
        key = payload.txn.txn_id if hasattr(payload, "txn") else payload.tag
        pending = node._pending.get(key)
        return pending is not None and pending.retries == 0

    cluster.network.drop_filter = first_transmission
    done = []
    submit_mixed_load(cluster, clients, done)
    drive(cluster, 0.5)
    assert len(done) == 30
    assert all(r.committed and r.retries >= 1 for _, r in done)
    assert_each_op_counted_once(clients, done)


@pytest.mark.parametrize("system", RETRYING)
def test_every_client_gives_up_once_past_max_retries(system):
    cluster = make_ycsb_cluster(system=system)
    clients = [cluster.make_client() for _ in range(5)]
    timers = []
    for client in clients:
        node = client.node
        node.max_retries = 0

        def recording_timer(*args, make=node.timer):
            timers.append(make(*args))
            return timers[-1]

        node.timer = recording_timer
    addresses = {client.node.address for client in clients}
    cluster.network.drop_filter = lambda packet: packet.dst in addresses
    done = []
    submit_mixed_load(cluster, clients, done)
    drive(cluster, 0.5)
    assert len(done) == 30
    assert not any(r.committed for _, r in done)
    assert sum(c.node.timedout_count for c in clients) == 30
    assert_each_op_counted_once(clients, done)
    assert timers and not any(timer.active for timer in timers)
