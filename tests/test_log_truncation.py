"""Bounded replica logs (DESIGN.md, "Bounded replica logs"): adopting
an agreed log rewinds everything derived from the log, and a replica
cuts a multi-shard entry only once every slot its multi-stamp names is
stable at that participant shard."""

from repro.baselines.common import WorkloadOp
from repro.core.messages import (
    FindTxn, HasTxn, PeerTxnRequest, TempDroppedTxn, TxnRequestMsg)
from repro.core.replica.state import CANDIDATE_SPACING
from repro.core.transaction import SlotId
from repro.harness.checkers import run_all_checks

from conftest import (
    drive, logged_txn_ids, make_ycsb_cluster, submit_and_wait)


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def keys_of(partitioner, shard, count):
    return [key for key in range(200)
            if partitioner.participants_for([key]) == (shard,)][:count]


def test_adopting_a_shorter_log_rewinds_the_channel():
    """The DL delivers k packets no follower logs, then loses its
    outbound links: the followers elect a new DL whose merged log is
    empty, and the old DL adopts it. Its channel must go back to seq 1
    (redelivering what it still holds), or its next append lands at
    index 1 with seq k + 1 while the new DL recovers seq 1 there."""
    k = 4
    cluster = make_ycsb_cluster(n_shards=1)
    old = cluster.replicas[0][0]
    followers = {r.address for r in cluster.replicas[0][1:]}
    assert old.is_dl
    client = cluster.make_client()
    client.node.retry_timeout = 1.0      # no retry inside the partition

    def partition(packet):
        stamp = packet.multistamp
        if stamp is not None and packet.dst in followers:
            return stamp.seq_for(0) <= k          # the followers miss 1..k
        return packet.src == old.address and packet.dst in followers

    cluster.network.drop_filter = partition
    for key in range(k):
        client.submit(rmw_op([key], cluster.partitioner), lambda _: None)
    drive(cluster, 1e-3)
    assert old.log.last_index == k
    drive(cluster, 0.1)                  # the followers' DL timeout fires
    new = next(r for r in cluster.replicas[0] if r.is_dl)
    assert new is not old and new.view_num == old.view_num == 1
    adopted = [(e.index, e.slot.seq) for e in old.log]
    cluster.network.drop_filter = None
    result = submit_and_wait(cluster, client,
                             rmw_op([k], cluster.partitioner), timeout=2.0)
    assert result.committed
    drive(cluster, 0.05)
    run_all_checks(cluster)
    # The old DL adopted the empty merged log and redelivered 1..k, so
    # its next append landed at index 1 with seq 1.
    assert adopted == [(i, i) for i in range(1, k + 1)]
    for replica in cluster.replicas[0]:
        assert replica.log.last_index == k + 1


def test_cut_waits_for_a_multi_shard_entry_to_be_stable_at_its_partner():
    """A's replicas log X at s1 while every replica of B misses its B
    slot t1, and B's recovery is held up. A executes X and keeps
    syncing: its own stable index passes X, but the cut must wait, for
    if A cut X it would answer the FC's TXN-REQUEST for (B, t1) with a
    temp-drop, and the FC could perm-drop t1 while A has executed X.
    Once B recovers t1 — from A, which still holds X — and B's stable
    point reaches A on client requests, the cut moves past X."""
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    a_replicas, b_replicas = cluster.replicas[0], cluster.replicas[1]
    b_addrs = {r.address for r in b_replicas}
    x_client, a_client = cluster.make_client(), cluster.make_client()
    x_client.node.retry_timeout = 1.0
    state = {"hold": True}

    def lose_t1(packet):
        stamp = packet.multistamp
        if stamp is not None and packet.dst in b_addrs \
                and stamp.has_group(0) and stamp.has_group(1):
            return stamp.seq_for(1) == 1     # the first two-shard stamp
        return state["hold"] and packet.src in b_addrs and isinstance(
            packet.payload, (PeerTxnRequest, FindTxn))

    cluster.network.drop_filter = lose_t1
    x = rmw_op([keys_of(part, 0, 1)[0], keys_of(part, 1, 1)[0]], part)
    x_client.submit(x, lambda _: None)
    drive(cluster, 1e-3)
    x_entry = next(e for r in a_replicas for e in r.log if e.kind == "txn")
    a_keys = keys_of(part, 0, 8)
    for i in range(CANDIDATE_SPACING + 8):
        submit_and_wait(cluster, a_client, rmw_op([a_keys[i % 8]], part))
    drive(cluster, 0.03)                  # many sync rounds at A
    for replica in a_replicas:
        assert replica.fed_index > x_entry.index
        assert replica._stable_index > x_entry.index
        assert replica.log.base < x_entry.index       # the cut waits
        assert replica.log.find_stamped(SlotId(1, 1, 1)) is not None
    assert all(r.log.last_index == 0 for r in b_replicas)
    # Let B recover t1; further two-shard traffic relays B's stable
    # point to A.
    state["hold"] = False
    both = rmw_op([keys_of(part, 0, 2)[1], keys_of(part, 1, 2)[1]], part)
    for _ in range(6):
        submit_and_wait(cluster, x_client, both, timeout=2.0)
        drive(cluster, 5e-3)
    assert SlotId(1, 1, 1) not in cluster.fc.dropped
    for replica in a_replicas:
        assert replica.log.base >= x_entry.index
    for replica in b_replicas:
        assert logged_txn_ids(replica)[0] == x_entry.record.txn.txn_id
    run_all_checks(cluster)


def test_a_cut_slot_is_never_promised_as_dropped():
    """A TXN-REQUEST for an own-shard slot at or below the base gets a
    record-less HAS-TXN, never a temp-drop: every replica of the shard
    executed the slot."""
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    for key in range(CANDIDATE_SPACING + 5):
        submit_and_wait(cluster, client,
                        rmw_op([key % 8], cluster.partitioner))
    drive(cluster, 0.02)
    replica = cluster.replicas[0][1]
    assert replica.log.is_cut(SlotId(0, 1, 1))
    sent = []
    replica.send = lambda dst, message: sent.append(message)
    replica.on_TxnRequestMsg("fc", TxnRequestMsg(slot=SlotId(0, 1, 1)), None)
    assert len(sent) == 1 and isinstance(sent[0], HasTxn) \
        and sent[0].record is None
    assert not any(isinstance(m, TempDroppedTxn) for m in sent)
