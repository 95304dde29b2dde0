"""Integration tests: Eris dropped-message recovery (§6.3).

Uses the network's deterministic drop filter to create precise loss
scenarios: one replica misses a message (peer recovery), a whole shard
misses it (FC recovery), every participant misses it (FC permanent
drop with cross-shard atomicity)."""

from repro.baselines.common import WorkloadOp
from repro.core.transaction import SlotId, TxnId
from repro.harness.checkers import run_all_checks
from repro.store.kv import MISSING

from conftest import (
    drive, logged_txn_ids, make_ycsb_cluster, submit_and_wait)


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def drop_to(cluster, targets, when=lambda now: True):
    """Drop sequenced packets addressed to the given replicas."""
    addresses = {t.address if hasattr(t, "address") else t for t in targets}
    cluster.network.drop_filter = lambda pkt: (
        pkt.multistamp is not None and pkt.dst in addresses
        and when(cluster.loop.now))


def test_single_replica_recovers_from_peers():
    cluster = make_ycsb_cluster()
    victim = cluster.replicas[0][1]  # a non-DL replica of shard 0
    drop_to(cluster, [victim], when=lambda now: now < 0.5e-3)
    client = cluster.make_client()
    # First txn to shard 0 is lost at the victim; a second reveals the
    # gap and triggers recovery.
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.02)
    assert victim.drops_recovered_from_peer >= 1
    assert victim.drops_escalated_to_fc == 0
    assert len(victim.log) == len(cluster.replicas[0][0].log)
    run_all_checks(cluster)


def test_whole_shard_miss_recovered_via_fc():
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    # Drop the first multi-shard txn at every replica of shard 1 only;
    # shard 0 logs it, so the FC must find it there (via HAS-TXN).
    shard1 = cluster.replicas[1]
    first = {"dropped": False}

    def drop_first(pkt):
        if pkt.multistamp is None or pkt.dst not in {r.address
                                                     for r in shard1}:
            return False
        if pkt.multistamp.seq_for(1) == 1:
            first["dropped"] = True
            return True
        return False

    cluster.network.drop_filter = drop_first
    client = cluster.make_client()
    done = []
    client.submit(rmw_op([0, 1], part), done.append)   # seq 1 on shard 1
    drive(cluster, 1e-3)
    cluster.network.drop_filter = None
    client.submit(rmw_op([3], part), done.append)      # reveals the gap
    drive(cluster, 0.1)
    assert first["dropped"]
    assert len(done) == 2 and all(r.committed for r in done)
    assert cluster.fc.finds_resolved >= 1
    # Shard 1 executed the recovered transaction.
    assert cluster.authoritative_store(1).get(1) == 1
    run_all_checks(cluster)


def test_fully_lost_txn_permanently_dropped_atomically():
    cluster = make_ycsb_cluster(n_shards=2)
    part = cluster.partitioner
    all_replicas = {r.address for reps in cluster.replicas.values()
                    for r in reps}
    window = {"active": True}

    def drop_all(pkt):
        return (window["active"] and pkt.multistamp is not None
                and pkt.dst in all_replicas)

    cluster.network.drop_filter = drop_all
    client = cluster.make_client()
    done = []
    # This multi-shard txn vanishes entirely (sequenced, then dropped).
    client.node.max_retries = 0   # do not let the client resurrect it
    client.submit(rmw_op([0, 1], part), done.append)
    drive(cluster, 1e-3)
    window["active"] = False
    # Subsequent txns reveal gaps on both shards; nobody has the
    # message, so the FC gathers drop promises and NO-OPs it.
    follow = cluster.make_client()
    submit_and_wait(cluster, follow, rmw_op([2], part))
    submit_and_wait(cluster, follow, rmw_op([3], part))
    drive(cluster, 0.2)
    assert cluster.fc.drops_decided >= 1
    # The lost transaction executed nowhere: atomic all-or-nothing.
    assert cluster.authoritative_store(0).get(0) == 0
    assert cluster.authoritative_store(1).get(1) == 0
    # Both shards hold a NO-OP in the dropped slot: in the log, or cut
    # with no trace of the lost transaction in the commit order.
    lost = TxnId(client.node.address, 1)
    for shard in (0, 1):
        dl = next(r for r in cluster.replicas[shard] if r.is_dl)
        slot = SlotId(shard, 1, 1)
        entry = dl.log.find_slot(slot)
        assert entry.is_noop if entry is not None else dl.log.is_cut(slot)
        assert lost not in logged_txn_ids(dl)
    run_all_checks(cluster)


def test_temp_drop_blocks_until_fc_decision():
    """A replica that promised a TEMP-DROPPED-TXN must not process the
    transaction even if it arrives later (§6.3 step 3)."""
    cluster = make_ycsb_cluster(n_shards=1)
    shard0 = cluster.replicas[0]
    dl = next(r for r in shard0 if r.is_dl)
    slot = SlotId(0, 1, 99)
    from repro.core.messages import TxnRequestMsg
    dl.on_TxnRequestMsg("fc", TxnRequestMsg(slot=slot), None)
    assert slot in dl.temp_drops
    # A transaction stamped with that slot arrives: it must be held.
    from repro.core.messages import IndependentTxnRequest
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp, Packet
    txn = IndependentTransaction(txn_id=TxnId("c", 1), proc="ycsb_rmw",
                                 args={"keys": (0,)}, participants=(0,))
    stamp = MultiStamp(epoch=1, stamps=((0, 99),))
    # Pretend sequence numbers 1..98 never existed by fast-forwarding.
    dl.channel.fast_forward(99)
    dl._on_sequenced(Packet(src="c", dst=dl.address,
                            payload=IndependentTxnRequest(txn),
                            multistamp=stamp))
    assert len(dl.log) == 0          # blocked, not processed
    # FC decides: dropped. The replica NO-OPs the slot and moves on.
    from repro.core.messages import TxnDropped
    dl.on_TxnDropped("fc", TxnDropped(slot=slot), None)
    assert len(dl.log) == 1
    assert dl.log.get(1).is_noop


def test_txn_found_unblocks_temp_drop():
    cluster = make_ycsb_cluster(n_shards=1)
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    slot = SlotId(0, 1, 1)
    from repro.core.messages import (IndependentTxnRequest, TxnFound,
                                     TxnRecord, TxnRequestMsg)
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp, Packet
    dl.on_TxnRequestMsg("fc", TxnRequestMsg(slot=slot), None)
    txn = IndependentTransaction(txn_id=TxnId("c", 1), proc="ycsb_write",
                                 args={"key": 0, "value": 5},
                                 participants=(0,),
                                 write_keys=frozenset([0]))
    record = TxnRecord(txn=txn, multistamp=MultiStamp(1, ((0, 1),)))
    dl.on_TxnFound("fc", TxnFound(slot=slot, record=record), None)
    assert len(dl.log) == 1
    assert dl.log.get(1).kind == "txn"
    assert dl.store.get(0) == 5


def test_high_random_loss_preserves_invariants():
    cluster = make_ycsb_cluster(n_shards=2, drop_rate=0.03)
    clients = [cluster.make_client() for _ in range(10)]
    done = []
    for i in range(80):
        keys = [i % 9, 9 + (i % 4)]
        clients[i % 10].submit(rmw_op(keys, cluster.partitioner),
                               done.append)
    drive(cluster, 0.3)
    cluster.set_drop_rate(0.0)
    drive(cluster, 0.2)
    committed = [r for r in done if r.committed]
    assert len(committed) >= 70   # most should eventually commit
    run_all_checks(cluster)
