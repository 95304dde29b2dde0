"""Unit-level tests for ErisReplica internals: synchronization details,
OUM mode, temp-drop gating, crash behavior."""

import pytest

from repro.baselines.common import WorkloadOp
from repro.core.messages import IndependentTxnRequest, SyncAck, SyncLog
from repro.core.replica.state import CANDIDATE_SPACING
from repro.core.transaction import SlotId

from conftest import (
    drive, logged_txn_ids, make_ycsb_cluster, submit_and_wait)


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def test_sync_tracks_per_peer_progress():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    for _ in range(5):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.03)
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    for peer in dl._peers():
        assert dl._peer_synced[peer] == dl.log.last_index


def test_sync_resends_only_suffix():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.03)     # peers acked index 1
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    sent = []
    original_send = dl.send

    def spy(dst, message):
        if isinstance(message, SyncLog):
            sent.append(message)
        original_send(dst, message)

    dl.send = spy
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.01)
    assert sent
    assert all(m.from_index >= 2 for m in sent)   # no re-shipping slot 1


def spy_sync_logs(replica):
    """Record every (destination, SyncLog) ``replica`` sends."""
    sent = []
    original_send = replica.send

    def spy(dst, message):
        if isinstance(message, SyncLog):
            sent.append((dst, message))
        return original_send(dst, message)

    replica.send = spy
    return sent


def test_steady_state_sync_ships_no_entries():
    """Followers log every entry from the groupcast itself, so without
    loss a SyncLog only heartbeats and advances commit_upto."""
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.01)     # first ack round
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    sent = spy_sync_logs(dl)
    for _ in range(20):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.01)
    assert len(sent) >= 2 * len(dl._peers())
    assert sum(len(message.entries) for _, message in sent) == 0
    assert sent[-1][1].commit_upto == dl.log.last_index == 21
    for follower in dl._peers():
        replica = cluster.network.endpoint(follower)
        assert replica.log.last_index == 21
        assert replica.fed_index == 21      # executed through commit_upto


def test_sync_alone_repairs_a_lost_last_groupcast():
    """A follower that missed the last transaction sees no later packet
    to reveal the gap; the DL ships that entry once the follower has
    had a whole sync interval to acknowledge it and did not."""
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    follower = next(r for r in cluster.replicas[0] if not r.is_dl)
    for _ in range(3):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    cluster.network.drop_filter = lambda pkt: (
        pkt.dst == follower.address
        and isinstance(pkt.payload, IndependentTxnRequest))
    assert submit_and_wait(cluster, client,
                           rmw_op([0], cluster.partitioner)).committed
    cluster.network.drop_filter = None
    assert follower.log.last_index == dl.log.last_index - 1
    interval = dl.config.sync_interval
    deadline = cluster.loop.now + 3 * interval
    while follower.log.last_index < dl.log.last_index \
            and cluster.loop.now < deadline:
        drive(cluster, interval / 20)
    assert follower.log.last_index == dl.log.last_index == 4
    assert follower.log.get(4).record == dl.log.get(4).record
    assert follower.drops_recovered_from_peer == 0
    assert follower.drops_escalated_to_fc == 0


def test_first_sync_after_view_change_ships_no_entries():
    """StartView hands every follower the merged log, so the new DL's
    first SyncLog to each peer re-ships nothing."""
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    for _ in range(5):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    drive(cluster, 0.01)
    old = next(r for r in cluster.replicas[0] if r.is_dl)
    sent = {r.address: spy_sync_logs(r) for r in cluster.replicas[0]
            if r is not old}
    old.crash()
    drive(cluster, 0.2)
    new = next(r for r in cluster.replicas[0] if not r.crashed and r.is_dl)
    assert new.view_num >= 1 and new.log.last_index == 5
    first = {}
    for dst, message in sent[new.address]:
        first.setdefault(dst, message)
    assert set(first) == set(new._peers())
    for message in first.values():
        assert message.view_num == new.view_num
        assert message.entries == ()


def test_sync_is_dl_heartbeat():
    """Non-DL replicas reset their view-change timer on SyncLog; with a
    healthy DL no view change ever triggers."""
    cluster = make_ycsb_cluster(n_shards=1)
    drive(cluster, 0.2)   # many view_change_timeout periods, no traffic
    for replica in cluster.replicas[0]:
        assert replica.view_num == 0
        assert replica.status == "normal"


def test_stale_sync_from_old_view_ignored():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    replica = cluster.replicas[0][1]
    replica.view_num = 3
    before = replica.log.last_index
    replica.on_SyncLog("ghost", SyncLog(shard=0, view_num=1, epoch_num=1,
                                        from_index=99, entries=(),
                                        commit_upto=99), None)
    assert replica.log.last_index == before


def test_sync_ack_from_old_epoch_ignored():
    cluster = make_ycsb_cluster(n_shards=1)
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    peer = dl._peers()[0]
    dl.on_SyncAck(peer, SyncAck(shard=0, view_num=0, epoch_num=99,
                                log_len=50, sender=peer), None)
    assert dl._peer_synced[peer] == 0


def test_oum_mode_logs_noops_for_foreign_txns():
    cluster = make_ycsb_cluster(system="eris-oum", n_shards=2)
    client = cluster.make_client()
    # A transaction only for shard 1 still reaches shard 0's replicas.
    result = submit_and_wait(cluster, client,
                             rmw_op([1], cluster.partitioner))
    assert result.committed
    drive(cluster, 0.01)
    shard0_dl = next(r for r in cluster.replicas[0] if r.is_dl)
    assert shard0_dl.log.last_index == 1
    assert logged_txn_ids(shard0_dl) == []       # burned a slot + CPU
    shard1_dl = next(r for r in cluster.replicas[1] if r.is_dl)
    assert len(logged_txn_ids(shard1_dl)) == 1


def test_oum_mode_cross_shard_txn_executes_once_per_shard():
    cluster = make_ycsb_cluster(system="eris-oum", n_shards=2)
    client = cluster.make_client()
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner))
    assert result.committed
    assert cluster.authoritative_store(0).get(0) == 1
    assert cluster.authoritative_store(1).get(1) == 1


def test_crash_stops_replica_timers():
    cluster = make_ycsb_cluster(n_shards=1)
    replica = cluster.replicas[0][1]
    replica.crash()
    assert not replica._vc_timer.active
    assert not replica._sync_timer.active
    events_before = cluster.loop.events_processed
    drive(cluster, 0.1)
    # A crashed cluster member generates (almost) no events.
    assert cluster.loop.events_processed - events_before < 1500


def test_blocked_delivery_queue_preserves_order():
    """Entries behind a temp-dropped transaction are processed in their
    original sequence order once the FC decides."""
    cluster = make_ycsb_cluster(n_shards=1)
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    from repro.core.messages import (IndependentTxnRequest, TxnDropped,
                                     TxnRequestMsg)
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp, Packet

    slot = SlotId(0, 1, 1)
    dl.on_TxnRequestMsg("fc", TxnRequestMsg(slot=slot), None)

    def packet(seq, key, client, value):
        txn = IndependentTransaction(
            txn_id=TxnId(client, 1), proc="ycsb_write",
            args={"key": key, "value": value}, participants=(0,),
            write_keys=frozenset([key]))
        return Packet(src=client, dst=dl.address,
                      payload=IndependentTxnRequest(txn),
                      multistamp=MultiStamp(1, ((0, seq),)))

    dl._on_sequenced(packet(1, 0, "c1", "first"))   # blocked (temp-drop)
    dl._on_sequenced(packet(2, 1, "c2", "second"))  # queued behind it
    assert len(dl.log) == 0
    dl.on_TxnDropped("fc", TxnDropped(slot=slot), None)
    assert len(dl.log) == 2
    assert dl.log.get(1).is_noop          # perm-dropped slot
    assert dl.log.get(2).record.txn.txn_id.client == "c2"
    assert dl.store.get(1) == "second"
    assert dl.store.get(0) == 0           # dropped txn never executed


def test_txn_found_wins_over_block():
    cluster = make_ycsb_cluster(n_shards=1)
    dl = next(r for r in cluster.replicas[0] if r.is_dl)
    from repro.core.messages import (IndependentTxnRequest, TxnFound,
                                     TxnRecord, TxnRequestMsg)
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp, Packet

    slot = SlotId(0, 1, 1)
    dl.on_TxnRequestMsg("fc", TxnRequestMsg(slot=slot), None)
    txn = IndependentTransaction(
        txn_id=TxnId("c1", 1), proc="ycsb_write",
        args={"key": 0, "value": "v"}, participants=(0,),
        write_keys=frozenset([0]))
    stamp = MultiStamp(1, ((0, 1),))
    dl._on_sequenced(Packet(src="c1", dst=dl.address,
                            payload=IndependentTxnRequest(txn),
                            multistamp=stamp))
    assert len(dl.log) == 0
    dl.on_TxnFound("fc", TxnFound(slot=slot,
                                  record=TxnRecord(txn=txn,
                                                   multistamp=stamp)),
                   None)
    assert len(dl.log) == 1
    assert dl.log.get(1).kind == "txn"
    assert dl.store.get(0) == "v"


def test_replica_ignores_foreign_shard_groupcast():
    """A replica only logs transactions whose stamp covers its group."""
    cluster = make_ycsb_cluster(n_shards=2)
    replica = cluster.replicas[0][0]
    from repro.core.messages import IndependentTxnRequest
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp, Packet
    txn = IndependentTransaction(txn_id=TxnId("c", 1), proc="ycsb_read",
                                 args={"key": 1}, participants=(1,))
    replica._on_sequenced(Packet(
        src="c", dst=replica.address,
        payload=IndependentTxnRequest(txn),
        multistamp=MultiStamp(1, ((1, 1),))))   # shard 1 only
    assert len(replica.log) == 0


def test_epoch_change_ends_a_view_change_in_progress():
    """A view change interrupted by an epoch change must not finish
    later from its stale merged log: after START-EPOCH, a new view
    change holding only this replica's own VIEW-CHANGE stays open."""
    from repro.core.log import LogEntry
    from repro.core.messages import (StartEpoch, StartView, TxnDropped,
                                     TxnFound, TxnRecord, TxnRequestMsg,
                                     ViewChange)
    from repro.core.transaction import IndependentTransaction, TxnId
    from repro.net.message import MultiStamp

    cluster = make_ycsb_cluster(n_shards=1)
    r1, r2 = cluster.replicas[0][1], cluster.replicas[0][2]
    slot = SlotId(0, 1, 1)
    txn = IndependentTransaction(
        txn_id=TxnId("c1", 1), proc="ycsb_write",
        args={"key": 0, "value": "v"}, participants=(0,),
        write_keys=frozenset([0]))
    record = TxnRecord(txn=txn, multistamp=MultiStamp(1, ((0, 1),)))
    sent = []
    original_send = r1.send

    def spy(dst, message):
        sent.append(message)
        return original_send(dst, message)

    r1.send = spy
    r1.on_TxnRequestMsg("fc", TxnRequestMsg(slot=slot), None)  # temp-drop
    r1._on_dl_timeout()                # view 1, which r1 leads
    r1.on_ViewChange(r2.address, ViewChange(
        shard=0, new_view=1, epoch_num=1,
        log=(LogEntry(index=1, slot=slot, kind="txn", record=record),),
        temp_drops=frozenset(), perm_drops=frozenset(),
        un_drops=frozenset(), sender=r2.address), None)
    assert r1.status == "view-change"  # assembled; waits on the FC
    r1.on_StartEpoch("fc", StartEpoch(shard=0, new_epoch=2, view_num=3,
                                      log=()), None)
    r1.on_TxnFound("fc", TxnFound(slot=slot, record=record), None)
    r1._on_dl_timeout()                # view 4, which r1 leads again
    assert (r1.view_num, r1.status) == (4, "view-change")
    r1.on_TxnDropped("fc", TxnDropped(slot=SlotId(5, 1, 1)), None)
    assert r1.status == "view-change"  # 1 of 3 VIEW-CHANGEs: no view
    assert r1.log.last_index == 0
    assert not any(isinstance(m, StartView) for m in sent)


def test_five_replica_shard_recovers_from_a_dl_crash():
    """With five replicas the new DL assembles its view at three
    VIEW-CHANGEs, so a fourth live replica's always arrives late. The
    DL answers it with START-VIEW instead of re-entering the view
    change, and the shard commits again."""
    cluster = make_ycsb_cluster(n_shards=1, n_replicas=5)
    client = cluster.make_client()
    for _ in range(3):
        submit_and_wait(cluster, client, rmw_op([0], cluster.partitioner))
    old = next(r for r in cluster.replicas[0] if r.is_dl)
    old.crash()
    drive(cluster, 0.2)
    live = [r for r in cluster.replicas[0] if not r.crashed]
    assert {(r.status, r.view_num) for r in live} == {("normal", 1)}
    new = next(r for r in live if r.is_dl)
    assert submit_and_wait(cluster, client,
                           rmw_op([0], cluster.partitioner)).committed
    drive(cluster, 0.01)
    assert {(r.status, r.view_num) for r in live} == {("normal", 1)}
    assert new.log.last_index == 4
    assert new.store.get(0) == 4


# -- the §6.1 completion floor ---------------------------------------------

def keys_on_shards(partitioner, shards):
    """One key owned by each shard in ``shards``."""
    return [next(k for k in range(1000) if partitioner.shard_of(k) == s)
            for s in shards]


def spy_requests(node):
    """Record every transaction ``node`` (an ErisClient) groupcasts."""
    sent = []
    original = node.send_groupcast

    def spy(groups, message, **header):
        if isinstance(message, IndependentTxnRequest):
            sent.append(message.txn)
        return original(groups, message, **header)

    node.send_groupcast = spy
    return sent


def all_replicas(cluster):
    return [r for replicas in cluster.replicas.values() for r in replicas]


def executed_state(replica):
    """A replica's execution outcome: store, floors and table rows."""
    return (replica.store.snapshot(), dict(replica.engine.client_floors),
            {client: dict(rows)
             for client, rows in replica.engine.client_table.items()})


def test_client_table_holds_outstanding_plus_one_rows():
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    address = client.node.address
    keys = keys_on_shards(cluster.partitioner, (0, 1))
    ops = [rmw_op(keys[:1], cluster.partitioner),
           rmw_op(keys[1:], cluster.partitioner),
           rmw_op(keys, cluster.partitioner)]
    for i in range(300):
        assert submit_and_wait(cluster, client, ops[i % 3]).committed
        for replica in all_replicas(cluster):
            rows = replica.engine.client_table.get(address, {})
            assert len(rows) <= client.node.inflight + 1
    drive(cluster, 0.02)      # followers execute through commit_upto
    for replica in all_replicas(cluster):
        assert len(replica.engine.client_table.get(address, {})) <= 1
        assert replica.engine.client_floors[address] >= 299


@pytest.mark.parametrize("shards", [(0,), (0, 1)],
                         ids=["single-shard", "two-shard"])
def test_stale_retransmission_below_the_floor_is_logged_not_executed(shards):
    from repro.harness.checkers import run_all_checks

    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    sent = spy_requests(client.node)
    op = rmw_op(keys_on_shards(cluster.partitioner, shards),
                cluster.partitioner)
    for _ in range(5):
        assert submit_and_wait(cluster, client, op).committed
    drive(cluster, 0.02)
    stale = sent[0]
    participants = [r for shard in shards for r in cluster.replicas[shard]]
    for replica in participants:
        assert replica.engine.cached_reply(stale.txn_id) is None  # pruned
    before = {r.address: executed_state(r) for r in participants}
    logged = {r.address: r.log.last_index for r in participants}

    client.node.send_groupcast(stale.participants,
                               IndependentTxnRequest(stale))
    drive(cluster, 0.02)
    for replica in participants:
        assert replica.log.last_index == logged[replica.address] + 1
        assert logged_txn_ids(replica)[-1] == stale.txn_id
        assert replica.fed_index == replica.log.last_index
        assert executed_state(replica) == before[replica.address]
    run_all_checks(cluster)


def test_adopt_log_replay_rebuilds_the_same_table():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    other = cluster.make_client()
    for i in range(CANDIDATE_SPACING + 12):
        submit_and_wait(cluster, client if i % 3 else other,
                        rmw_op([i % 4], cluster.partitioner))
    drive(cluster, 0.02)
    replicas = cluster.replicas[0]
    dl = next(r for r in replicas if r.is_dl)
    expected = executed_state(dl)
    assert all(executed_state(r) == expected for r in replicas)
    assert dl.log.base > 0               # synced: the prefix is cut
    for i in range(3):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    expected = executed_state(dl)
    # A fed entry that the agreed log contradicts forces a replay from
    # the base's checkpoint.
    image = dl.log.image()
    dl.log._entries[0] = dl.log._entries[0].as_noop()
    dl._adopt_log(image)
    assert dl.fed_index == dl.log.last_index
    assert executed_state(dl) == expected


def test_abandoned_seq_pins_the_floor_at_every_replica():
    cluster = make_ycsb_cluster(n_shards=1)
    client = cluster.make_client()
    node = client.node
    node.max_retries = 1
    address = node.address
    op = rmw_op([0], cluster.partitioner)
    cluster.network.drop_filter = lambda pkt: pkt.src == address
    outcome = submit_and_wait(cluster, client, op)
    assert not outcome.committed and node.timedout_count == 1
    cluster.network.drop_filter = None
    for _ in range(4):
        assert submit_and_wait(cluster, client, op).committed
    drive(cluster, 0.02)
    for replica in cluster.replicas[0]:
        # Seq 1 never completed, so no later request lets it go.
        assert replica.engine.client_floors[address] == 1
        assert set(replica.engine.client_table[address]) == {2, 3, 4, 5}
