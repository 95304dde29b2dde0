"""The correctness checkers must actually catch violations: feed them
hand-built inconsistent states and confirm they fire — from a live
cluster and from the snapshots a per-node worker ships alike."""

import pytest

from repro.core.log import ReplicaSnapshot
from repro.core.messages import TxnRecord
from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.errors import InvariantViolation
from repro.harness.checkers import (
    check_atomicity,
    check_replica_consistency,
    check_serializability,
)
from repro.net.message import MultiStamp
from repro.runtime.codec import decode_message, encode_message

from conftest import make_ycsb_cluster


def shipped(cluster):
    """The cluster's state as per-node workers ship it: one snapshot
    per replica, round-tripped through the wire codec."""
    return [decode_message(encode_message(ReplicaSnapshot.of(replica)))
            for replicas in cluster.replicas.values()
            for replica in replicas]


#: The two state forms every check must judge alike: the live cluster,
#: and its shipped snapshots.
STATE_FORMS = (lambda cluster: cluster, shipped)


def inject_txn(replica, seq, txn_id, participants, seqs_by_shard):
    """Append a fabricated transaction entry to a replica's log."""
    txn = IndependentTransaction(txn_id=txn_id, proc="ycsb_read",
                                 args={"key": 0},
                                 participants=participants)
    stamps = tuple(sorted(seqs_by_shard.items()))
    record = TxnRecord(txn=txn, multistamp=MultiStamp(1, stamps))
    replica.log.append_txn(SlotId(replica.shard, 1, seq), record)


def dl(cluster, shard):
    return next(r for r in cluster.replicas[shard] if r.is_dl)


def test_serializability_checker_finds_cross_shard_cycle():
    cluster = make_ycsb_cluster(n_shards=2)
    t1 = TxnId("cx", 1)
    t2 = TxnId("cy", 1)
    # Shard 0 orders t1 < t2; shard 1 orders t2 < t1: a cycle.
    inject_txn(dl(cluster, 0), 1, t1, (0, 1), {0: 1, 1: 2})
    inject_txn(dl(cluster, 0), 2, t2, (0, 1), {0: 2, 1: 1})
    inject_txn(dl(cluster, 1), 1, t2, (0, 1), {0: 2, 1: 1})
    inject_txn(dl(cluster, 1), 2, t1, (0, 1), {0: 1, 1: 2})
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation, match="cycle"):
            check_serializability(form(cluster))


def test_serializability_checker_accepts_consistent_orders():
    cluster = make_ycsb_cluster(n_shards=2)
    t1 = TxnId("cx", 1)
    t2 = TxnId("cy", 1)
    inject_txn(dl(cluster, 0), 1, t1, (0, 1), {0: 1, 1: 1})
    inject_txn(dl(cluster, 0), 2, t2, (0, 1), {0: 2, 1: 2})
    inject_txn(dl(cluster, 1), 1, t1, (0, 1), {0: 1, 1: 1})
    inject_txn(dl(cluster, 1), 2, t2, (0, 1), {0: 2, 1: 2})
    for form in STATE_FORMS:
        check_serializability(form(cluster))


def test_atomicity_checker_finds_missing_participant():
    cluster = make_ycsb_cluster(n_shards=2)
    ghost = TxnId("cz", 1)
    inject_txn(dl(cluster, 0), 1, ghost, (0, 1), {0: 1, 1: 1})
    # Shard 1 never logs it.
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation,
                           match="missing at participant"):
            check_atomicity(form(cluster))


def test_consistency_checker_finds_slot_divergence():
    cluster = make_ycsb_cluster(n_shards=1)
    t1 = TxnId("ca", 1)
    t2 = TxnId("cb", 1)
    inject_txn(dl(cluster, 0), 1, t1, (0,), {0: 1})
    other = next(r for r in cluster.replicas[0] if not r.is_dl)
    inject_txn(other, 2, t2, (0,), {0: 2})   # wrong slot at index 1
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation, match="divergence"):
            check_replica_consistency(form(cluster))


# -- violations wholly below a base -----------------------------------------
#
# The same violations, cut from the logs: the checkers must find them in
# the cut summaries.

def cut_all(*replicas):
    for replica in replicas:
        replica.log.cut(replica.log.last_index)


def test_serializability_checker_finds_a_cycle_below_the_base():
    cluster = make_ycsb_cluster(n_shards=2)
    t1 = TxnId("cx", 1)
    t2 = TxnId("cy", 1)
    inject_txn(dl(cluster, 0), 1, t1, (0, 1), {0: 1, 1: 2})
    inject_txn(dl(cluster, 0), 2, t2, (0, 1), {0: 2, 1: 1})
    inject_txn(dl(cluster, 1), 1, t2, (0, 1), {0: 2, 1: 1})
    inject_txn(dl(cluster, 1), 2, t1, (0, 1), {0: 1, 1: 2})
    cut_all(dl(cluster, 0), dl(cluster, 1))
    assert not list(dl(cluster, 0).log)
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation, match="cycle"):
            check_serializability(form(cluster))


def test_atomicity_checker_finds_a_missing_participant_below_the_base():
    cluster = make_ycsb_cluster(n_shards=2)
    inject_txn(dl(cluster, 0), 1, TxnId("cz", 1), (0, 1), {0: 1, 1: 1})
    inject_txn(dl(cluster, 0), 2, TxnId("cz", 2), (0,), {0: 2})
    cut_all(dl(cluster, 0))
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation,
                           match="missing at participant"):
            check_atomicity(form(cluster))


def test_consistency_checker_finds_divergence_below_the_base():
    cluster = make_ycsb_cluster(n_shards=1)
    leader = dl(cluster, 0)
    other, third = [r for r in cluster.replicas[0] if not r.is_dl]
    for replica in cluster.replicas[0]:
        inject_txn(replica, 1, TxnId("ca", 1), (0,), {0: 1})
    inject_txn(leader, 2, TxnId("cb", 1), (0,), {0: 2})
    inject_txn(third, 2, TxnId("cb", 1), (0,), {0: 2})
    other.log.append_noop(SlotId(0, 1, 2))     # txn-vs-NO-OP at index 2
    for replica in cluster.replicas[0]:
        inject_txn(replica, 3, TxnId("cc", 1), (0,), {0: 3})
    # Cut at the same base, and at different bases on either side.
    cut_all(leader, other)
    third.log.cut(1)
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation, match="divergence"):
            check_replica_consistency(form(cluster))
    # The DL cut shorter than the diverging replica: its digest rolls
    # over its own entry 2 up to the other's base.
    cluster = make_ycsb_cluster(n_shards=1)
    leader, other, third = sorted(cluster.replicas[0],
                                  key=lambda r: not r.is_dl)
    for replica in (leader, other, third):
        inject_txn(replica, 1, TxnId("ca", 1), (0,), {0: 1})
    inject_txn(leader, 2, TxnId("cb", 1), (0,), {0: 2})
    inject_txn(third, 2, TxnId("cb", 1), (0,), {0: 2})
    other.log.append_noop(SlotId(0, 1, 2))
    leader.log.cut(1)
    other.log.cut(2)
    for form in STATE_FORMS:
        with pytest.raises(InvariantViolation, match="prefix digest"):
            check_replica_consistency(form(cluster))


def test_checkers_accept_consistent_logs_cut_at_different_bases():
    cluster = make_ycsb_cluster(n_shards=2)
    for shard in (0, 1):
        for replica in cluster.replicas[shard]:
            inject_txn(replica, 1, TxnId("ca", 1), (0, 1), {0: 1, 1: 1})
            inject_txn(replica, 2, TxnId(f"c{shard}", 1), (shard,),
                       {shard: 2})
        for index, replica in enumerate(cluster.replicas[shard]):
            replica.log.cut(index)
    for form in STATE_FORMS:
        state = form(cluster)
        check_serializability(state)
        check_atomicity(state)
        check_replica_consistency(state)


def test_consistency_checker_finds_a_channel_ahead_of_the_log():
    """A normal replica whose channel expects a slot past the one after
    its last logged slot appends at the wrong index next (the §6.4
    adoption bug's signature)."""
    import dataclasses

    cluster = make_ycsb_cluster(n_shards=1)
    snaps = [ReplicaSnapshot.of(r) for r in cluster.replicas[0]]
    check_replica_consistency(snaps)
    snaps[1] = dataclasses.replace(snaps[1], channel=(1, 5))
    with pytest.raises(InvariantViolation, match="channel ahead of log"):
        check_replica_consistency(snaps)
    # Mid view change the channel may run ahead: not a violation.
    snaps[1] = dataclasses.replace(snaps[1], status="view-change")
    check_replica_consistency(snaps)


def test_missing_dl_names_every_live_replica_and_its_view():
    """A replica that reached a view whose DL has not yet: the
    violation must say which replica sits in which view."""
    import dataclasses

    cluster = make_ycsb_cluster(n_shards=1)
    snaps = [ReplicaSnapshot.of(r) for r in cluster.replicas[0]]
    snaps[2] = dataclasses.replace(snaps[2], view_num=1)
    with pytest.raises(InvariantViolation) as err:
        check_serializability(snaps)
    assert str(err.value) == (
        "shard 0 has no live DL in view 1: eris-r0.0 view 0 (DL), "
        "eris-r0.1 view 0, eris-r0.2 view 1")


def test_checkers_pass_on_fresh_cluster():
    cluster = make_ycsb_cluster(n_shards=2)
    for form in STATE_FORMS:
        state = form(cluster)
        check_serializability(state)
        check_atomicity(state)
        check_replica_consistency(state)
