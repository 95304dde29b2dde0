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


# -- chain-sequencer invariants (trace-backed) -----------------------------

from repro.harness.checkers import (
    check_trace_chain_gapless_logs,
    check_trace_chain_no_stale_release,
    check_trace_chain_stamp_monotonicity,
    run_trace_checks,
)


def release(ts, node, version, stamps, epoch=1):
    return {"ts": ts, "kind": "chain_release", "node": node, "cause": -1,
            "epoch": epoch, "version": version,
            "stamps": [list(s) for s in stamps]}


def repair(ts, version, members, epoch=1):
    return {"ts": ts, "kind": "chain_repair", "node": "controller",
            "cause": -1, "version": version, "members": members,
            "epoch": epoch}


def append(ts, node, shard, index, seq, txn, epoch=1):
    return {"ts": ts, "kind": "log_append", "node": node, "cause": -1,
            "shard": shard, "index": index, "entry_kind": "txn",
            "slot": [shard, epoch, seq], "txn": txn,
            "participants": [shard]}


def test_chain_monotonicity_fires_on_forged_duplicate_release():
    trace = [release(1e-3, "chain1", 1, [(0, 1)]),
             release(2e-3, "chain1", 1, [(0, 2)]),
             release(3e-3, "chain1", 1, [(0, 2)])]     # forged duplicate
    with pytest.raises(InvariantViolation, match="released twice"):
        check_trace_chain_stamp_monotonicity(trace)


def test_chain_monotonicity_fires_on_regression_across_repair():
    # Version 1 released up to seq 5; the repaired chain (version 2)
    # re-assigns seq 3 — the counter merge must have been lost.
    trace = [release(1e-3, "chain2", 1, [(0, 5)]),
             repair(2e-3, 2, ["chain0", "chain1"]),
             release(3e-3, "chain1", 2, [(0, 3)])]
    with pytest.raises(InvariantViolation, match="regression across repair"):
        check_trace_chain_stamp_monotonicity(trace)


def test_chain_monotonicity_accepts_reordered_releases_within_version():
    """Non-FIFO links can invert release order inside one incarnation;
    receivers reorder by the stamp, so this must NOT fire."""
    trace = [release(1e-3, "chain2", 1, [(0, 2)]),
             release(2e-3, "chain2", 1, [(0, 1)]),
             release(3e-3, "chain2", 1, [(1, 1)])]
    check_trace_chain_stamp_monotonicity(trace)


def test_stale_release_checker_fires_after_repair():
    # A spliced-out tail keeps serving version-1 stamps after the
    # controller installed version 2.
    trace = [release(1e-3, "chain2", 1, [(0, 1)]),
             repair(2e-3, 2, ["chain0", "chain1"]),
             release(3e-3, "chain2", 1, [(0, 2)])]     # stale tail
    with pytest.raises(InvariantViolation, match="stale-tail release"):
        check_trace_chain_no_stale_release(trace)


def test_stale_release_checker_accepts_releases_before_repair():
    trace = [release(1e-3, "chain2", 1, [(0, 1)]),
             release(2e-3, "chain2", 1, [(0, 2)]),
             repair(3e-3, 2, ["chain0", "chain1"]),
             release(4e-3, "chain1", 2, [(0, 3)])]
    check_trace_chain_no_stale_release(trace)


def test_gapless_checker_fires_on_skipped_sequence():
    trace = [repair(0.5e-3, 2, ["chain0"]),            # marks a chain trace
             append(1e-3, "eris-r0.0", 0, 1, 1, "c:1"),
             append(2e-3, "eris-r0.0", 0, 2, 2, "c:2"),
             append(3e-3, "eris-r0.0", 0, 3, 4, "c:4")]  # seq 3 skipped
    with pytest.raises(InvariantViolation, match="skipped sequence"):
        check_trace_chain_gapless_logs(trace)


def test_gapless_checker_fires_on_duplicate_sequence():
    trace = [repair(0.5e-3, 2, ["chain0"]),
             append(1e-3, "eris-r0.0", 0, 1, 1, "c:1"),
             append(2e-3, "eris-r0.0", 0, 2, 1, "c:1r")]  # seq 1 twice
    with pytest.raises(InvariantViolation, match="duplicate sequence"):
        check_trace_chain_gapless_logs(trace)


def test_gapless_checker_is_vacuous_without_chain_events():
    """The chain invariants are gated on chain traffic: a plain Eris
    trace with the same gap must not fire (its gaps are judged by the
    existing §6.7 checkers, not the chain ones)."""
    trace = [append(1e-3, "eris-r0.0", 0, 1, 1, "c:1"),
             append(2e-3, "eris-r0.0", 0, 2, 4, "c:4")]
    check_trace_chain_gapless_logs(trace)


def test_chain_checkers_accept_a_clean_chain_trace():
    trace = [release(1e-3, "chain2", 1, [(0, 1), (1, 1)]),
             append(1.2e-3, "eris-r0.0", 0, 1, 1, "c:1"),
             append(1.2e-3, "eris-r1.0", 1, 1, 1, "c:1"),
             repair(2e-3, 2, ["chain0", "chain1"]),
             release(3e-3, "chain1", 2, [(0, 2)]),
             append(3.2e-3, "eris-r0.0", 0, 2, 2, "c:2")]
    run_trace_checks(trace)
