"""Unit tests for the Eris client's quorum logic, driven with
hand-crafted TxnReply messages (no replicas)."""

import dataclasses

import pytest

from repro.core.client import ErisClient
from repro.core.messages import TxnReply
from repro.net.network import NetConfig, Network
from repro.sim.event_loop import EventLoop


def build_client(n_replicas=3, shards=(0, 1)):
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    client = ErisClient("c", net, {s: n_replicas for s in shards},
                        retry_timeout=5e-3)
    return loop, client


def reply(txn_id, shard, idx, index=1, view=0, epoch=1, committed=True,
          result=None, n=3):
    return TxnReply(txn_id=txn_id, txn_index=index, view_num=view,
                    epoch_num=epoch, shard=shard, replica_index=idx,
                    is_dl=(idx == view % n), committed=committed,
                    result=result)


def submit(client, participants=(0,)):
    outcomes = []
    txn_id = client.submit("p", {}, participants, outcomes.append)
    return txn_id, outcomes


def test_quorum_needs_majority_including_dl():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    client.on_TxnReply("r1", reply(txn_id, 0, 1), None)
    client.on_TxnReply("r2", reply(txn_id, 0, 2), None)
    assert not outcomes          # majority but no DL
    client.on_TxnReply("r0", reply(txn_id, 0, 0, result="R"), None)
    assert outcomes and outcomes[0].committed
    assert outcomes[0].result[0] == "R"


def test_dl_alone_is_not_quorum():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    client.on_TxnReply("r0", reply(txn_id, 0, 0), None)
    assert not outcomes


def test_mismatched_indices_do_not_combine():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    client.on_TxnReply("r0", reply(txn_id, 0, 0, index=1), None)
    client.on_TxnReply("r1", reply(txn_id, 0, 1, index=2), None)
    assert not outcomes          # replies disagree on the log slot
    client.on_TxnReply("r2", reply(txn_id, 0, 2, index=1), None)
    assert outcomes              # r0 + r2 match (incl DL)


def test_mismatched_views_do_not_combine():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    client.on_TxnReply("r0", reply(txn_id, 0, 0, view=0), None)
    client.on_TxnReply("r1", reply(txn_id, 0, 1, view=1), None)
    client.on_TxnReply("r2", reply(txn_id, 0, 2, view=2), None)
    assert not outcomes


def test_quorum_in_later_view_accepted():
    """After a view change the DL is replica view%n; a quorum formed
    entirely in the new view must satisfy."""
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    client.on_TxnReply("r1", reply(txn_id, 0, 1, view=1), None)  # new DL
    client.on_TxnReply("r2", reply(txn_id, 0, 2, view=1), None)
    assert outcomes


def test_all_participants_must_reach_quorum():
    loop, client = build_client()
    txn_id, outcomes = submit(client, participants=(0, 1))
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_id, 0, idx), None)
    assert not outcomes          # shard 1 still missing
    for idx in range(3):
        client.on_TxnReply(f"s{idx}", reply(txn_id, 1, idx), None)
    assert outcomes


def test_any_shard_abort_vote_marks_uncommitted():
    loop, client = build_client()
    txn_id, outcomes = submit(client, participants=(0, 1))
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_id, 0, idx), None)
    for idx in range(3):
        client.on_TxnReply(f"s{idx}",
                           reply(txn_id, 1, idx, committed=False), None)
    assert outcomes and not outcomes[0].committed


def test_duplicate_replies_ignored():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    message = reply(txn_id, 0, 0)
    client.on_TxnReply("r0", message, None)
    client.on_TxnReply("r0", message, None)
    assert not outcomes          # one replica cannot vote twice


def test_replies_for_unknown_txn_ignored():
    loop, client = build_client()
    from repro.core.transaction import TxnId
    client.on_TxnReply("r0", reply(TxnId("c", 999), 0, 0), None)
    assert client.inflight == 0


def test_retry_timer_retransmits_until_exhausted():
    loop, client = build_client()
    client.max_retries = 3
    outcomes = []
    client.submit("p", {}, (0,), outcomes.append)
    sent_before = client.runtime.packets_sent
    loop.run(until=0.1)
    assert client.runtime.packets_sent > sent_before   # retransmissions
    assert outcomes and not outcomes[0].committed      # gave up
    assert outcomes[0].retries == 4
    assert client.inflight == 0


def test_late_replies_after_completion_ignored():
    loop, client = build_client()
    txn_id, outcomes = submit(client)
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_id, 0, idx), None)
    assert len(outcomes) == 1
    client.on_TxnReply("r1", reply(txn_id, 0, 1), None)
    assert len(outcomes) == 1


def test_committed_and_aborted_counters():
    loop, client = build_client()
    txn_id, _ = submit(client)
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_id, 0, idx), None)
    txn_id2, _ = submit(client)
    for idx in range(3):
        client.on_TxnReply(f"r{idx}",
                           reply(txn_id2, 0, idx, committed=False), None)
    assert client.committed_count == 1
    assert client.aborted_count == 1


def test_retry_exhaustion_counts_toward_completion_invariant():
    """Regression: a give-up after max_retries used to complete the
    submission without touching any counter, so committed + aborted no
    longer matched the number of finished submissions."""
    loop, client = build_client()
    client.max_retries = 3
    completions = []
    # One transaction that times out (no replicas exist to reply)...
    client.submit("p", {}, (0,), completions.append)
    # ...and one that commits, one that aborts, via hand-fed replies.
    txn_commit, _ = submit(client)
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_commit, 0, idx), None)
    txn_abort, _ = submit(client)
    for idx in range(3):
        client.on_TxnReply(f"r{idx}",
                           reply(txn_abort, 0, idx, committed=False), None)
    loop.run(until=0.1)
    assert completions and not completions[0].committed
    assert client.timedout_count == 1
    assert client.committed_count == 1
    assert client.aborted_count == 1
    # The invariant the harness failure-rate stats rely on:
    completed = 1 + 2                  # timed out + the two hand-fed
    assert (client.committed_count + client.aborted_count
            + client.timedout_count) == completed
    assert client.inflight == 0


# -- the §6.1 completion floor ---------------------------------------------

def complete(client, txn_id):
    for idx in range(3):
        client.on_TxnReply(f"r{idx}", reply(txn_id, 0, idx), None)


def test_request_carries_the_lowest_incomplete_seq_as_its_floor():
    loop, client = build_client()
    first, _ = submit(client)
    assert client._pending[first].txn.floor == 1
    second, _ = submit(client)           # seq 1 still outstanding
    assert client._pending[second].txn.floor == 1
    assert client._pending[second].txn.floor_gap == 1
    complete(client, first)
    third, _ = submit(client)            # 2 outstanding, 1 done
    assert client._pending[third].txn.floor == 2
    complete(client, second)
    complete(client, third)
    fourth, _ = submit(client)           # closed loop: the gap is 0
    assert client._pending[fourth].txn.floor_gap == 0


def test_abandoned_seq_holds_the_floor_for_good():
    loop, client = build_client()
    client.max_retries = 1
    client.submit("p", {}, (0,), lambda outcome: None)
    loop.run(until=0.1)
    assert client.timedout_count == 1
    for _ in range(3):
        txn_id, _ = submit(client)
        assert client._pending[txn_id].txn.floor == 1
        complete(client, txn_id)


def test_request_relays_each_new_stable_point_once():
    """A DL's reply to a multi-shard transaction names its shard's
    stable point; the client's next request relays each new one, once
    (DESIGN.md, "Bounded replica logs")."""
    loop, client = build_client()
    sent = []
    client.send_groupcast = \
        lambda groups, message, **header: sent.append(message)
    txn_id, _ = submit(client, participants=(0, 1))
    for shard in (0, 1):
        dl_reply = dataclasses.replace(reply(txn_id, shard, 0), stable=7)
        client.on_TxnReply("r0", dl_reply, None)
        client.on_TxnReply("r0", dl_reply, None)      # nothing new
    for _ in range(2):
        submit(client, participants=(0, 1))
    assert [message.stable for message in sent] == \
        [None, (0, 1, 7, 1, 1, 7), None]


# -- reconnaissance reads (§7.1) -------------------------------------------

def test_recon_replies_keyed_by_replica_not_just_key():
    """Concurrent recon reads of the same key from different replicas
    must resolve independently: the reply from r0 must not release the
    waiter that asked r1 (whose copy may be stale)."""
    from repro.core.messages import ReconReply

    loop, client = build_client()
    got = []
    client.recon("r0", "k", lambda key, value: got.append(("r0", value)))
    client.recon("r1", "k", lambda key, value: got.append(("r1", value)))
    client.on_ReconReply("r0", ReconReply(key="k", value="fresh"), None)
    assert got == [("r0", "fresh")]          # r1's waiter still pending
    client.on_ReconReply("r1", ReconReply(key="k", value="stale"), None)
    assert got == [("r0", "fresh"), ("r1", "stale")]


def test_recon_waiters_for_same_replica_and_key_coalesce():
    from repro.core.messages import ReconReply

    loop, client = build_client()
    got = []
    client.recon("r0", "k", lambda key, value: got.append(1))
    client.recon("r0", "k", lambda key, value: got.append(2))
    assert client.runtime.packets_sent == 1  # one outstanding read
    client.on_ReconReply("r0", ReconReply(key="k", value="v"), None)
    assert got == [1, 2]


def test_recon_retransmits_after_dropped_reply():
    """A dropped ReconReply must not strand the waiter forever: the
    read retransmits on the retry timeout and the late reply lands."""
    loop, client = build_client()
    got = []
    client.recon("r0", 7, lambda key, value: got.append((key, value)))
    sent_before = client.runtime.packets_sent
    loop.run(until=3 * client.retry_timeout)
    assert client.runtime.packets_sent > sent_before  # retransmissions
    assert got == []                                  # still waiting
    from repro.core.messages import ReconReply
    client.on_ReconReply("r0", ReconReply(key=7, value="late"), None)
    assert got == [(7, "late")]
    # Timer is stopped: no further retransmissions accumulate.
    sent_after = client.runtime.packets_sent
    loop.run(until=loop.now + 10 * client.retry_timeout)
    assert client.runtime.packets_sent == sent_after


def test_recon_gives_up_with_none_after_max_retries():
    loop, client = build_client()
    client.max_retries = 3
    got = []
    client.recon("dead-replica", "k", lambda key, value: got.append(value))
    loop.run(until=1.0)
    assert got == [None]
    assert client.retry_count == 4
