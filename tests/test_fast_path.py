"""The coordination-free read fast path, end to end and adversarially.

End-to-end: a traced counters run really serves fast reads and still
passes every §6.7 checker — state- and trace-backed — including under
packet drops; nothing turns the path on but the first read, so a
workload without reads never tracks, and Eris-OUM never serves one.

Adversarially: forged traces in which a read was served while a
conflicting write was in flight are caught by the dedicated trace
checker."""

import pytest

from conftest import drive, make_ycsb_cluster, submit_and_wait
from repro.core.replica import ErisConfig
from repro.errors import InvariantViolation
from repro.harness import ClusterConfig, build_cluster
from repro.harness.checkers import (
    check_trace_fast_reads,
    run_all_checks,
    run_trace_checks,
)
from repro.net.network import NetConfig
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import (
    CountersConfig,
    CountersWorkload,
    Partitioner,
    YCSBConfig,
    YCSBWorkload,
    load_counters,
    register_counters_procedures,
)

N_KEYS = 1000


FAST_CADENCE = ErisConfig(sync_interval=0.4e-3, watermark_interval=0.1e-3)


def _run_counters_cluster(n_ops: int = 400, n_clients: int = 8,
                          drop_rate: float = 0.0, seed: int = 3,
                          system: str = "eris",
                          eris: ErisConfig = FAST_CADENCE):
    """A small traced counters run. By default the sync and watermark
    cadences are tightened so non-DL execution watermarks reach the
    sequencer well within the run (fast reads need all-replica
    coverage)."""
    registry = ProcedureRegistry()
    register_counters_procedures(registry)
    partitioner = Partitioner(2)
    config = ClusterConfig(
        system=system, n_shards=2, seed=seed, tracing=True, eris=eris,
        net=NetConfig(drop_rate=drop_rate))
    cluster = build_cluster(
        config, registry, partitioner,
        loader=lambda stores, p: load_counters(stores, p, N_KEYS))
    workload = CountersWorkload(
        CountersConfig(n_keys=N_KEYS, multi_shard_fraction=0.2),
        partitioner, SplitRandom(seed))
    done = []
    remaining = [n_ops]

    def issue(client):
        def finish(result, c=client):
            done.append(result)
            remaining[0] -= 1
            if remaining[0] > 0:
                issue(c)
        client.submit(workload.next_op(), finish)

    clients = [cluster.make_client() for _ in range(n_clients)]
    for client in clients:
        issue(client)
    cluster.loop.run(until=0.2)
    assert len(done) >= n_ops and all(r.committed for r in done)
    return cluster, clients


# -- end to end -------------------------------------------------------------

def test_fast_paths_taken_and_checks_pass(tmp_path):
    cluster, clients = _run_counters_cluster()
    sequencer = cluster.sequencers[0]
    served = sum(replica.fast_reads_served
                 for replicas in cluster.replicas.values()
                 for replica in replicas)
    assert sequencer.fast_reads > 0
    assert served == sequencer.fast_reads
    assert sum(c.node.fast_read_count for c in clients) == sequencer.fast_reads
    assert cluster.tracer.count("fast_read") == sequencer.fast_reads
    # Live checkers and the exported-JSONL path both pass.
    run_all_checks(cluster)
    path = str(tmp_path / "trace.jsonl")
    cluster.tracer.export(path)
    run_trace_checks(path)


def test_fast_paths_survive_packet_drops():
    cluster, _ = _run_counters_cluster(drop_rate=0.01)
    assert cluster.sequencers[0].fast_reads > 0
    run_all_checks(cluster)


def test_default_config_serves_fast_reads():
    """No setting turns the path on: the stock protocol cadence serves
    fast reads as soon as the workload reads."""
    cluster, clients = _run_counters_cluster(eris=ErisConfig())
    sequencer = cluster.sequencers[0]
    assert sequencer.tracking and sequencer.fast_reads > 0
    assert sum(c.node.fast_read_count for c in clients) == sequencer.fast_reads
    run_all_checks(cluster)


def test_no_reads_no_tracking():
    """A YCSB run never logs a READ_ONLY transaction: no replica starts
    its watermark reports and the sequencer never tracks."""
    cluster = make_ycsb_cluster(n_shards=2)
    client = cluster.make_client()
    workload = YCSBWorkload(
        YCSBConfig(workload="mrmw", n_keys=200, distributed_fraction=0.5),
        cluster.partitioner, SplitRandom(1))
    for _ in range(10):
        assert submit_and_wait(cluster, client, workload.next_op()).committed
    drive(cluster, 20e-3)
    sequencer = cluster.sequencers[0]
    assert sequencer.packets_stamped >= 10
    assert not sequencer.tracking
    assert sequencer.watermarks_absorbed == 0
    assert not sequencer._dirty and not sequencer._blind_high
    assert all(replica._watermark_timer is None
               for replicas in cluster.replicas.values()
               for replica in replicas)


def test_oum_never_serves_fast_reads():
    cluster, clients = _run_counters_cluster(system="eris-oum")
    sequencer = cluster.sequencers[0]
    assert sequencer.fast_reads == 0 and not sequencer.tracking
    assert sequencer.watermarks_absorbed == 0
    assert sum(c.node.fast_read_count for c in clients) == 0
    assert cluster.tracer.count("fast_read") == 0


# -- forged traces ----------------------------------------------------------

def _stamp(seq, txn, op_class, write_keys=None, group=0, ts=0.0):
    event = {"ts": ts, "kind": "stamp", "node": "seq", "cause": -1,
             "epoch": 1, "stamps": [[group, seq]], "txn": txn,
             "op_class": op_class}
    if write_keys is not None:
        event["write_keys"] = [repr(k) for k in write_keys]
    return event


def _apply(node, seq, txn, group=0, ts=0.0):
    return {"ts": ts, "kind": "apply", "node": node, "cause": -1,
            "shard": group, "index": seq, "entry_kind": "txn",
            "slot": [group, 1, seq], "txn": txn}


def _fast_read(keys, txn="c:9", group=0, ts=1.0):
    return {"ts": ts, "kind": "fast_read", "node": "seq", "cause": -1,
            "txn": txn, "shard": group, "keys": [repr(k) for k in keys],
            "replica": "r0.0"}


REPLICAS = ("r0.0", "r0.1", "r0.2")


def test_forged_dirty_fast_read_caught():
    # The write at seq 2 touches key 5 and has been applied by only two
    # of the shard's three replicas when the read on key 5 is served.
    trace = [
        _stamp(2, "c:1", "generic", write_keys=[5]),
        _apply("r0.0", 2, "c:1", ts=0.1),
        _apply("r0.1", 2, "c:1", ts=0.2),
        _apply("r0.2", 1, "c:0", ts=0.3),    # member, but lagging
        _fast_read([5]),
    ]
    with pytest.raises(InvariantViolation, match="dirty fast read"):
        check_trace_fast_reads(trace)
    with pytest.raises(InvariantViolation):
        run_trace_checks(trace)


def test_forged_blind_write_poisons_every_key():
    # An undeclared write set means *any* fast read on the shard is
    # dirty until the write is applied everywhere — even on disjoint
    # keys.
    trace = [
        _stamp(2, "c:1", "generic"),          # no write_keys: blind
        _apply("r0.0", 2, "c:1", ts=0.1),
        _apply("r0.1", 2, "c:1", ts=0.2),
        _apply("r0.2", 1, "c:0", ts=0.3),
        _fast_read([999]),
    ]
    with pytest.raises(InvariantViolation, match="blind"):
        check_trace_fast_reads(trace)


def test_covered_write_allows_fast_read():
    # Same shape, but every replica applied the write first: clean.
    trace = [
        _stamp(2, "c:1", "generic", write_keys=[5]),
        *[_apply(node, 2, "c:1", ts=0.1) for node in REPLICAS],
        _fast_read([5]),
    ]
    check_trace_fast_reads(trace)             # no violation
    run_trace_checks(trace)


def test_crashed_replica_does_not_block_coverage():
    trace = [
        _stamp(2, "c:1", "generic", write_keys=[5]),
        _apply("r0.0", 2, "c:1", ts=0.1),
        _apply("r0.1", 2, "c:1", ts=0.2),
        _apply("r0.2", 1, "c:0", ts=0.3),
        {"ts": 0.4, "kind": "crash", "node": "r0.2", "cause": -1},
        _fast_read([5]),
    ]
    check_trace_fast_reads(trace)             # no violation
