"""Every workload generator over the paranoid codec.

With ``NetConfig(paranoid_codec=True)`` every delivered packet crosses
the wire codec and each recipient gets its own decoded copy, as over
real sockets. A generator whose ops carry a value the codec cannot
carry, a handler that mutates a received message, or a decoded hot
type that lost a field or a validator would fail here, with the §6.7
checkers reading the decoded logs.
"""

from __future__ import annotations

import pytest

from conftest import drive, submit_and_wait
from repro.baselines.common import WorkloadOp
from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.harness.checkers import run_all_checks
from repro.net.controller import ControllerConfig
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
    register_ycsb_procedures,
)
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    load_tpcc,
    register_tpcc_procedures,
    tpcc_partitioner,
)
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import load_ycsb


def ycsb_mrmw(rng):
    partitioner = Partitioner(2)
    return (register_ycsb_procedures, partitioner,
            lambda stores, p: load_ycsb(stores, p, 500),
            YCSBWorkload(YCSBConfig(workload="mrmw", n_keys=500,
                                    distributed_fraction=1.0),
                         partitioner, rng))


def counters(rng):
    partitioner = Partitioner(2)
    return (register_counters_procedures, partitioner,
            lambda stores, p: load_counters(stores, p, 200),
            CountersWorkload(CountersConfig(n_keys=200,
                                            multi_shard_fraction=0.2),
                             partitioner, rng))


def tpcc(rng):
    scale = TPCCScale(n_warehouses=4, districts_per_warehouse=2,
                      customers_per_district=5, n_items=20)
    partitioner = tpcc_partitioner(2)
    return (register_tpcc_procedures, partitioner,
            lambda stores, p: load_tpcc(stores, p, scale),
            TPCCWorkload(TPCCConfig(scale=scale, remote_fraction=0.5),
                         partitioner, rng))


@pytest.mark.parametrize("generator", [ycsb_mrmw, counters, tpcc],
                         ids=lambda generator: generator.__name__)
def test_generator_runs_clean_over_the_paranoid_codec(generator):
    register, partitioner, loader, workload = generator(SplitRandom(11))
    registry = ProcedureRegistry()
    register(registry)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=5,
                      net=NetConfig(paranoid_codec=True)),
        registry, partitioner, loader=loader)
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=8, warmup=1e-3, duration=5e-3, drain=5e-3))
    assert result.committed > 50
    run_all_checks(cluster)
    for replicas in cluster.replicas.values():
        for replica in replicas:
            txns = [entry.record.txn for entry in replica.log
                    if entry.kind == "txn"]
            assert txns
            # Every logged request crossed the wire with its completion
            # floor, and the §6.1 table kept only rows above it.
            assert all(txn.floor is not None for txn in txns)
            table = replica.engine.client_table
            assert sum(map(len, table.values())) <= 2 * len(table)


# -- protocol paths whose messages carry non-default field values ----------

def _paranoid_ycsb_cluster(**config):
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    return build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=5,
                      net=NetConfig(paranoid_codec=True), **config),
        registry, Partitioner(2),
        loader=lambda stores, p: load_ycsb(stores, p, 100))


def _rmw(keys, partitioner, **general):
    keys = frozenset(keys)
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(sorted(keys))},
                      participants=partitioner.participants_for(keys),
                      read_keys=keys, write_keys=keys, **general)


def test_general_transactions_cross_the_paranoid_codec():
    """§7's preliminary and conclusory halves carry a non-default
    ``kind``, and an aborted general transaction a ``committed=False``
    reply: both cross the codec and the checkers pass."""
    cluster = _paranoid_ycsb_cluster()
    part = cluster.partitioner
    client = cluster.make_client()
    submit_and_wait(cluster, client, _rmw([0, 1], part))
    swap = _rmw([0, 1], part, is_general=True,
                compute=lambda values: {0: values.get(1), 1: values.get(0)})
    assert submit_and_wait(cluster, client, swap).committed
    refuse = _rmw([0, 1], part, is_general=True,
                  compute=lambda values: None)
    assert not submit_and_wait(cluster, client, refuse).committed
    drive(cluster, 0.01)
    run_all_checks(cluster)
    kinds = {entry.record.txn.kind for replicas in cluster.replicas.values()
             for replica in replicas for entry in replica.log
             if entry.kind == "txn"}
    assert {"preliminary", "conclusory"} <= kinds


def test_view_change_crosses_the_paranoid_codec():
    """A §6.4 view change: ViewChange/StartView ship the log, drop sets
    and cut over the codec, and the new view keeps committing."""
    cluster = _paranoid_ycsb_cluster()
    part = cluster.partitioner
    client = cluster.make_client()
    for _ in range(4):
        submit_and_wait(cluster, client, _rmw([0], part))
    shard = part.shard_of(0)
    next(r for r in cluster.replicas[shard] if r.is_dl).crash()
    drive(cluster, 0.25)
    assert submit_and_wait(cluster, client, _rmw([0, 1], part),
                           timeout=1.0).committed
    live = [r for r in cluster.replicas[shard] if not r.crashed]
    assert all(r.view_num >= 1 for r in live)
    assert cluster.authoritative_store(shard).get(0) == 5
    run_all_checks(cluster)


def test_epoch_change_crosses_the_paranoid_codec():
    """A §6.5 epoch change after a sequencer failover: EpochState and
    StartEpoch ship logs over the codec and the new epoch commits."""
    cluster = _paranoid_ycsb_cluster(controller=ControllerConfig(
        ping_interval=3e-3, failure_threshold=2, reroute_delay=10e-3))
    part = cluster.partitioner
    client = cluster.make_client()
    for _ in range(4):
        submit_and_wait(cluster, client, _rmw([0, 1], part))
    cluster.crash_active_sequencer()
    drive(cluster, 0.3)
    assert submit_and_wait(cluster, client, _rmw([0, 1], part),
                           timeout=1.0).committed
    drive(cluster, 0.1)
    assert cluster.fc.epoch_changes_completed >= 1
    assert cluster.authoritative_store(part.shard_of(0)).get(0) == 5
    run_all_checks(cluster)
