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

from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.harness.checkers import run_all_checks
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
