"""TPC-C on Eris under faults: the application-level workload must
survive packet loss and a DL failure with all invariants intact."""

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
from repro.workloads.tpcc import (
    TPCCConfig,
    TPCCWorkload,
    load_tpcc,
    register_tpcc_procedures,
    tpcc_partitioner,
)
from repro.workloads.tpcc.schema import (
    TPCCScale,
    district_key,
    warehouse_key,
)

SCALE = TPCCScale(n_warehouses=4, districts_per_warehouse=2,
                  customers_per_district=6, n_items=30)


def build(drop_rate=0.0, seed=3):
    registry = ProcedureRegistry()
    register_tpcc_procedures(registry)
    partitioner = tpcc_partitioner(2)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=seed,
                      net=NetConfig(drop_rate=drop_rate)),
        registry, partitioner,
        loader=lambda stores, p: load_tpcc(stores, p, SCALE))
    workload = TPCCWorkload(TPCCConfig(scale=SCALE), partitioner,
                            SplitRandom(seed + 1))
    return cluster, workload


def money_is_consistent(cluster) -> None:
    """District YTDs sum to their warehouse's ytd delta (every payment
    credits both by the same amount, atomically)."""
    part = cluster.partitioner
    for w in range(SCALE.n_warehouses):
        store = cluster.authoritative_store(part.shard_of(warehouse_key(w)))
        warehouse_delta = store.get(warehouse_key(w))["ytd"] - 300_000.0
        district_delta = sum(
            store.get(district_key(w, d))["ytd"] - 30_000.0
            for d in range(SCALE.districts_per_warehouse))
        assert warehouse_delta == pytest.approx(district_delta)


def test_tpcc_money_consistency_clean_run():
    cluster, workload = build()
    run_experiment(cluster, workload, ExperimentConfig(
        n_clients=10, warmup=2e-3, duration=15e-3, drain=20e-3))
    run_all_checks(cluster)
    money_is_consistent(cluster)


def test_tpcc_survives_packet_loss():
    cluster, workload = build(drop_rate=0.01)
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=10, warmup=2e-3, duration=20e-3, drain=60e-3))
    assert result.committed > 0
    cluster.set_drop_rate(0.0)
    cluster.loop.run(until=cluster.loop.now + 0.1)
    run_all_checks(cluster)
    money_is_consistent(cluster)


def test_tpcc_survives_dl_failure():
    cluster, workload = build()
    cluster.loop.schedule(10e-3, cluster.crash_replica, 0, 0)
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=10, warmup=2e-3, duration=60e-3, drain=200e-3))
    assert result.committed > 0
    run_all_checks(cluster)
    money_is_consistent(cluster)
    new_dl = next(r for r in cluster.replicas[0]
                  if not r.crashed and r.is_dl)
    assert new_dl.view_num >= 1
    # The crashed old DL still believes it leads view 0; the money
    # check above must have read the live new DL's store.
    assert cluster.authoritative_store(0) is new_dl.store
