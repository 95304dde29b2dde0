"""Tests for the harness: cluster building, experiments, checkers,
faults, results — plus TPC-C end-to-end on Eris and a baseline."""

import pytest

from repro.errors import ConfigurationError, InvariantViolation
from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    format_table,
    run_experiment,
)
from repro.harness.checkers import run_all_checks
from repro.harness.faults import FaultPlan
from repro.harness.results import speedup
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import (
    Partitioner,
    YCSBConfig,
    YCSBWorkload,
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

from conftest import make_ycsb_cluster


def test_unknown_system_rejected():
    with pytest.raises(ConfigurationError):
        ClusterConfig(system="mystery").validate()


def test_cluster_builds_all_systems():
    for system in ("eris", "eris-oum", "granola", "tapir", "lockstore",
                   "ntur"):
        cluster = make_ycsb_cluster(system=system)
        expected = 1 if system == "ntur" else 3
        assert all(len(reps) == expected
                   for reps in cluster.replicas.values())


def test_build_cluster_leaves_the_callers_eris_config_alone():
    """Regression: the builder wrote ``execution_cost`` (and the OUM and
    fast-path flags) into the caller's ``ErisConfig``, which the first
    cluster's live replicas still shared, so building a second cluster
    from it re-priced the first one's execution."""
    import dataclasses

    from repro.core.replica import ErisConfig

    eris = ErisConfig()
    before = dataclasses.asdict(eris)
    first = make_ycsb_cluster(execution_cost=1e-6, eris=eris)
    second = make_ycsb_cluster(system="eris-oum", execution_cost=9e-6,
                               eris=eris)
    assert dataclasses.asdict(eris) == before
    for cluster, cost, oum in ((first, 1e-6, False), (second, 9e-6, True)):
        for replicas in cluster.replicas.values():
            for replica in replicas:
                assert replica.config.execution_cost == cost
                assert replica.config.oum_mode is oum


def test_eris_roles_are_built_in_topology_order():
    """The in-process build is one loop over ``topology_roles``; the
    OUM ablation has no controller role and routes straight to seq0."""
    from repro.harness.topology import eris_topology, topology_roles

    eris = make_ycsb_cluster()
    roles = topology_roles(eris_topology(eris.config))
    assert roles[:3] == ["seq:0", "seq:1", "fc"]
    assert roles[3] == "controller" and roles[4] == "replica:0:0"
    assert [s.address for s in eris.sequencers] == ["seq0", "seq1"]
    assert eris.controller.active_address == "seq0"
    oum = make_ycsb_cluster(system="eris-oum")
    assert "controller" not in topology_roles(eris_topology(oum.config))
    assert oum.controller is None
    assert oum.runtime.sequencer_address == "seq0"
    for cluster in (eris, oum):
        assert [[r.address for r in cluster.replicas[shard]]
                for shard in (0, 1)] == [
            [f"eris-r{shard}.{i}" for i in range(3)] for shard in (0, 1)]
        assert cluster.stores[0] == [r.store for r in cluster.replicas[0]]


def test_run_experiment_produces_sane_result():
    cluster = make_ycsb_cluster(n_keys=500)
    workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=500),
                            cluster.partitioner, SplitRandom(3))
    result = run_experiment(cluster, workload,
                            ExperimentConfig(n_clients=10, warmup=2e-3,
                                             duration=10e-3, drain=5e-3))
    assert result.throughput > 0
    assert result.committed > 50
    assert 0 < result.mean_latency < result.p99_latency
    assert result.aborted == 0
    run_all_checks(cluster)


def test_count_filter_restricts_throughput():
    cluster = make_ycsb_cluster(n_keys=500)
    workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=500),
                            cluster.partitioner, SplitRandom(3))
    result = run_experiment(
        cluster, workload,
        ExperimentConfig(n_clients=10, warmup=2e-3, duration=10e-3,
                         drain=5e-3,
                         count_filter=lambda op: op.proc == "ycsb_read"))
    assert 0 < result.committed


def test_experiment_timeseries():
    cluster = make_ycsb_cluster(n_keys=200)
    workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=200),
                            cluster.partitioner, SplitRandom(3))
    result = run_experiment(cluster, workload,
                            ExperimentConfig(n_clients=5, warmup=2e-3,
                                             duration=10e-3, drain=2e-3,
                                             timeseries_bucket=2e-3))
    assert len(result.timeseries) >= 4
    assert any(rate > 0 for _, rate in result.timeseries)


def test_fault_plan_logs_actions():
    cluster = make_ycsb_cluster()
    plan = FaultPlan(cluster)
    plan.set_drop_rate_at(1e-3, 0.5).kill_replica_at(2e-3, 0, 2)
    cluster.loop.run(until=5e-3)
    labels = [label for _, label in plan.injected]
    assert labels == ["drop_rate=0.5", "replica-killed shard=0 index=2"]
    assert cluster.network.config.drop_rate == 0.5
    assert cluster.replicas[0][2].crashed


def test_checker_detects_injected_divergence():
    cluster = make_ycsb_cluster()
    client = cluster.make_client()
    from repro.baselines.common import WorkloadOp
    done = []
    client.submit(WorkloadOp(proc="ycsb_rmw", args={"keys": (0,)},
                             participants=(0,),
                             read_keys=frozenset([0]),
                             write_keys=frozenset([0])), done.append)
    cluster.loop.run(until=1e-3)      # committed, not yet cut
    assert done and done[0].committed
    # Tamper with one replica's log: checker must notice.
    from repro.core.transaction import SlotId
    replica = cluster.replicas[0][1]
    replica.log.overwrite_noop(1)
    with pytest.raises(InvariantViolation):
        run_all_checks(cluster)


def test_format_table_and_speedup():
    table = format_table(["system", "tput"],
                         [["eris", 1_260_000.0], ["lockstore", 280_000.0]],
                         title="Fig 6")
    assert "Fig 6" in table
    assert "1,260,000" in table
    assert speedup(4.5, 1.0) == "4.50x"
    assert speedup(1.0, 0.0) == "inf"


SMALL_TPCC = TPCCScale(n_warehouses=4, districts_per_warehouse=2,
                       customers_per_district=5, n_items=30)


def tpcc_cluster(system, n_shards=2):
    registry = ProcedureRegistry()
    register_tpcc_procedures(registry)
    partitioner = tpcc_partitioner(n_shards)
    config = ClusterConfig(system=system, n_shards=n_shards, seed=11)
    return build_cluster(
        config, registry, partitioner,
        loader=lambda stores, p: load_tpcc(stores, p, SMALL_TPCC))


@pytest.mark.parametrize("system", ["eris", "ntur", "lockstore",
                                    "granola", "tapir"])
def test_tpcc_runs_end_to_end(system):
    cluster = tpcc_cluster(system)
    workload = TPCCWorkload(TPCCConfig(scale=SMALL_TPCC),
                            cluster.partitioner, SplitRandom(4))
    result = run_experiment(
        cluster, workload,
        ExperimentConfig(n_clients=8, warmup=3e-3, duration=15e-3,
                         drain=10e-3,
                         count_filter=lambda op:
                         op.proc == "tpcc_new_order"))
    assert result.committed > 10      # new-order commits measured
    # 1% invalid-item aborts are expected; anything more means breakage.
    assert result.aborted < result.committed


def test_tpcc_eris_preserves_invariants():
    cluster = tpcc_cluster("eris")
    workload = TPCCWorkload(TPCCConfig(scale=SMALL_TPCC),
                            cluster.partitioner, SplitRandom(4))
    run_experiment(cluster, workload,
                   ExperimentConfig(n_clients=6, warmup=3e-3,
                                    duration=15e-3, drain=20e-3))
    run_all_checks(cluster)
    # Money conservation: every payment debits a customer and credits
    # warehouse+district YTD by the same amount.
    total_wh_ytd = sum(
        cluster.authoritative_store(s).get(("warehouse", w))["ytd"]
        for w in range(SMALL_TPCC.n_warehouses)
        for s in [cluster.partitioner.shard_of(("warehouse", w))])
    assert total_wh_ytd >= SMALL_TPCC.n_warehouses * 300_000.0
