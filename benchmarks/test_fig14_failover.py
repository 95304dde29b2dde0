"""Figure 14 — throughput timeline across a sequencer failover.

Paper: the sequencer is killed at t=0; the SDN controller detects the
failure, reroutes to a standby with a higher epoch, and the Eris epoch
change runs. Normal operation resumes after ~130 ms and full throughput
by ~300 ms; the outage length is dominated by detection + rerouting.
"""

import pytest

from bench_common import YCSBBench, print_paper_comparison, run_ycsb
from repro.harness.faults import FaultPlan
from repro.net.controller import ControllerConfig

KILL_AT = 40e-3
# Paper-style controller timing scaled down ~2x so the bench stays short:
# detection ~= 3 x 10ms pings, reroute 40ms -> ~70ms outage expected.
CONTROLLER = ControllerConfig(ping_interval=10e-3, failure_threshold=3,
                              reroute_delay=40e-3)


def test_fig14_sequencer_failover_timeline(benchmark):
    def run():
        from repro.harness import ExperimentConfig, build_cluster, \
            run_experiment
        from repro.harness.cluster import ClusterConfig
        from repro.sim.randomness import SplitRandom
        from repro.workloads import build_workload

        config = ClusterConfig(system="eris", n_shards=2, seed=7,
                               controller=CONTROLLER)
        workload = build_workload("srw", 2, SplitRandom(8), n_keys=1000)
        cluster = build_cluster(config, workload.registry,
                                workload.partitioner, loader=workload.loader)
        FaultPlan(cluster).kill_sequencer_at(KILL_AT)
        result = run_experiment(cluster, workload.ops, ExperimentConfig(
            n_clients=60, warmup=5e-3, duration=250e-3, drain=20e-3,
            timeseries_bucket=10e-3))
        return cluster, result

    cluster, result = benchmark.pedantic(run, iterations=1, rounds=1)

    rows = [[f"{(t - KILL_AT) * 1000:7.1f}", rate]
            for t, rate in result.timeseries]
    print_paper_comparison(
        "Fig 14 — throughput during sequencer failover "
        "(time relative to kill, ms)",
        ["t (ms)", "txn/s"], rows,
        notes="Paper: outage ~130 ms (detection + reroute), then full "
              "throughput; here detection 30 ms + reroute 40 ms.")

    series = result.timeseries
    before = [rate for t, rate in series if t < KILL_AT]
    during = [rate for t, rate in series
              if KILL_AT + 10e-3 < t < KILL_AT + 60e-3]
    after = [rate for t, rate in series if t > KILL_AT + 120e-3]
    assert min(before) > 0
    assert min(during) < 0.05 * max(before)     # a real outage
    assert after and max(after) > 0.8 * max(before)  # full recovery
    assert cluster.controller.failovers == 1
    # The shards converged on epoch 2 after the change.
    for replicas in cluster.replicas.values():
        for replica in replicas:
            if not replica.crashed:
                assert replica.epoch_num == 2
