#!/usr/bin/env python
"""Fault tolerance walkthrough: drops, DL failure, sequencer failover.

Runs a continuous YCSB+T load against Eris while injecting, in order:

1. 2% random packet loss — replicas detect gaps via multi-stamp
   sequence numbers and recover from same-shard peers (§6.3);
2. a Designated Learner crash — the shard elects a new DL and replays
   committed state (§6.4);
3. a sequencer crash — the SDN controller reroutes to a standby with a
   higher epoch and the Failure Coordinator runs the epoch change
   (§6.5).

Throughput over time is printed as a bar chart; the §6.7 invariants are
checked at the end.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.harness.checkers import run_all_checks
from repro.harness.faults import FaultPlan
from repro.net.controller import ControllerConfig
from repro.sim.randomness import SplitRandom
from repro.workloads import build_workload


def main() -> None:
    workload = build_workload("srw", 2, SplitRandom(5), n_keys=1000)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2,
                      controller=ControllerConfig(ping_interval=5e-3,
                                                  failure_threshold=3,
                                                  reroute_delay=20e-3)),
        workload.registry, workload.partitioner, loader=workload.loader)

    plan = (FaultPlan(cluster)
            .set_drop_rate_at(0.05, 0.02)     # 2% loss at t=50ms
            .set_drop_rate_at(0.10, 0.0)      # heal at t=100ms
            .kill_replica_at(0.12, shard=0, index=0)   # DL of shard 0
            .kill_sequencer_at(0.20))

    result = run_experiment(cluster, workload.ops, ExperimentConfig(
        n_clients=40, warmup=5e-3, duration=320e-3, drain=50e-3,
        timeseries_bucket=10e-3))

    print("injected faults:")
    for at, label in plan.injected:
        print(f"  t={at * 1000:6.1f} ms  {label}")

    print("\nthroughput over time:")
    peak = max(rate for _, rate in result.timeseries) or 1
    for t, rate in result.timeseries:
        bar = "#" * int(40 * rate / peak)
        print(f"  t={t * 1000:6.1f} ms {rate:10,.0f}/s {bar}")

    peer = sum(r.drops_recovered_from_peer
               for reps in cluster.replicas.values() for r in reps)
    print(f"\ndrop recoveries from shard peers: {peer}")
    print(f"view changes: shard-0 now in view "
          f"{max(r.view_num for r in cluster.replicas[0] if not r.crashed)}")
    print(f"sequencer failovers: {cluster.controller.failovers}; "
          f"epoch changes completed: {cluster.fc.epoch_changes_completed}")

    run_all_checks(cluster)
    print("\ninvariants hold through loss, DL failure, and sequencer "
          "failover")


if __name__ == "__main__":
    main()
