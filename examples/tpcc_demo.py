#!/usr/bin/env python
"""TPC-C on Eris vs. the layered baseline (§8.2 in miniature).

Loads a small TPC-C database with H-Store partitioning (items
replicated; everything else by warehouse), runs the standard
transaction mix with 10% distributed transactions on Eris and on
Lock-Store, and reports new-order throughput — the paper's headline
application-level result (Figure 12).

Run:  python examples/tpcc_demo.py
"""

from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.harness.checkers import run_all_checks
from repro.sim.randomness import SplitRandom
from repro.workloads import build_workload
from repro.workloads.tpcc.schema import TPCCScale, customer_key

SCALE = TPCCScale(n_warehouses=6, districts_per_warehouse=4,
                  customers_per_district=10, n_items=60)


def run_system(system: str):
    workload = build_workload("tpcc", 3, SplitRandom(99), tpcc_scale=SCALE,
                              remote_fraction=0.10)
    cluster = build_cluster(
        ClusterConfig(system=system, n_shards=3),
        workload.registry, workload.partitioner, loader=workload.loader)
    result = run_experiment(cluster, workload.ops, ExperimentConfig(
        n_clients=100, warmup=4e-3, duration=10e-3, drain=5e-3,
        count_filter=workload.count_filter))
    return cluster, result


def main() -> None:
    print("TPC-C, standard mix, 10% distributed transactions\n")
    results = {}
    for system in ("eris", "lockstore", "ntur"):
        cluster, result = run_system(system)
        results[system] = result
        print(f"{system:10s} new-order throughput: "
              f"{result.throughput:10,.0f}/s   "
              f"mean latency: {result.mean_latency * 1e6:7.1f} us   "
              f"aborted: {result.aborted} (1% invalid items)")
        if system == "eris":
            run_all_checks(cluster)
            # Peek at application state through a recon-style read.
            store = cluster.authoritative_store(
                cluster.partitioner.shard_of(customer_key(0, 0, 0)))
            customer = store.get(customer_key(0, 0, 0))
            print(f"{'':10s} sample customer after run: "
                  f"balance={customer['balance']:.2f} "
                  f"payments={customer['payment_cnt']}")

    speedup = results["eris"].throughput / results["lockstore"].throughput
    ceiling = results["eris"].throughput / results["ntur"].throughput
    print(f"\nEris vs Lock-Store: {speedup:.1f}x  (paper: 7.6x at scale)")
    print(f"Eris vs NT-UR ceiling: {ceiling:.2f}  (paper: within 3%)")


if __name__ == "__main__":
    main()
