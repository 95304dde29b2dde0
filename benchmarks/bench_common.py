"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from Section 8 at a
scaled-down deployment (3 shards instead of 15, millisecond measurement
windows) so the whole suite runs in minutes. Absolute numbers are in
simulator units; the *shape* — which system wins, by what factor, where
curves cross — is the reproduction target and is both printed (next to
the paper's reference values) and asserted loosely.

Run a single figure with, e.g.::

    pytest benchmarks/test_fig6_srw_latency_throughput.py --benchmark-only -s
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.net.network import NetConfig
from repro.sim.randomness import SplitRandom
from repro.workloads import build_workload
from repro.workloads.tpcc.schema import TPCCScale

#: Systems in the order the paper's figure legends list them.
ALL_SYSTEMS = ("eris", "granola", "tapir", "lockstore", "ntur")

#: Default scaled-down deployment.
N_SHARDS = 3
N_KEYS = 2000
SEED = 42

#: Default measurement window (seconds of simulated time).
WARMUP = 4e-3
DURATION = 8e-3
DRAIN = 4e-3

#: Closed-loop client count that saturates every system at this scale.
SATURATING_CLIENTS = 220


@dataclass
class YCSBBench:
    """One YCSB+T measurement point."""

    system: str
    workload: str = "srw"
    distributed_fraction: float = 0.0
    zipf_theta: float = 0.0
    n_clients: int = SATURATING_CLIENTS
    n_shards: int = N_SHARDS
    n_keys: int = N_KEYS
    seed: int = SEED
    drop_rate: float = 0.0
    warmup: float = WARMUP
    duration: float = DURATION
    drain: float = DRAIN
    timeseries_bucket: Optional[float] = None
    config_overrides: dict = field(default_factory=dict)


def run_ycsb(point: YCSBBench):
    """Build a cluster, run one YCSB+T measurement, return the result."""
    config = ClusterConfig(system=point.system, n_shards=point.n_shards,
                           seed=point.seed,
                           net=NetConfig(drop_rate=point.drop_rate),
                           **point.config_overrides)
    workload = build_workload(
        point.workload, point.n_shards, SplitRandom(point.seed + 1),
        n_keys=point.n_keys, distributed=point.distributed_fraction,
        zipf=point.zipf_theta)
    cluster = build_cluster(config, workload.registry, workload.partitioner,
                            loader=workload.loader)
    result = run_experiment(cluster, workload.ops, ExperimentConfig(
        n_clients=point.n_clients, warmup=point.warmup,
        duration=point.duration, drain=point.drain,
        timeseries_bucket=point.timeseries_bucket))
    return cluster, result


#: TPC-C at bench scale (ratios to the spec preserved; see schema.py).
TPCC_SCALE = TPCCScale(n_warehouses=6, districts_per_warehouse=4,
                       customers_per_district=10, n_items=60)


def run_tpcc(system: str, n_shards: int = N_SHARDS,
             remote_fraction: float = 0.10,
             n_clients: int = 120,
             warmup: float = WARMUP, duration: float = DURATION):
    """One TPC-C measurement; throughput counts new-order commits."""
    config = ClusterConfig(system=system, n_shards=n_shards, seed=SEED)
    workload = build_workload("tpcc", n_shards, SplitRandom(SEED + 1),
                              tpcc_scale=TPCC_SCALE,
                              remote_fraction=remote_fraction)
    cluster = build_cluster(config, workload.registry, workload.partitioner,
                            loader=workload.loader)
    result = run_experiment(cluster, workload.ops, ExperimentConfig(
        n_clients=n_clients, warmup=warmup, duration=duration,
        drain=DRAIN, count_filter=workload.count_filter))
    return cluster, result


def print_paper_comparison(title: str, headers, rows, notes: str = "") -> None:
    from repro.harness.results import format_table
    print()
    print(format_table(headers, rows, title=title))
    if notes:
        print(notes)
