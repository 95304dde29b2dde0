"""Workload generators for the evaluation (§8).

- :mod:`repro.workloads.zipf` — YCSB-style Zipfian key chooser.
- :mod:`repro.workloads.ycsb` — YCSB+T: the SRW / MRMW / CRMW
  transactional microbenchmarks of §8.1.
- :mod:`repro.workloads.tpcc` — TPC-C with H-Store partitioning (§8.2).
- :mod:`repro.workloads.counters` — coordination-free counters: the
  commutativity-heavy mix exercising the op-class fast paths.

:func:`build_workload` is the one table from a workload name to
everything a run needs of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.store.procedures import ProcedureRegistry
from repro.workloads.counters import (
    CountersConfig,
    CountersWorkload,
    load_counters,
    register_counters_procedures,
)
from repro.workloads.partition import Partitioner, load_keys
from repro.workloads.ycsb import (
    YCSBConfig,
    YCSBWorkload,
    register_ycsb_procedures,
)
from repro.workloads.zipf import ZipfGenerator

WORKLOADS = ("srw", "mrmw", "crmw", "tpcc", "counters")


@dataclass
class Workload:
    """One workload's procedures, key placement, initial data, and op
    stream (``ops.next_op()``)."""

    registry: ProcedureRegistry
    partitioner: Partitioner
    #: ``loader(stores, partitioner)`` fills each shard's stores.
    loader: Callable
    ops: object
    #: The ops a run's throughput counts (TPC-C: new-order only).
    count_filter: Optional[Callable] = None


def build_workload(name: str, n_shards: int, rng, *, n_keys: int = 2000,
                   distributed: float = 0.0, zipf: float = 0.0,
                   read_fraction: float = 0.5,
                   commutative_fraction: float = 0.4,
                   tpcc_scale=None,
                   remote_fraction: float = 0.10) -> Workload:
    """The :class:`Workload` named ``name`` (one of :data:`WORKLOADS`)
    over ``n_shards`` shards, its op stream drawn from ``rng``.
    ``distributed`` is the multi-shard fraction of YCSB+T or of the
    counters mix's increments; ``tpcc_scale`` defaults to
    :class:`~repro.workloads.tpcc.schema.TPCCScale`."""
    registry = ProcedureRegistry()
    if name == "tpcc":
        from repro.workloads.tpcc import (TPCCConfig, TPCCWorkload,
                                          load_tpcc, register_tpcc_procedures,
                                          tpcc_partitioner)
        from repro.workloads.tpcc.schema import TPCCScale

        scale = tpcc_scale or TPCCScale()
        register_tpcc_procedures(registry)
        partitioner = tpcc_partitioner(n_shards)
        return Workload(
            registry, partitioner,
            lambda stores, p: load_tpcc(stores, p, scale),
            TPCCWorkload(TPCCConfig(scale=scale,
                                    remote_fraction=remote_fraction),
                         partitioner, rng),
            count_filter=lambda op: op.proc == "tpcc_new_order")
    partitioner = Partitioner(n_shards)
    if name == "counters":
        register_counters_procedures(registry)
        ops = CountersWorkload(
            CountersConfig(n_keys=n_keys, read_fraction=read_fraction,
                           commutative_fraction=commutative_fraction,
                           multi_shard_fraction=distributed,
                           zipf_theta=zipf),
            partitioner, rng)
    else:
        register_ycsb_procedures(registry)
        ops = YCSBWorkload(
            YCSBConfig(workload=name, n_keys=n_keys,
                       distributed_fraction=distributed, zipf_theta=zipf),
            partitioner, rng)
    return Workload(registry, partitioner,
                    lambda stores, p: load_keys(stores, p, n_keys), ops)


__all__ = [
    "CountersConfig",
    "CountersWorkload",
    "Partitioner",
    "WORKLOADS",
    "Workload",
    "YCSBConfig",
    "YCSBWorkload",
    "build_workload",
    "load_counters",
    "register_counters_procedures",
    "register_ycsb_procedures",
    "ZipfGenerator",
]
