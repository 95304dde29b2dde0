"""YCSB+T: transactional key-value microbenchmarks (§8.1).

Three workloads, matching the paper:

- **SRW** — single-shard read/write: single-key reads and writes in a
  1:1 ratio. No distributed transactions, minimal contention: the
  ideal case for every system (Figure 6).
- **MRMW** — multi-shard read-modify-write: a configurable fraction of
  transactions atomically increment two keys on *different* shards
  (no cross-shard data dependency → independent transactions); the rest
  are SRW singles (Figures 7, 8, 9, 11).
- **CRMW** — cross-shard read-modify-write: the distributed fraction
  transactionally *swaps* two keys on different shards — each write
  depends on the other shard's read, so these are general transactions
  (Figures 9, 10).

Key access is uniform or Zipfian per the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import WorkloadOp
from repro.errors import ConfigurationError
from repro.sim.randomness import SplitRandom
from repro.store.kv import MISSING
from repro.store.procedures import ProcedureRegistry, TxnContext
from repro.workloads.partition import Partitioner, load_keys
from repro.workloads.zipf import ZipfGenerator


# -- stored procedures --------------------------------------------------

def ycsb_read(ctx: TxnContext, args: dict) -> dict:
    key = args["key"]
    if ctx.owns(key):
        return {key: ctx.get(key)}
    return {}


def ycsb_write(ctx: TxnContext, args: dict) -> None:
    key = args["key"]
    if ctx.owns(key):
        ctx.put(key, args["value"])


def ycsb_rmw(ctx: TxnContext, args: dict) -> dict:
    """Unconditionally increment each owned key — a one-round
    distributed read/write transaction that always commits, i.e. an
    independent transaction (§4.1)."""
    out = {}
    for key in args["keys"]:
        if ctx.owns(key):
            value = ctx.get(key)
            value = 0 if value is MISSING else value
            ctx.put(key, value + 1)
            out[key] = value + 1
    return out


def register_ycsb_procedures(registry: ProcedureRegistry) -> None:
    registry.register("ycsb_read", ycsb_read)
    registry.register("ycsb_write", ycsb_write)
    registry.register("ycsb_rmw", ycsb_rmw)


#: Populate every replica store with its shard's keys (value 0).
load_ycsb = load_keys


# -- the generator ------------------------------------------------------

@dataclass
class YCSBConfig:
    """One YCSB+T experiment's workload parameters."""

    workload: str = "srw"                  # srw | mrmw | crmw
    n_keys: int = 10_000
    distributed_fraction: float = 0.0      # fraction of two-key txns
    zipf_theta: float = 0.0                # 0 = uniform key access

    def validate(self) -> None:
        if self.workload not in ("srw", "mrmw", "crmw"):
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        if not 0.0 <= self.distributed_fraction <= 1.0:
            raise ConfigurationError("distributed_fraction must be in [0,1]")
        if self.n_keys <= 1:
            raise ConfigurationError("need at least two keys")


class YCSBWorkload:
    """Emits :class:`WorkloadOp` according to the configured mix."""

    def __init__(self, config: YCSBConfig, partitioner: Partitioner,
                 rng: SplitRandom):
        config.validate()
        self.config = config
        self.partitioner = partitioner
        self._rng = rng.split("ycsb")
        self._zipf = ZipfGenerator(config.n_keys, config.zipf_theta,
                                   self._rng.split("keys"))
        self._value_counter = 0

    # -- key selection ------------------------------------------------------
    def _key(self) -> int:
        return self._zipf.next()

    def _cross_shard_pair(self) -> tuple[int, int]:
        """Two keys guaranteed to live on different shards (the paper's
        multi-shard transactions)."""
        if self.partitioner.n_shards < 2:
            return self._zipf.next_distinct_pair()
        first = self._key()
        second = self._key()
        attempts = 0
        while (self.partitioner.shard_of(second)
               == self.partitioner.shard_of(first)):
            second = self._key()
            attempts += 1
            if attempts > 1000:  # pathological shard skew; give up
                second = (first + 1) % self.config.n_keys
        return first, second

    # -- op builders ----------------------------------------------------------
    def _srw_op(self) -> WorkloadOp:
        key = self._key()
        shard = self.partitioner.shard_of(key)
        if self._rng.random() < 0.5:
            return WorkloadOp(proc="ycsb_read", args={"key": key},
                              participants=(shard,),
                              read_keys=frozenset([key]))
        self._value_counter += 1
        return WorkloadOp(proc="ycsb_write",
                          args={"key": key, "value": self._value_counter},
                          participants=(shard,),
                          write_keys=frozenset([key]))

    def _mrmw_op(self) -> WorkloadOp:
        k1, k2 = self._cross_shard_pair()
        keys = frozenset([k1, k2])
        return WorkloadOp(proc="ycsb_rmw", args={"keys": (k1, k2)},
                          participants=self.partitioner.participants_for(keys),
                          read_keys=keys, write_keys=keys)

    def _crmw_op(self) -> WorkloadOp:
        k1, k2 = self._cross_shard_pair()
        keys = frozenset([k1, k2])

        def swap(values: dict, k1=k1, k2=k2) -> dict:
            return {k1: values.get(k2, 0), k2: values.get(k1, 0)}

        return WorkloadOp(proc="ycsb_swap", args={"keys": (k1, k2)},
                          participants=self.partitioner.participants_for(keys),
                          read_keys=keys, write_keys=keys,
                          is_general=True, compute=swap)

    def next_op(self) -> WorkloadOp:
        workload = self.config.workload
        if workload == "srw":
            return self._srw_op()
        if self._rng.random() >= self.config.distributed_fraction:
            return self._srw_op()
        return self._mrmw_op() if workload == "mrmw" else self._crmw_op()
