"""Coordination-free counters: a read- and increment-heavy workload.

The read fast path (see :mod:`repro.store.procedures`) only pays off on
workloads where many operations are read-only. This module provides
one: an analytics-style mix of counter increments, tag-set unions,
point reads, and occasional read-modify-write resets, in the spirit of
the "coordination-free" aggregate workloads used to evaluate
Harmonia-style fast paths.

Key space layout (chosen so the multi-process launcher's per-shard
loader works unchanged):

- **counter keys** are the integers ``0 .. n_keys-1``, loaded with 0;
- **tag-set keys** are ``n_keys .. 2*n_keys-1`` (counter key +
  ``n_keys``), *not* pre-loaded — the procedures treat a missing value
  as the empty set and store sorted tuples so every replica serializes
  the set identically.

Operation mix (three independent fractions of the total):

==================  ===========  ======================================
operation           op-class     semantics
==================  ===========  ======================================
``counter_read``    READ_ONLY    point read of one counter
``counter_add``     GENERIC      increment 1–2 counters (Abelian: +)
``tag_add``         GENERIC      add a tag (semilattice: set union)
``counter_reset``   GENERIC      read-modify-write: zero the counter
==================  ===========  ======================================

Reads take the Harmonia single-replica fast path when their key is
clean; every write is an ordinary Eris independent transaction,
executed in multi-stamp log order. The increments and unions commute
with each other, but that is measured not to pay (DESIGN.md,
"Commutative early apply: measured and removed"); the
``commutative_fraction`` knob still sizes their share of the mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import WorkloadOp
from repro.errors import ConfigurationError
from repro.sim.randomness import SplitRandom
from repro.store.kv import KVStore, MISSING
from repro.store.procedures import OpClass, ProcedureRegistry, TxnContext
from repro.workloads.partition import Partitioner
from repro.workloads.zipf import ZipfGenerator


# -- stored procedures --------------------------------------------------

def counter_read(ctx: TxnContext, args: dict) -> dict:
    key = args["key"]
    if ctx.owns(key):
        value = ctx.get(key)
        return {key: 0 if value is MISSING else value}
    return {}


def counter_add(ctx: TxnContext, args: dict) -> None:
    """Increment each owned counter. Integer addition is Abelian, so
    any two ``counter_add`` executions commute. Returns nothing, so
    the op exposes no intermediate value."""
    delta = args.get("delta", 1)
    for key in args["keys"]:
        if ctx.owns(key):
            value = ctx.get(key)
            value = 0 if value is MISSING else value
            ctx.put(key, value + delta)


def tag_add(ctx: TxnContext, args: dict) -> None:
    """Add a tag to a key's tag set. Set union is a semilattice join
    (idempotent, commutative, associative). The set is stored as a
    sorted tuple so every replica's byte-level state is identical
    regardless of insertion order."""
    key = args["key"]
    if not ctx.owns(key):
        return
    current = ctx.get(key)
    tags = set() if current is MISSING or current == 0 else set(current)
    tags.add(args["tag"])
    ctx.put(key, tuple(sorted(tags)))


def counter_reset(ctx: TxnContext, args: dict) -> dict:
    """Read the counter and zero it — a read-modify-write that does
    NOT commute with ``counter_add`` (reset-then-add != add-then-
    reset)."""
    key = args["key"]
    if not ctx.owns(key):
        return {}
    value = ctx.get(key)
    value = 0 if value is MISSING else value
    ctx.put(key, 0)
    return {key: value}


def register_counters_procedures(registry: ProcedureRegistry) -> None:
    registry.register("counter_read", counter_read,
                      op_class=OpClass.READ_ONLY)
    registry.register("counter_add", counter_add)
    registry.register("tag_add", tag_add)
    registry.register("counter_reset", counter_reset)


def load_counters(stores: dict[int, list[KVStore]],
                  partitioner: Partitioner, n_keys: int) -> None:
    """Populate every replica store with its shard's counter keys
    (value 0). Tag-set keys are intentionally absent: the procedures
    treat MISSING as the empty set."""
    for key in range(n_keys):
        shard = partitioner.shard_of(key)
        for store in stores[shard]:
            store.put(key, 0)


# -- the generator ------------------------------------------------------

@dataclass
class CountersConfig:
    """One counters experiment's workload parameters.

    ``read_fraction`` + ``commutative_fraction`` is the coordination-
    free fraction (reads plus mutually commuting increments and
    unions); the remainder are ``counter_reset`` RMWs.
    """

    n_keys: int = 10_000
    read_fraction: float = 0.5
    commutative_fraction: float = 0.4
    #: Of the commutative increments, this fraction touch two counters
    #: on different shards (multi-stamped, still commutative).
    multi_shard_fraction: float = 0.0
    #: Of the commutative ops, this fraction are tag-set unions
    #: instead of integer increments.
    tag_fraction: float = 0.2
    zipf_theta: float = 0.0

    def validate(self) -> None:
        if self.n_keys <= 1:
            raise ConfigurationError("need at least two keys")
        for name in ("read_fraction", "commutative_fraction",
                     "multi_shard_fraction", "tag_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1]: {value}")
        if self.read_fraction + self.commutative_fraction > 1.0:
            raise ConfigurationError(
                "read_fraction + commutative_fraction must be <= 1: "
                f"{self.read_fraction} + {self.commutative_fraction}")


class CountersWorkload:
    """Emits :class:`WorkloadOp` according to the configured mix."""

    def __init__(self, config: CountersConfig, partitioner: Partitioner,
                 rng: SplitRandom):
        config.validate()
        self.config = config
        self.partitioner = partitioner
        self._rng = rng.split("counters")
        self._zipf = ZipfGenerator(config.n_keys, config.zipf_theta,
                                   self._rng.split("keys"))
        self._tag_counter = 0

    # -- key selection ------------------------------------------------------
    def _key(self) -> int:
        return self._zipf.next()

    def _cross_shard_pair(self) -> tuple[int, int]:
        first = self._key()
        if self.partitioner.n_shards < 2:
            second = self._key()
            while second == first:
                second = self._key()
            return first, second
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
    def _read_op(self) -> WorkloadOp:
        key = self._key()
        return WorkloadOp(proc="counter_read", args={"key": key},
                          participants=(self.partitioner.shard_of(key),),
                          read_keys=frozenset([key]),
                          op_class=OpClass.READ_ONLY)

    def _add_op(self) -> WorkloadOp:
        if self._rng.random() < self.config.multi_shard_fraction:
            keys: tuple[int, ...] = self._cross_shard_pair()
        else:
            keys = (self._key(),)
        keyset = frozenset(keys)
        return WorkloadOp(
            proc="counter_add", args={"keys": keys, "delta": 1},
            participants=self.partitioner.participants_for(keyset),
            write_keys=keyset)

    def _tag_op(self) -> WorkloadOp:
        # Tag-set keys live at counter key + n_keys (see module doc).
        key = self._key() + self.config.n_keys
        self._tag_counter += 1
        tag = f"t{self._tag_counter % 64}"
        return WorkloadOp(
            proc="tag_add", args={"key": key, "tag": tag},
            participants=(self.partitioner.shard_of(key),),
            write_keys=frozenset([key]))

    def _reset_op(self) -> WorkloadOp:
        key = self._key()
        keyset = frozenset([key])
        return WorkloadOp(proc="counter_reset", args={"key": key},
                          participants=(self.partitioner.shard_of(key),),
                          read_keys=keyset, write_keys=keyset)

    def next_op(self) -> WorkloadOp:
        draw = self._rng.random()
        if draw < self.config.read_fraction:
            return self._read_op()
        if draw < self.config.read_fraction + self.config.commutative_fraction:
            if self._rng.random() < self.config.tag_fraction:
                return self._tag_op()
            return self._add_op()
        return self._reset_op()
