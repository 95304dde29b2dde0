"""Unit tests for Zipf, the partitioner, and YCSB+T generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.randomness import SplitRandom
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry, TxnContext
from repro.workloads import (
    Partitioner,
    YCSBConfig,
    YCSBWorkload,
    ZipfGenerator,
    register_ycsb_procedures,
)
from repro.workloads.ycsb import load_ycsb


# -- Zipf ----------------------------------------------------------------

def test_zipf_values_in_range():
    gen = ZipfGenerator(100, 0.9, SplitRandom(1))
    for _ in range(1000):
        assert 0 <= gen.next() < 100


def test_zipf_theta_zero_is_uniform():
    gen = ZipfGenerator(10, 0.0, SplitRandom(1))
    counts = [0] * 10
    for _ in range(10_000):
        counts[gen.next()] += 1
    assert max(counts) < 2 * min(counts)


def test_zipf_skew_concentrates_on_low_ranks():
    skewed = ZipfGenerator(1000, 0.99, SplitRandom(1))
    hits = sum(1 for _ in range(5000) if skewed.next() < 10)
    assert hits > 1500   # top-1% of keys get a large share


def test_zipf_more_skew_more_concentration():
    def top1_share(theta):
        gen = ZipfGenerator(1000, theta, SplitRandom(42))
        return sum(1 for _ in range(5000) if gen.next() < 10)
    assert top1_share(0.99) > top1_share(0.5) > top1_share(0.0)


def test_zipf_clamps_theta_at_one():
    gen = ZipfGenerator(100, 1.5, SplitRandom(1))
    assert gen.theta < 1.0
    assert 0 <= gen.next() < 100


def test_zipf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.5, SplitRandom(1))
    with pytest.raises(ValueError):
        ZipfGenerator(10, -0.1, SplitRandom(1))


def test_zipf_distinct_pair():
    gen = ZipfGenerator(50, 0.9, SplitRandom(1))
    for _ in range(200):
        a, b = gen.next_distinct_pair()
        assert a != b


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=500),
       st.floats(min_value=0.0, max_value=1.2, allow_nan=False))
def test_zipf_always_in_bounds(n, theta):
    gen = ZipfGenerator(n, theta, SplitRandom(9))
    assert all(0 <= gen.next() < n for _ in range(50))


# -- Partitioner ----------------------------------------------------------

def test_partitioner_is_deterministic_and_total():
    part = Partitioner(4)
    for key in [0, 1, "alpha", ("tuple", 3), 12345]:
        shard = part.shard_of(key)
        assert 0 <= shard < 4
        assert part.shard_of(key) == shard


def test_partitioner_owns_fn_matches_shard_of():
    part = Partitioner(3)
    owns = [part.owns_fn(s) for s in range(3)]
    for key in range(30):
        owners = [s for s in range(3) if owns[s](key)]
        assert owners == [part.shard_of(key)]


def test_partitioner_replicated_keys_owned_everywhere():
    part = Partitioner(3, replicated=lambda k: isinstance(k, str))
    assert all(part.owns_fn(s)("everywhere") for s in range(3))
    assert part.participants_for(["everywhere", 4]) == \
        (part.shard_of(4),)


def test_participants_sorted_unique():
    part = Partitioner(5)
    participants = part.participants_for([0, 5, 10, 3])
    assert participants == tuple(sorted(set(participants)))


def test_partitioner_rejects_zero_shards():
    with pytest.raises(ValueError):
        Partitioner(0)


# -- YCSB+T ----------------------------------------------------------------

def make_workload(**kwargs):
    part = Partitioner(kwargs.pop("n_shards", 3))
    config = YCSBConfig(**kwargs)
    return YCSBWorkload(config, part, SplitRandom(5)), part


def test_srw_ops_are_single_key_single_shard():
    wl, part = make_workload(workload="srw", n_keys=100)
    reads = writes = 0
    for _ in range(200):
        op = wl.next_op()
        assert len(op.participants) == 1
        if op.proc == "ycsb_read":
            reads += 1
        else:
            assert op.proc == "ycsb_write"
            writes += 1
    assert abs(reads - writes) < 80   # roughly 1:1


def test_mrmw_distributed_fraction_respected():
    wl, part = make_workload(workload="mrmw", n_keys=100,
                             distributed_fraction=0.3)
    multi = sum(1 for _ in range(500) if wl.next_op().proc == "ycsb_rmw")
    assert 0.2 < multi / 500 < 0.4


def test_mrmw_pairs_span_distinct_shards():
    wl, part = make_workload(workload="mrmw", n_keys=100,
                             distributed_fraction=1.0)
    for _ in range(100):
        op = wl.next_op()
        if op.proc != "ycsb_rmw":
            continue
        shards = {part.shard_of(k) for k in op.args["keys"]}
        assert len(shards) == 2
        assert op.participants == tuple(sorted(shards))


def test_crmw_ops_are_general_with_swap_compute():
    wl, part = make_workload(workload="crmw", n_keys=100,
                             distributed_fraction=1.0)
    op = next(o for o in iter(wl.next_op, None) if o.is_general)
    k1, k2 = op.args["keys"]
    writes = op.compute({k1: "v1", k2: "v2"})
    assert writes == {k1: "v2", k2: "v1"}


def test_invalid_workload_rejected():
    with pytest.raises(ConfigurationError):
        YCSBConfig(workload="nope").validate()
    with pytest.raises(ConfigurationError):
        YCSBConfig(distributed_fraction=2.0).validate()
    with pytest.raises(ConfigurationError):
        YCSBConfig(n_keys=1).validate()


def test_ycsb_procedures_respect_ownership():
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    store = KVStore()
    ctx = TxnContext(store, owns=lambda k: k == 1)
    registry.execute("ycsb_write", ctx, {"key": 2, "value": 9})
    assert len(store) == 0   # not owned, not written
    registry.execute("ycsb_rmw", ctx, {"keys": (1, 2)})
    assert store.get(1) == 1
    assert 2 not in store


def test_load_ycsb_places_keys_on_owners():
    part = Partitioner(2)
    stores = {0: [KVStore(), KVStore()], 1: [KVStore()]}
    load_ycsb(stores, part, 10)
    for key in range(10):
        shard = part.shard_of(key)
        for store in stores[shard]:
            assert store.get(key) == 0
        other = 1 - shard
        assert key not in stores[other][0]


def test_one_key_loader_skips_shards_not_held():
    """One loader for every workload and process layout: a per-node
    worker passes only the one store it holds."""
    from repro.workloads.counters import load_counters
    from repro.workloads.partition import load_keys

    assert load_ycsb is load_keys and load_counters is load_keys
    store = KVStore()
    load_keys({1: [store]}, Partitioner(2), 10)
    assert store.snapshot() == {key: 0 for key in (1, 3, 5, 7, 9)}
