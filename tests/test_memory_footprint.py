"""What each logged commit keeps in memory at one replica.

Logs are never truncated yet, so every byte a log entry holds is held
for the life of the run, at every replica. This guard walks one
replica's per-entry state — the log, both log indexes, the fed record
and the §6.1 at-most-once table — with a deep ``sys.getsizeof`` that
counts each object once, and bounds the bytes per log entry.

The cluster runs with ``paranoid_codec``, so each replica holds its own
decoded copy of every transaction, as it does over UDP. Before the hot
wire types were slotted, decoded strings interned, the client table cut
at each client's completion floor and the indexes slimmed, this exact
run read 2,793 / 2,721 / 2,657 B per entry on CPython 3.10 / 3.11 /
3.12 (about 400 B of it client-table rows that were never freed); it
reads 1,413 / 1,365 / 1,365 B since.
"""

from __future__ import annotations

import sys

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
from repro.workloads import (
    Partitioner,
    YCSBConfig,
    YCSBWorkload,
    register_ycsb_procedures,
)
from repro.workloads.ycsb import load_ycsb

BYTES_PER_ENTRY_BOUND = 1_600

_LEAVES = (int, float, str, bool, bytes, type(None))


def deep_size(root, seen: set) -> int:
    """``sys.getsizeof`` of ``root`` and everything it reaches that is
    not in ``seen`` yet (which it then joins): containers, instance
    dicts and ``__slots__`` fields."""
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        kind = type(obj)
        if kind in _LEAVES:
            continue
        if kind is dict:
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif kind in (list, tuple, set, frozenset):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            for klass in kind.__mro__:
                for name in klass.__dict__.get("__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return total


def run_mrmw_cluster():
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    partitioner = Partitioner(2)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=3,
                      net=NetConfig(paranoid_codec=True)),
        registry, partitioner,
        loader=lambda stores, p: load_ycsb(stores, p, 2000))
    workload = YCSBWorkload(
        YCSBConfig(workload="mrmw", n_keys=2000, distributed_fraction=1.0),
        partitioner, SplitRandom(4))
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=4, warmup=1e-3, duration=20e-3, drain=5e-3))
    assert result.committed > 1000
    run_all_checks(cluster)
    return cluster


def test_replica_keeps_at_most_the_bound_per_log_entry():
    cluster = run_mrmw_cluster()
    replica = cluster.replicas[0][1]
    entries = len(replica.log)
    assert len(replica._fed) == entries > 1000
    seen: set = set()
    parts = {
        "log": deep_size(replica.log._entries, seen),
        "slot index": deep_size(replica.log._slot_index, seen),
        "stamp index": deep_size(replica.log._stamp_index, seen),
        "fed": deep_size(replica._fed, seen),
        "client table": deep_size(replica.engine.client_table, seen),
    }
    per_entry = {name: size / entries for name, size in parts.items()}
    total = sum(per_entry.values())
    assert total <= BYTES_PER_ENTRY_BOUND, (
        f"{total:.0f} B per log entry: "
        + ", ".join(f"{name} {size:.0f}" for name, size in per_entry.items()))
    # The §6.1 table holds a few rows per client, not one per commit.
    assert per_entry["client table"] < 10
