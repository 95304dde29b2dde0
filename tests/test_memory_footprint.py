"""What each logged commit keeps in memory at one replica, and that a
replica's bookkeeping does not grow with the length of the run.

A replica cuts its log at a §6.6 checkpoint once a prefix is executed
at every replica of its shard (DESIGN.md, "Bounded replica logs"), so
it holds only the entries of the last sync round or two, plus a
summary of the cut prefix for the §6.7 checkers. Two guards:

- **per entry** — one replica's retained state (the log and its stamp
  index) walked with a deep ``sys.getsizeof`` that counts each object
  once, divided by the entries it holds; and the cut summary per
  logged entry. Either grows if a logged entry does.
- **flatness** — over simulated runs of 20 ms and 80 ms, the retained
  entries and the deep size of each replica's bookkeeping (the above
  plus the §6.1 table and the checkpoint candidates' tables) stay
  put.

The cluster runs with ``paranoid_codec``, so each replica holds its own
decoded copy of every transaction, as it does over UDP. Before the hot
wire types were slotted, decoded strings interned, the client table cut
at each client's completion floor and the indexes slimmed, this exact
run read 2,793 / 2,721 / 2,657 B per entry on CPython 3.10 / 3.11 /
3.12 (about 400 B of it client-table rows that were never freed); then
1,413 / 1,365 / 1,365 B, for every entry of the run. With the cut, the
20 ms run holds 233 of its 1,641 entries, at 1,304 B each plus 172 B
of stamp index, and 25 B of summary per logged entry, all of them
multi-shard (CPython 3.11).
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

#: The log entries themselves, per retained entry.
BYTES_PER_ENTRY_BOUND = 1_400
#: The stamp index per retained entry: with a few hundred entries
#: retained, dict capacity left by cut entries weighs in.
INDEX_BYTES_PER_ENTRY_BOUND = 400
SUMMARY_BYTES_PER_ENTRY_BOUND = 32

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


def deep_sizes(seen: set, *roots) -> int:
    """:func:`deep_size` summed over ``roots`` (no temporary container:
    a freed one's id could be reused and read as seen)."""
    return sum(deep_size(root, seen) for root in roots)


def run_mrmw_cluster(duration: float = 20e-3):
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
        n_clients=4, warmup=1e-3, duration=duration, drain=5e-3))
    assert result.committed > 50_000 * duration
    run_all_checks(cluster)
    return cluster


def retained_parts(replica, seen: set) -> dict[str, int]:
    """Deep sizes of what one replica holds per retained log entry."""
    log = replica.log
    return {
        "log": deep_size(log._entries, seen),
        "stamp index": deep_sizes(seen, log._stamp_index, log._multi),
    }


def bookkeeping_size(replica) -> int:
    """Deep size of a replica's bookkeeping, the cut summary aside:
    what must not grow with the run."""
    seen: set = set()
    tables = [table for _, _, table in replica._candidates]
    return sum(retained_parts(replica, seen).values()) + deep_sizes(
        seen, replica.engine.client_table, replica.engine.client_floors,
        tables)


def test_replica_keeps_at_most_the_bound_per_log_entry():
    cluster = run_mrmw_cluster()
    replica = cluster.replicas[0][1]
    log = replica.log
    entries = len(list(log))
    assert log.base > 1000 and entries > 100      # cut, but not empty
    assert replica.fed_index == log.last_index
    seen: set = set()
    parts = retained_parts(replica, seen)
    per_entry = {name: size / entries for name, size in parts.items()}
    spelled = ", ".join(f"{name} {size:.0f}"
                        for name, size in per_entry.items())
    assert per_entry["log"] <= BYTES_PER_ENTRY_BOUND, (
        f"B per log entry: {spelled}")
    assert per_entry["stamp index"] <= INDEX_BYTES_PER_ENTRY_BOUND, (
        f"B per log entry: {spelled}")
    # The cut prefix costs the checkers' summary only (24 B per
    # multi-shard entry, plus the code table).
    summary = deep_sizes(seen, log._order, log._codes, log._table) \
        / log.last_index
    assert summary <= SUMMARY_BYTES_PER_ENTRY_BOUND, (
        f"{summary:.0f} B of cut summary per logged entry")
    # The §6.1 table holds a few rows per client, not one per commit.
    assert deep_size(replica.engine.client_table, seen) < 10 * 1_000


def test_replica_bookkeeping_is_flat_in_the_run_length():
    short, long = run_mrmw_cluster(20e-3), run_mrmw_cluster(80e-3)
    for shard, replicas in short.replicas.items():
        for before, after in zip(replicas, long.replicas[shard]):
            assert after.log.last_index > 3 * before.log.last_index
            held, holds = len(list(before.log)), len(list(after.log))
            assert holds <= 1.5 * held + 50, (
                f"{after.address} holds {holds} entries after 80 ms, "
                f"{held} after 20 ms")
            size, grown = bookkeeping_size(before), bookkeeping_size(after)
            assert grown <= 1.5 * size + 50_000, (
                f"{after.address} keeps {grown} B after 80 ms, "
                f"{size} B after 20 ms")
