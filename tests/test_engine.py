"""Unit tests for the deterministic execution engine (locks, dedup,
general transactions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ExecutionEngine
from repro.core.log import ErisLog
from repro.core.messages import TxnRecord
from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.net.message import MultiStamp
from repro.store.kv import KVStore, MISSING
from repro.store.procedures import ProcedureRegistry


def make_registry():
    registry = ProcedureRegistry()

    def put(ctx, args):
        for k, v in args["kv"].items():
            if ctx.owns(k):
                ctx.put(k, v)
        return "ok"

    def incr(ctx, args):
        for k in args["keys"]:
            if ctx.owns(k):
                v = ctx.get(k)
                ctx.put(k, (0 if v is MISSING else v) + 1)
        return "ok"

    def boom(ctx, args):
        ctx.put("partial", 1)
        ctx.abort("deterministic failure")

    registry.register("put", put)
    registry.register("incr", incr)
    registry.register("boom", boom)
    return registry


class Feeder:
    """Drives an engine with sequentially numbered log entries."""

    def __init__(self):
        self.store = KVStore()
        self.engine = ExecutionEngine(self.store, make_registry(), shard=0)
        self.log = ErisLog(0)
        self.results = []

    def feed_txn(self, txn):
        stamps = tuple((s, 0) for s in txn.participants)
        entry = self.log.append_txn(
            SlotId(0, 1, self.log.last_index + 1),
            TxnRecord(txn=txn, multistamp=MultiStamp(1, stamps)))
        self.engine.feed(entry, lambda ok, r: self.results.append((ok, r)))
        return entry

    def feed_noop(self):
        entry = self.log.append_noop(SlotId(0, 1, self.log.last_index + 1))
        self.engine.feed(entry, lambda ok, r: self.results.append((ok, r)))


def txn(client, seq, proc="put", args=None, kind="independent",
        reads=(), writes=(), floor_gap=None):
    return IndependentTransaction(
        txn_id=TxnId(client=client, seq=seq), proc=proc,
        args=args if args is not None else {"kv": {"x": seq}},
        participants=(0,), kind=kind,
        read_keys=frozenset(reads), write_keys=frozenset(writes),
        floor_gap=floor_gap)


def test_executes_and_reports_result():
    f = Feeder()
    f.feed_txn(txn("c", 1))
    assert f.results == [(True, "ok")]
    assert f.store.get("x") == 1


def test_noop_reports_uncommitted():
    f = Feeder()
    f.feed_noop()
    assert f.results == [(False, "no-op")]


def test_abort_rolls_back_writes():
    f = Feeder()
    f.feed_txn(txn("c", 1, proc="boom", args={}))
    assert f.results == [(False, "deterministic failure")]
    assert f.store.get("partial") is MISSING


def test_duplicate_suppressed_with_cached_result():
    f = Feeder()
    f.feed_txn(txn("c", 1))
    f.feed_txn(txn("c", 1))    # client retry: same txn id, new slot
    assert f.results == [(True, "ok"), (True, "ok")]
    assert f.store.get("x") == 1
    assert f.engine.cached_reply(TxnId("c", 1)) == (True, "ok")


def test_pipelined_txns_from_one_client_both_execute():
    """Clients may pipeline: an earlier-seq transaction arriving after
    a later one is NOT a duplicate (the table is per-sequence)."""
    f = Feeder()
    f.feed_txn(txn("c", 2, args={"kv": {"x": 2}}))
    f.feed_txn(txn("c", 1, args={"kv": {"y": 1}}))
    assert f.results == [(True, "ok"), (True, "ok")]
    assert f.store.get("x") == 2 and f.store.get("y") == 1
    # But a true duplicate of either is still suppressed.
    f.feed_txn(txn("c", 2, args={"kv": {"x": 999}}))
    assert f.store.get("x") == 2


# -- the §6.1 completion floor ---------------------------------------------

def test_completion_floor_prunes_rows_below_it():
    """A closed-loop client's every request says all its earlier seqs
    completed: the table keeps one row for it, however long it runs."""
    f = Feeder()
    for seq in range(1, 51):
        f.feed_txn(txn("c", seq, floor_gap=0))
        assert set(f.engine.client_table["c"]) == {seq}
    assert f.engine.client_floors == {"c": 50}
    assert f.engine.cached_reply(TxnId("c", 49)) is None
    assert f.engine.cached_reply(TxnId("c", 50)) == (True, "ok")


def test_pipelined_floor_keeps_outstanding_rows():
    f = Feeder()
    f.feed_txn(txn("c", 1, floor_gap=0))
    f.feed_txn(txn("c", 2, floor_gap=1))     # seq 1 still outstanding
    f.feed_txn(txn("c", 3, floor_gap=2))
    assert set(f.engine.client_table["c"]) == {1, 2, 3}
    f.feed_txn(txn("c", 4, floor_gap=1))     # 1 and 2 completed
    assert set(f.engine.client_table["c"]) == {3, 4}
    # A late copy carrying an older floor never lowers it.
    f.feed_txn(txn("c", 3, floor_gap=3))
    assert f.engine.client_floors["c"] == 3
    assert set(f.engine.client_table["c"]) == {3, 4}


def test_request_below_the_floor_is_a_duplicate_and_not_executed():
    f = Feeder()
    f.feed_txn(txn("c", 1, floor_gap=0))
    f.feed_txn(txn("c", 2, args={"kv": {"y": 2}}, floor_gap=0))
    f.feed_txn(txn("c", 1, args={"kv": {"x": 99}}, floor_gap=0))
    assert f.results[-1] == (False, "duplicate below completion floor")
    assert f.store.get("x") == 1
    assert set(f.engine.client_table["c"]) == {2}


def test_floors_are_per_client_and_reset_with_the_engine():
    f = Feeder()
    f.feed_txn(txn("a", 5, floor_gap=0))
    f.feed_txn(txn("b", 1, floor_gap=0))
    f.feed_txn(txn("b", 2, floor_gap=0))
    assert f.engine.client_floors == {"a": 5, "b": 2}
    assert set(f.engine.client_table["a"]) == {5}
    f.engine.reset()
    assert f.engine.client_floors == {}
    f.feed_txn(txn("a", 1, floor_gap=0))     # executes after a replay
    assert f.results[-1] == (True, "ok")


def test_lock_free_fast_path_without_generals():
    f = Feeder()
    for i in range(5):
        f.feed_txn(txn("c", i + 1))
    assert f.engine.locks.grants == 0   # never touched the lock manager


def prelim(client, seq, reads, writes, expected=None):
    args = {"expected": expected} if expected else {}
    return txn(client, seq, proc="__prelim__", args=args,
               kind="preliminary", reads=reads, writes=writes)


def conclusory(client, seq, gtid, commit, writes=None):
    return txn(client, seq, proc="__conclusory__",
               args={"gtid": gtid, "commit": commit,
                     "writes": writes or {}},
               kind="conclusory")


def test_general_transaction_commit_flow():
    f = Feeder()
    f.feed_txn(txn("w", 1, args={"kv": {"a": 10, "b": 20}}))
    f.feed_txn(prelim("g", 1, reads=("a", "b"), writes=("a", "b")))
    ok, result = f.results[-1]
    assert ok and result["values"] == {"a": 10, "b": 20}
    assert f.engine.pending_generals
    f.feed_txn(conclusory("g", 2, TxnId("g", 1), commit=True,
                          writes={"a": 20, "b": 10}))
    assert f.results[-1][0]
    assert f.store.get("a") == 20 and f.store.get("b") == 10
    assert not f.engine.pending_generals


def test_general_abort_releases_without_writes():
    f = Feeder()
    f.feed_txn(txn("w", 1, args={"kv": {"a": 10}}))
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    f.feed_txn(conclusory("g", 2, TxnId("g", 1), commit=False))
    assert f.store.get("a") == 10
    assert not f.engine.pending_generals


def test_stale_reconnaissance_fails_validation():
    f = Feeder()
    f.feed_txn(txn("w", 1, args={"kv": {"a": 10}}))
    f.feed_txn(prelim("g", 1, reads=("a",), writes=(),
                      expected={"a": 999}))
    ok, result = f.results[-1]
    assert not ok and result["ok"] is False
    # Locks are still held until the conclusory abort.
    assert f.engine.pending_generals


def test_conflicting_txn_defers_until_release():
    f = Feeder()
    f.feed_txn(txn("w", 1, args={"kv": {"a": 1}}))
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    # This independent increment conflicts with g's locks: deferred.
    f.feed_txn(txn("i", 1, proc="incr", args={"keys": ["a"]},
                   reads=("a",), writes=("a",)))
    assert len(f.results) == 2   # increment not executed yet
    assert f.engine.deferred_executions == 1
    f.feed_txn(conclusory("g", 2, TxnId("g", 1), commit=True,
                          writes={"a": 100}))
    # Deferred increment ran after the conclusory's write.
    assert f.store.get("a") == 101
    assert len(f.results) == 4


def test_non_conflicting_txn_proceeds_during_general():
    f = Feeder()
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    f.feed_txn(txn("i", 1, proc="incr", args={"keys": ["z"]},
                   reads=("z",), writes=("z",)))
    assert f.store.get("z") == 1   # unrelated keys are not blocked


def test_duplicate_conclusory_is_noop():
    f = Feeder()
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    f.feed_txn(conclusory("g", 2, TxnId("g", 1), commit=True,
                          writes={"a": 5}))
    f.feed_txn(conclusory("x", 1, TxnId("g", 1), commit=False))
    assert f.results[-1] == (False, "already concluded")
    assert f.store.get("a") == 5   # first conclusory won


def test_abort_conclusory_races_commit():
    """§7.2: the DL's unilateral abort beats the client's commit."""
    f = Feeder()
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    f.feed_txn(conclusory("dl#aborter", 1, TxnId("g", 1), commit=False))
    f.feed_txn(conclusory("g", 2, TxnId("g", 1), commit=True,
                          writes={"a": 5}))
    assert f.store.get("a") is MISSING   # abort won; no write applied
    assert f.results[-1] == (False, "already concluded")


def test_expired_generals_reported():
    f = Feeder()
    f.engine._clock = lambda: 100.0
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    assert f.engine.expired_generals(50.0) == []
    assert len(f.engine.expired_generals(100.0)) == 1


def test_reset_clears_all_state():
    f = Feeder()
    f.feed_txn(prelim("g", 1, reads=("a",), writes=("a",)))
    f.engine.reset()
    assert not f.engine.pending_generals
    assert f.engine.cached_reply(TxnId("g", 1)) is None


# -- property: determinism — same entry sequence, same final state --------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                min_size=1, max_size=25))
def test_engine_is_deterministic(spec):
    """Two engines fed the identical entry sequence converge to the
    same store state and the same outcomes — the property non-DL
    replicas rely on when replaying at sync time."""
    def run():
        f = Feeder()
        for i, (client, key) in enumerate(spec):
            f.feed_txn(IndependentTransaction(
                txn_id=TxnId(client=f"c{client}", seq=i + 1),
                proc="incr", args={"keys": [f"k{key}"]},
                participants=(0,),
                read_keys=frozenset({f"k{key}"}),
                write_keys=frozenset({f"k{key}"})))
        return f.store.snapshot(), f.results

    first = run()
    second = run()
    assert first == second
