"""Operation-class plumbing: registry declarations, transaction
validators, the counters procedures' algebraic claims, and the wire
codec round-tripping (and refusing to forge) the new fast-path fields
and messages."""

import pytest

from conftest import CARRIAGES
from repro.core.messages import (
    AppliedUpto,
    CommutativeTxnRequest,
    FastReadReply,
    FastReadRequest,
    IndependentTxnRequest,
)
from repro.core.transaction import IndependentTransaction, TxnId
from repro.errors import UnknownProcedureError
from repro.runtime import codec as C
from repro.runtime.codec import CodecError, decode_message, encode_message
from repro.store import (
    KVStore,
    OpClass,
    ProcedureRegistry,
    TxnContext,
)
from repro.workloads import register_counters_procedures

# -- registry declarations --------------------------------------------------

def test_registry_defaults_to_generic():
    registry = ProcedureRegistry()
    registry.register("noop", lambda ctx, args: None)
    assert registry.op_class("noop") == OpClass.GENERIC
    assert registry.merge_fn("noop") is None


def test_registry_rejects_unknown_op_class():
    registry = ProcedureRegistry()
    with pytest.raises(ValueError, match="unknown op_class"):
        registry.register("bad", lambda ctx, args: None,
                          op_class="sometimes-commutes")


def test_registry_rejects_merge_on_non_commutative():
    registry = ProcedureRegistry()
    with pytest.raises(ValueError, match="COMMUTATIVE"):
        registry.register("r", lambda ctx, args: None,
                          op_class=OpClass.READ_ONLY,
                          merge=lambda a, b: a)


def test_registry_op_class_unknown_procedure_raises():
    registry = ProcedureRegistry()
    with pytest.raises(UnknownProcedureError):
        registry.op_class("ghost")
    with pytest.raises(UnknownProcedureError):
        registry.merge_fn("ghost")


def test_counters_procedures_declare_their_classes():
    registry = ProcedureRegistry()
    register_counters_procedures(registry)
    assert registry.op_class("counter_read") == OpClass.READ_ONLY
    assert registry.op_class("counter_add") == OpClass.COMMUTATIVE
    assert registry.op_class("tag_add") == OpClass.COMMUTATIVE
    assert registry.op_class("counter_reset") == OpClass.GENERIC


def test_counters_merge_fns_commute():
    """The declared combine functions really are commutative — the
    algebraic claim the early-apply relaxation rests on."""
    registry = ProcedureRegistry()
    register_counters_procedures(registry)
    add = registry.merge_fn("counter_add")
    union = registry.merge_fn("tag_add")
    assert add is not None and union is not None
    for a, b in [(0, 7), (3, -2), (10, 10)]:
        assert add(a, b) == add(b, a)
    for a, b in [((), ("x",)), (("a", "b"), ("b", "c"))]:
        assert union(a, b) == union(b, a)
        assert union(a, union(a, b)) == union(a, b)   # idempotent join


def test_counter_add_effect_commutes_on_the_store():
    """Executing two counter_add procedures in either order leaves the
    store in the same state (effect-level commutativity, not just the
    declared merge function)."""
    registry = ProcedureRegistry()
    register_counters_procedures(registry)

    def run(order):
        store = KVStore()
        store.put(1, 0)
        for delta in order:
            ctx = TxnContext(store)
            registry.execute("counter_add", ctx,
                             {"keys": (1,), "delta": delta})
        return store.get(1)

    assert run((5, -3)) == run((-3, 5)) == 2


# -- transaction validators -------------------------------------------------

def _txn(**kwargs):
    base = dict(txn_id=TxnId(client="c", seq=1), proc="p", args={},
                participants=(0,))
    base.update(kwargs)
    return IndependentTransaction(**base)


def test_txn_rejects_unknown_op_class():
    with pytest.raises(ValueError, match="unknown op_class"):
        _txn(op_class="mostly-reads")


def test_txn_rejects_read_only_with_write_keys():
    with pytest.raises(ValueError, match="read_only"):
        _txn(op_class="read_only", write_keys=frozenset({1}))


def test_txn_rejects_non_generic_general_halves():
    # Preliminary/conclusory halves of general transactions hold locks;
    # they must never slip onto a relaxed path.
    for kind in ("preliminary", "conclusory"):
        with pytest.raises(ValueError, match="must be generic"):
            _txn(kind=kind, op_class="commutative")


def test_txn_accepts_declared_classes():
    assert _txn(op_class="read_only",
                read_keys=frozenset({1})).op_class == "read_only"
    assert _txn(op_class="commutative",
                write_keys=frozenset({1})).op_class == "commutative"


# -- wire codec -------------------------------------------------------------

def _commutative_txn():
    return IndependentTransaction(
        txn_id=TxnId(client="client-3", seq=9), proc="counter_add",
        args={"keys": (4, 104), "delta": 2}, participants=(0, 1),
        write_keys=frozenset({4, 104}), op_class="commutative")


@CARRIAGES
def test_op_class_survives_roundtrip(carriage):
    for op_class, write_keys in [("generic", frozenset({1})),
                                 ("commutative", frozenset({1})),
                                 ("read_only", frozenset())]:
        txn = _txn(op_class=op_class, write_keys=write_keys)
        decoded = carriage.decode(carriage.encode(txn))
        assert decoded == txn
        assert decoded.op_class == op_class


@CARRIAGES
def test_fast_path_messages_roundtrip(carriage):
    txn = _commutative_txn()
    messages = [
        CommutativeTxnRequest(txn=txn, barriers=((0, 4), (1, 9))),
        AppliedUpto(shard=1, epoch=2, upto=117, sender="eris-r1.2"),
        FastReadRequest(txn=_txn(op_class="read_only",
                                 read_keys=frozenset({4})),
                        min_epoch=2),
        FastReadReply(txn_id=TxnId(client="c", seq=1), shard=0,
                      committed=True, result={4: 7}, epoch_num=2,
                      applied_seq=41),
        IndependentTxnRequest(txn=txn),
    ]
    for message in messages:
        assert carriage.decode(carriage.encode(message)) == message


@CARRIAGES
def test_forged_op_class_rejected_on_decode(carriage):
    """A byte-patched frame cannot smuggle an undeclared op-class past
    the transaction validator: decode re-runs ``__post_init__``."""
    buffer = carriage.encode(_commutative_txn())
    assert buffer.count(b"commutative") == 1
    forged = buffer.replace(b"commutative", b"commutatiVe")
    with pytest.raises(CodecError):
        carriage.decode(forged)


def test_forged_read_only_writer_rejected_on_decode():
    """Rewriting a generic writer's class to ``read_only`` — length
    prefix included, so the frame stays well-formed — trips the
    no-write-keys validator during decode."""
    txn = IndependentTransaction(
        txn_id=TxnId(client="c", seq=2), proc="reset", args={},
        participants=(0,), write_keys=frozenset({"acct"}),
        op_class="generic")
    buffer = encode_message(txn)
    generic = bytes([C._T_STR, len(b"generic")]) + b"generic"
    assert buffer.count(generic) == 1
    forged = buffer.replace(
        generic, bytes([C._T_STR, len(b"read_only")]) + b"read_only")
    with pytest.raises(CodecError, match="read_only"):
        decode_message(forged)
