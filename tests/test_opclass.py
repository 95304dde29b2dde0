"""Operation-class plumbing: registry declarations, transaction
validators, the counters procedures' algebraic claims, and the wire
codec round-tripping (and refusing to forge) the fast-path fields and
messages."""

import pytest

from conftest import CARRIAGES
from repro.core.messages import (
    AppliedUpto,
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


def test_registry_rejects_unknown_op_class():
    registry = ProcedureRegistry()
    with pytest.raises(ValueError, match="unknown op_class"):
        registry.register("bad", lambda ctx, args: None,
                          op_class="sometimes-commutes")


def test_registry_op_class_unknown_procedure_raises():
    registry = ProcedureRegistry()
    with pytest.raises(UnknownProcedureError):
        registry.op_class("ghost")


def test_counters_procedures_declare_their_classes():
    registry = ProcedureRegistry()
    register_counters_procedures(registry)
    assert registry.op_class("counter_read") == OpClass.READ_ONLY
    assert registry.op_class("counter_add") == OpClass.GENERIC
    assert registry.op_class("tag_add") == OpClass.GENERIC
    assert registry.op_class("counter_reset") == OpClass.GENERIC


def test_counter_add_effect_commutes_on_the_store():
    """Executing two counter_add procedures in either order leaves the
    store in the same state (effect-level commutativity)."""
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
    for op_class in ("mostly-reads", "commutative"):
        with pytest.raises(ValueError, match="unknown op_class"):
            _txn(op_class=op_class)


def test_txn_rejects_read_only_with_write_keys():
    with pytest.raises(ValueError, match="read_only"):
        _txn(op_class="read_only", write_keys=frozenset({1}))


def test_txn_rejects_non_generic_general_halves():
    # Preliminary/conclusory halves of general transactions hold locks;
    # they must never slip onto a relaxed path.
    for kind in ("preliminary", "conclusory"):
        with pytest.raises(ValueError, match="must be generic"):
            _txn(kind=kind, op_class="read_only")


def test_txn_accepts_declared_classes():
    assert _txn(op_class="read_only",
                read_keys=frozenset({1})).op_class == "read_only"
    assert _txn(write_keys=frozenset({1})).op_class == "generic"


# -- wire codec -------------------------------------------------------------

def _counter_add_txn():
    return IndependentTransaction(
        txn_id=TxnId(client="client-3", seq=9), proc="counter_add",
        args={"keys": (4, 104), "delta": 2}, participants=(0, 1),
        write_keys=frozenset({4, 104}))


def _read_only_txn():
    return IndependentTransaction(
        txn_id=TxnId(client="client-3", seq=10), proc="counter_read",
        args={"key": 4}, participants=(0,), read_keys=frozenset({4}),
        op_class="read_only")


@CARRIAGES
def test_op_class_survives_roundtrip(carriage):
    for op_class, write_keys in [("generic", frozenset({1})),
                                 ("read_only", frozenset())]:
        txn = _txn(op_class=op_class, write_keys=write_keys)
        decoded = carriage.decode(carriage.encode(txn))
        assert decoded == txn
        assert decoded.op_class == op_class


@CARRIAGES
def test_fast_path_messages_roundtrip(carriage):
    txn = _counter_add_txn()
    messages = [
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


def _with_op_class(frame: bytes, op_class: bytes) -> bytes:
    """A bare IndependentTransaction frame whose op class (its fourth
    defaulted field, after which only an absent ``floor_gap`` follows)
    is forged to travel as ``op_class``: its presence bit is set and
    its value appended — a well-formed frame."""
    bitmap = len(C._MAGIC) + 2          # after the message tag and type id
    op_class_bit, floor_gap_bit = 1 << 3, 1 << 4
    assert not frame[bitmap] & (op_class_bit | floor_gap_bit)
    return (frame[:bitmap] + bytes([frame[bitmap] | op_class_bit])
            + frame[bitmap + 1:] + bytes([C._T_STR, len(op_class)])
            + op_class)


@CARRIAGES
def test_forged_op_class_rejected_on_decode(carriage):
    """A byte-patched frame cannot smuggle an undeclared op-class past
    the transaction validator: decode re-runs ``__post_init__``."""
    buffer = carriage.encode(_read_only_txn())
    assert buffer.count(b"read_only") == 1
    forged = buffer.replace(b"read_only", b"read_Only")
    with pytest.raises(CodecError):
        carriage.decode(forged)


def test_forged_commutative_class_rejected_on_decode():
    """The ``commutative`` class is gone: a generic frame rewritten to
    carry it — length prefix included, so the frame stays well-formed —
    fails the op-class validator during decode."""
    buffer = encode_message(_counter_add_txn())
    assert b"generic" not in buffer    # the default class stays off the wire
    forged = _with_op_class(buffer, b"commutative")
    with pytest.raises(CodecError, match="commutative"):
        decode_message(forged)


def test_forged_read_only_writer_rejected_on_decode():
    """Rewriting a generic writer's class to ``read_only`` — length
    prefix included, so the frame stays well-formed — trips the
    no-write-keys validator during decode."""
    txn = IndependentTransaction(
        txn_id=TxnId(client="c", seq=2), proc="reset", args={},
        participants=(0,), write_keys=frozenset({"acct"}),
        op_class="generic")
    buffer = encode_message(txn)
    assert b"generic" not in buffer
    forged = _with_op_class(buffer, b"read_only")
    with pytest.raises(CodecError, match="read_only"):
        decode_message(forged)
