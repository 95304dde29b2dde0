"""Wire-codec properties: every registered message round-trips.

The refactor to a runtime/transport abstraction made the codec the
boundary every real-transport message crosses, so its contract is
checked exhaustively here:

- every dataclass in the wire registry round-trips
  ``decode(encode(m)) == m``, both with all optional fields populated
  and with every optional left at ``None``/default — nested composites
  (MultiStamp inside TxnRecord inside HasTxn, logs of entries inside
  ViewChange) included;
- round-trips hold both for a bare message frame and for a packet
  payload received through ``decode_datagram``;
- packets round-trip with headers and ids intact, and a fan-out copy
  encoded over its shared tail is byte-identical to a full encode;
- a read of an absent key (``MISSING``) crosses the wire as itself;
- unknown message types, truncated buffers, foreign bytes, and
  malformed frames raise the typed :class:`CodecError`, never a bare
  ``KeyError``/``IndexError``.
"""

from __future__ import annotations

import dataclasses
import sys
import typing

import pytest

from conftest import CARRIAGES
from repro.core.log import ErisLog, LogEntry, ReplicaSnapshot
from repro.core.messages import (
    HasTxn,
    IndependentTxnRequest,
    PeerTxnResponse,
    TxnRecord,
    TxnReply,
    ViewChange,
)
from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.runtime import codec
from repro.runtime.codec import (
    CodecError,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    encode_packet_tail,
    registered_message_types,
    wire_type_table,
)
from repro.store import MISSING

# -- generic sample fabrication -------------------------------------------
#
# Build an instance of every registered wire dataclass from its type
# hints. The goal is breadth (the whole registry, enforced below), with
# the trickiest nesting covered again by hand-built cases.

_SAMPLE_TXN_ID = TxnId(client="client-1", seq=7)
_SAMPLE_SLOT = SlotId(shard=1, epoch=2, seq=33)
_SAMPLE_STAMP = MultiStamp(epoch=2, stamps=((0, 11), (1, 12)))
_SAMPLE_TXN = IndependentTransaction(
    txn_id=_SAMPLE_TXN_ID, proc="ycsb_rmw", args={"keys": (3, 4)},
    participants=(0, 1), read_keys=frozenset({3, 4}),
    write_keys=frozenset({4}), kind="independent")
_SAMPLE_RECORD = TxnRecord(txn=_SAMPLE_TXN, multistamp=_SAMPLE_STAMP)


def _sample_for(hint, field_name: str):
    """A populated sample value for one type hint."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X] and friends
        inner = [a for a in args if a is not type(None)]
        return _sample_for(inner[0], field_name)
    if hint is typing.Any:
        return {"answer": 42, "tags": ("a", "b")}
    if hint is str:
        return f"{field_name}-value"
    if hint is bool:
        return True
    if hint is int:
        return 3
    if hint is float:
        return 1.25
    if hint is bytes:
        return b"\x00\x01wire"
    if hint is dict or origin is dict:
        return {"key": 9, (1, 2): "tuple-keyed"}
    if hint is frozenset or origin is frozenset:
        return frozenset({1, 2})
    if hint is set or origin is set:
        return {1, 2}
    if hint is tuple or origin is tuple:
        if field_name == "log":
            return (_SAMPLE_RECORD,)
        if args and args[-1] is Ellipsis:
            return (_sample_for(args[0], field_name),
                    _sample_for(args[0], field_name + "2"))
        if args:
            return tuple(_sample_for(a, f"{field_name}{i}")
                         for i, a in enumerate(args))
        return (1, 2)
    if hint is list or origin is list:
        return [1, 2]
    if dataclasses.is_dataclass(hint):
        return _fabricate(hint, populate_optionals=True)
    raise AssertionError(
        f"no sample rule for field {field_name!r} of type {hint!r}")


_FIELD_OVERRIDES = {
    # Constructor-validated fields need well-formed values.
    "participants": (0, 1),
    "stamps": ((0, 5), (1, 6)),
    "groups": (0, 1),
    # Self-referential / loosely-typed protocol fields.
    "txn": _SAMPLE_TXN,
    "record": _SAMPLE_RECORD,
    "entry": _SAMPLE_RECORD,
    "op": ("prepare", "tag-1"),          # VR's opaque replicated op
    "ops": (("prepare", "tag-1"), ("commit", "tag-2")),
    "op_class": "generic",               # validated against OpClass.ALL
    "kind": "independent",               # validated transaction kind
}


def _fabricate(cls, populate_optionals: bool):
    """An instance of ``cls`` with every field set (or optionals left
    at their defaults when ``populate_optionals`` is False)."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        has_default = (field.default is not dataclasses.MISSING
                       or field.default_factory is not dataclasses.MISSING)
        if not populate_optionals and has_default:
            continue
        if field.name in _FIELD_OVERRIDES:
            kwargs[field.name] = _FIELD_OVERRIDES[field.name]
            continue
        kwargs[field.name] = _sample_for(hints[field.name], field.name)
    return cls(**kwargs)


def _registry_ids():
    return sorted(registered_message_types())


@CARRIAGES
@pytest.mark.parametrize("name", _registry_ids())
def test_every_registered_message_roundtrips_fully_populated(name, carriage):
    cls = registered_message_types()[name]
    message = _fabricate(cls, populate_optionals=True)
    assert carriage.decode(carriage.encode(message)) == message


@CARRIAGES
@pytest.mark.parametrize("name", _registry_ids())
def test_every_registered_message_roundtrips_with_defaults(name, carriage):
    """Optional/None-bearing fields kept at their declared defaults."""
    cls = registered_message_types()[name]
    message = _fabricate(cls, populate_optionals=False)
    assert carriage.decode(carriage.encode(message)) == message


def test_registry_covers_the_whole_protocol_surface():
    """The registry is the wire contract: all five protocol families
    must be present, and nothing in it may be unfabricatable."""
    names = set(registered_message_types())
    for required in ("IndependentTxnRequest", "TxnReply", "FindTxn",
                     "ViewChange", "EpochChangeReq", "VRPrepare",
                     "SequencerPing", "LSPrepare", "GRequest",
                     "NTURExecute", "TPrepare", "MultiStamp",
                     "GroupcastHeader", "TxnRecord"):
        assert required in names
    assert len(names) >= 50


def test_type_table_does_not_depend_on_what_a_process_imported():
    """Type ids are indexes into the sorted registry, so a per-node
    driver and its workers agree only if they register the same set. A
    process that imports nothing but the codec must derive the table
    this process (which imported the whole harness) derives."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.runtime.codec import wire_type_table; "
         "print(','.join(wire_type_table()))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=60).stdout.strip()
    assert out.split(",") == list(wire_type_table())
    assert "WorkerHello" in out and "ReplicaSnapshot" in out


def test_codec_registry_loads_no_harness_module():
    """The runtime sits below the harness: filling the codec's type
    table in a fresh process imports no ``repro.harness`` module."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.runtime import codec; "
         "codec._ensure_registry(); "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('repro.harness')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=60).stdout.strip()
    assert out == "[]"


# -- hand-built nesting cases ---------------------------------------------

@CARRIAGES
def test_deep_nesting_roundtrips(carriage):
    """HasTxn -> TxnRecord -> IndependentTransaction + MultiStamp, and
    a ViewChange carrying a log tuple of records plus frozensets of
    slots."""
    has = HasTxn(slot=_SAMPLE_SLOT, record=_SAMPLE_RECORD, sender="r0.1")
    assert carriage.decode(carriage.encode(has)) == has

    view_change = ViewChange(
        shard=1, new_view=4, epoch_num=2,
        log=(_SAMPLE_RECORD, TxnRecord(txn=None, multistamp=_SAMPLE_STAMP)),
        temp_drops=frozenset({_SAMPLE_SLOT}),
        perm_drops=frozenset({SlotId(0, 1, 2)}),
        un_drops=frozenset(), sender="r1.2")
    decoded = carriage.decode(carriage.encode(view_change))
    assert decoded == view_change
    assert isinstance(decoded.log[0].multistamp, MultiStamp)


@CARRIAGES
def test_none_bearing_optionals_roundtrip(carriage):
    """Optional fields explicitly set to None survive the wire."""
    response = PeerTxnResponse(slot=_SAMPLE_SLOT, entry=None,
                               sender="r0.2", dropped=True)
    decoded = carriage.decode(carriage.encode(response))
    assert decoded == response
    assert decoded.entry is None

    record = TxnRecord(txn=None, multistamp=_SAMPLE_STAMP)
    assert carriage.decode(carriage.encode(record)) == record


@CARRIAGES
def test_scalars_and_composites_roundtrip_exactly(carriage):
    for value in (None, True, False, 0, -17, 3.5, 1e-9, "text", b"bytes",
                  (1, "two", None), [1, [2, [3]]], {"k": (1, 2)},
                  {(0, 1): "tuple key"}, frozenset({1, 2}), {3, 4}):
        decoded = carriage.decode(carriage.encode(value))
        assert decoded == value
        assert type(decoded) is type(value)


@CARRIAGES
def test_packet_roundtrip_preserves_headers_and_ids(carriage):
    packet = Packet(src="client-1", dst=None,
                    payload=HasTxn(slot=_SAMPLE_SLOT, record=_SAMPLE_RECORD,
                                   sender="r0.1"),
                    groupcast=GroupcastHeader(groups=(0, 1)),
                    multistamp=_SAMPLE_STAMP, sequenced=True)
    decoded = carriage.decode_packet(encode_packet(packet))
    assert decoded.src == packet.src
    assert decoded.dst is None
    assert decoded.payload == packet.payload
    assert decoded.groupcast == packet.groupcast
    assert decoded.multistamp == packet.multistamp
    assert decoded.sequenced is True
    assert decoded.packet_id == packet.packet_id
    assert decoded.trace_id == packet.trace_id


@pytest.mark.parametrize("trace_id", [None, 41], ids=["untraced", "traced"])
def test_fan_out_copies_with_a_shared_tail_encode_byte_identically(trace_id):
    """A fan-out encodes the groupcast header, multi-stamp and payload
    once; each copy then writes only its own header. The frames must
    equal a plain encode of the copy, byte for byte."""
    packet = Packet(src="client-1", dst=None,
                    payload=IndependentTxnRequest(_SAMPLE_TXN),
                    groupcast=GroupcastHeader(groups=(0, 1)),
                    multistamp=_SAMPLE_STAMP, sequenced=True,
                    trace_id=trace_id)
    tail = encode_packet_tail(packet)
    for dst in ("r0.0", "r0.1", "r0.2", "r1.0", "r1.1", "r1.2"):
        copy = packet.copy_to(dst)
        frame = encode_packet(copy, tail)
        assert frame == encode_packet(copy)
        assert frame.endswith(tail)
        decoded = decode_packet(frame)
        assert (decoded.dst, decoded.packet_id, decoded.trace_id) == \
            (dst, copy.packet_id, trace_id)
        assert decoded.multistamp == _SAMPLE_STAMP
        assert decoded.payload == packet.payload


@CARRIAGES
def test_slotted_log_classes_have_no_dict_and_roundtrip(carriage):
    """LogEntry, SlotId, TxnRecord and MultiStamp sit in every log entry
    at every replica, so they carry no per-instance ``__dict__``; the
    codec still carries them inside recovery and view-change frames."""
    entry = LogEntry(index=1, slot=_SAMPLE_SLOT, kind="txn",
                     record=_SAMPLE_RECORD)
    for value in (entry, _SAMPLE_SLOT, _SAMPLE_RECORD, _SAMPLE_STAMP):
        assert not hasattr(value, "__dict__")
    view_change = ViewChange(
        shard=1, new_view=4, epoch_num=2, log=(entry, entry.as_noop()),
        temp_drops=frozenset({_SAMPLE_SLOT}), perm_drops=frozenset(),
        un_drops=frozenset({SlotId(0, 2, 9)}), sender="r1.2")
    for message in (_SAMPLE_RECORD, view_change,
                    PeerTxnResponse(slot=_SAMPLE_SLOT, entry=_SAMPLE_RECORD,
                                    sender="r0.2")):
        assert carriage.decode(carriage.encode(message)) == message
    decoded = carriage.decode(carriage.encode(view_change)).log[0]
    assert type(decoded) is LogEntry
    assert type(decoded.record.multistamp) is MultiStamp


@CARRIAGES
def test_replica_snapshot_with_a_cut_roundtrips(carriage):
    """Per-node workers ship ``ReplicaSnapshot``s to the checkers: the
    channel position, the status and the cut summary of a log that
    was cut must cross intact, and the summary must still yield the
    cut prefix's commit order."""
    log = ErisLog(1)
    log.append_txn(SlotId(1, 2, 1), _SAMPLE_RECORD)
    log.append_noop(SlotId(1, 2, 2))
    log.append_txn(SlotId(1, 2, 3), _SAMPLE_RECORD)
    log.cut(2)
    snapshot = ReplicaSnapshot(
        address="eris-r1.0", shard=1, replica_index=0, view_num=3,
        is_dl=True, crashed=False, fed=3, entries=tuple(log),
        store=((3, 4),), status="view-change", channel=(2, 4),
        cut=log.summary())
    decoded = carriage.decode(carriage.encode(snapshot))
    assert decoded == snapshot
    assert decoded.last_index == 3
    assert list(decoded.cut.txns()) == [(_SAMPLE_TXN_ID, (0, 1))]
    assert decoded.cut.base_slot == SlotId(1, 2, 2)


@CARRIAGES
def test_decoded_hot_types_are_slotted_and_strings_interned(carriage):
    """Every replica logs its own decoded copy of each request, so the
    decoded objects carry no instance ``__dict__`` and their strings
    are the one interned copy of each client id, procedure and key."""
    txn = IndependentTransaction(
        txn_id=_SAMPLE_TXN_ID, proc="ycsb_rmw", args={"keys": (3, 4)},
        participants=(0, 1), read_keys=frozenset({3, 4}),
        write_keys=frozenset({4, 3}), floor_gap=0)
    request = IndependentTxnRequest(txn)
    decoded = carriage.decode(carriage.encode(request))
    assert decoded == request
    record = TxnRecord(txn=decoded.txn, multistamp=_SAMPLE_STAMP)
    for value in (decoded.txn, decoded.txn.txn_id, record,
                  carriage.decode(carriage.encode(record)).multistamp):
        assert not hasattr(value, "__dict__")
    assert decoded.txn.proc is sys.intern("ycsb_rmw")
    assert decoded.txn.txn_id.client is sys.intern("client-1")
    assert next(iter(decoded.txn.args)) is sys.intern("keys")
    # A read-modify-write's equal key sets are kept once.
    assert decoded.txn.write_keys is decoded.txn.read_keys
    assert decoded.txn.floor == _SAMPLE_TXN_ID.seq


@CARRIAGES
def test_only_short_strings_are_interned_and_only_a_bounded_number(
        carriage, monkeypatch):
    """CPython 3.12 never frees an interned string, so payload strings
    are not interned: long ones never, short ones only until the shared
    table is full."""
    long_value = "customer-data-" * 4
    first, second = (carriage.decode(carriage.encode([long_value]))[0]
                     for _ in range(2))
    assert first == second == long_value and first is not second
    monkeypatch.setattr(codec, "_SHARED_MAX", len(codec._SHARED))
    fresh = "fresh-%d" % id(monkeypatch)
    first, second = (carriage.decode(carriage.encode([fresh]))[0]
                     for _ in range(2))
    assert first == second == fresh and first is not second
    assert fresh not in codec._SHARED
    assert carriage.decode(carriage.encode(["keys"]))[0] is sys.intern("keys")


def test_forged_completion_floor_rejected_on_decode():
    """A floor above the request's own seq would make replicas forget
    outcomes the client still waits for; the validator runs on the
    slotted decode path and rejects it."""
    txn = IndependentTransaction(
        txn_id=TxnId(client="c", seq=5), proc="p", args={},
        participants=(0,), floor_gap=5)
    buffer = encode_message(txn)
    assert decode_message(buffer) == txn
    gap = bytes([0x80 | 5])
    assert buffer.endswith(gap)
    with pytest.raises(CodecError, match="floor"):
        decode_message(buffer[:-1] + bytes([0x80 | 6]))


def test_missing_read_result_roundtrips_as_the_singleton():
    """A read of an absent key returns ``MISSING``; a reply carrying it
    must cross the wire and still satisfy ``value is MISSING``."""
    reply = TxnReply(txn_id=_SAMPLE_TXN_ID, txn_index=3, view_num=0,
                     epoch_num=1, shard=0, replica_index=1, is_dl=True,
                     result={"user7": MISSING, "user8": 5})
    decoded = decode_message(encode_message(reply))
    assert decoded == reply
    assert decoded.result["user7"] is MISSING
    packet = decode_packet(encode_packet(Packet(src="r0.1", dst="client-1",
                                                payload=reply)))
    assert packet.payload.result["user7"] is MISSING


# -- typed failures --------------------------------------------------------

def test_unknown_message_type_raises_codec_error():
    good = encode_message(_SAMPLE_TXN_ID)
    table = wire_type_table()
    # One-byte interned ids: magic, message tag, then the id itself.
    assert good[5] == table.index("TxnId") and len(table) < 0x80
    bad = good[:5] + bytes([len(table)]) + good[6:]
    with pytest.raises(CodecError, match="unknown interned wire type id"):
        decode_message(bad)


@CARRIAGES
def test_truncated_buffer_raises_codec_error(carriage):
    buffer = carriage.encode(_SAMPLE_RECORD)
    for cut in (0, 1, 3, len(buffer) // 2, len(buffer) - 1):
        with pytest.raises(CodecError):
            carriage.decode(buffer[:cut])


def test_foreign_bytes_raise_codec_error():
    with pytest.raises(CodecError, match="bad magic"):
        decode_message(b"GET / HTTP/1.1\r\n")
    with pytest.raises(CodecError):
        decode_packet(encode_message("not a packet envelope"))


def test_wrong_field_count_raises_codec_error():
    """Fields travel positionally: a frame one field short runs out of
    bytes, and one field long leaves trailing bytes."""
    good = encode_message(_SAMPLE_SLOT)        # SlotId(1, 2, 33)
    assert good[-1] == 0x80 | 33               # last field, a small int
    with pytest.raises(CodecError, match="truncated"):
        decode_message(good[:-1])
    with pytest.raises(CodecError, match="trailing"):
        decode_message(good + bytes([0x80 | 34]))


def test_unregistered_dataclass_encode_raises_codec_error():
    @dataclasses.dataclass
    class NotOnTheWire:
        x: int

    with pytest.raises(CodecError, match="unregistered"):
        encode_message(NotOnTheWire(x=1))


# -- sequencer control plane -----------------------------------------------

@CARRIAGES
def test_chain_install_control_plane_roundtrips(carriage):
    from repro.net.sequencer import SequencerInstall, SequencerInstallAck

    for msg in (SequencerInstall(epoch=2), SequencerInstallAck(epoch=2)):
        assert carriage.decode(carriage.encode(msg)) == msg


def test_chain_messages_are_registered():
    names = set(registered_message_types())
    assert {"SequencerInstall", "SequencerInstallAck"} <= names
    assert not names & {"ChainInstall", "ChainInstallAck", "ChainForward",
                        "ChainStateRequest", "ChainState"}
