"""Adversarial wire-codec corpus.

The codec is the trust boundary of every real transport: whatever
arrives over a socket must either decode to exactly what was sent or
raise the typed :class:`CodecError` — never a bare ``KeyError``,
``UnicodeDecodeError``, ``RecursionError``, or silently-wrong value.
This file attacks the EWC2 wire format with:

- truncation at *every* byte offset of every corpus frame;
- cuts and corruption inside multi-byte UTF-8 sequences;
- nesting beyond ``MAX_DEPTH``;
- duplicate dict keys / set elements in forged frames;
- unknown interned type ids and out-of-range string back-references;
- frames of the retired tagged-JSON format, which are foreign bytes;
- non-finite floats and type-narrowing subclasses at encode time;
- constructor validators re-run on decode (a forged frame cannot
  smuggle an invalid message past ``__post_init__``);
- datagram framing: one datagram is exactly one packet frame.

The truncation, corruption and encode-strictness sweeps run both on
bare message frames and on packet payloads received through
``decode_datagram`` (the ``CARRIAGES`` cases in ``conftest``).
"""

from __future__ import annotations

import dataclasses
import enum

import pytest

from conftest import CARRIAGES
from repro.core.log import LogEntry
from repro.core.messages import (
    IndependentTxnRequest,
    SyncLog,
    TxnRecord,
    TxnReply,
)
from repro.core.transaction import IndependentTransaction, SlotId, TxnId
from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.runtime import codec as C
from repro.runtime.codec import (
    MAX_DEPTH,
    CodecError,
    decode_datagram,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
)

_TXN = IndependentTransaction(
    txn_id=TxnId(client="client-9", seq=3),
    proc="rmw", args={"k": ("a", "b"), "δελτα": 1},   # non-ASCII key
    participants=(0, 1), read_keys=frozenset({"a"}),
    write_keys=frozenset({"b"}))


def _corpus():
    """Messages spanning every composite kind plus non-ASCII text."""
    return [
        _TXN,
        tuple(TxnReply(txn_id=TxnId(client="c", seq=i), txn_index=i,
                       view_num=0, epoch_num=1, shard=0, replica_index=2,
                       is_dl=True, committed=True, result={"k": i})
              for i in range(3)),
        {"héllo→𝔘": ["𝔘nicode", b"\x00\xff", (1.5, -2)],
         (0, "t"): frozenset({"x", "y"})},
        MultiStamp(epoch=1, stamps=((0, 1), (1, 2))),
    ]


# -- truncation sweeps ------------------------------------------------------

@CARRIAGES
def test_truncation_at_every_byte_raises_codec_error(carriage):
    """No prefix of a valid frame may decode (to anything)."""
    for message in _corpus():
        buffer = carriage.encode(message)
        for cut in range(len(buffer)):
            with pytest.raises(CodecError):
                carriage.decode(buffer[:cut])


@CARRIAGES
def test_packet_truncation_at_every_byte_raises_codec_error(carriage):
    packet = Packet(src="client-9", dst=None, payload=_TXN,
                    groupcast=GroupcastHeader((0, 1)),
                    multistamp=MultiStamp(epoch=1, stamps=((0, 9),)),
                    sequenced=True, trace_id=77)
    buffer = encode_packet(packet)
    for cut in range(len(buffer)):
        with pytest.raises(CodecError):
            carriage.decode_packet(buffer[:cut])


@CARRIAGES
def test_trailing_bytes_rejected(carriage):
    buffer = carriage.encode(_TXN)
    with pytest.raises(CodecError):
        carriage.decode(buffer + b"\x00")


@CARRIAGES
def test_corrupted_utf8_rejected(carriage):
    """Flipping bytes inside a multi-byte UTF-8 run must not produce a
    silently different string: it decodes equal or raises CodecError."""
    message = ("𝔘nicode-𝔴ide", "héllo")
    buffer = bytearray(carriage.encode(message))
    seen_error = False
    for pos in range(4, len(buffer)):
        corrupted = bytes(buffer[:pos]) + b"\xff" + bytes(buffer[pos + 1:])
        try:
            carriage.decode(corrupted)
        except CodecError:
            seen_error = True
    assert seen_error


# -- per-class layouts -------------------------------------------------------

_KEYS = frozenset({17, 1504})
_RMW = IndependentTransaction(
    txn_id=TxnId(client="client-2", seq=300), proc="ycsb_rmw",
    args={"keys": (17, 1504)}, participants=(0, 1), read_keys=_KEYS,
    write_keys=_KEYS, floor_gap=0)
_STAMP = MultiStamp(epoch=1, stamps=((0, 41), (1, 40)))


def _layout_packets():
    """The hot frames in the layouts that skip default-valued fields: a
    stamped RMW request (one key set travelling once, a stable-point
    relay), a follower's reply (every defaulted field absent), and a
    SyncLog carrying a log entry."""
    entry = LogEntry(index=41, slot=SlotId(shard=0, epoch=1, seq=41),
                     kind="txn", record=TxnRecord(txn=_RMW,
                                                  multistamp=_STAMP))
    return {
        "stamped-request": Packet(
            src="eris-seq0", dst="eris-r0.1",
            payload=IndependentTxnRequest(_RMW, stable=(1, 1, 39)),
            groupcast=GroupcastHeader((0, 1)), multistamp=_STAMP,
            sequenced=True, trace_id=12),
        "reply": Packet(
            src="eris-r0.1", dst="client-2",
            payload=TxnReply(txn_id=_RMW.txn_id, txn_index=41, view_num=0,
                             epoch_num=1, shard=0, replica_index=1,
                             is_dl=False)),
        "sync-log": Packet(
            src="eris-r0.0", dst="eris-r0.2",
            payload=SyncLog(shard=0, view_num=0, epoch_num=1,
                            from_index=41, entries=(entry,),
                            commit_upto=41, stable=38)),
    }


@pytest.mark.parametrize("name", sorted(_layout_packets()))
def test_layout_truncation_at_every_byte_raises_codec_error(name):
    packet = _layout_packets()[name]
    frame = encode_packet(packet)
    assert decode_datagram(frame) == packet
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_datagram(frame[:cut])


def test_default_valued_fields_stay_off_the_wire():
    """A follower's reply carries no ``committed``/``result``/``stable``
    and a request none of ``"independent"``/``"generic"``/``stable``;
    an RMW's key set travels once."""
    packets = _layout_packets()
    reply = encode_message(packets["reply"].payload)
    assert reply[len(C._MAGIC) + 2] == 0         # presence byte: none
    request = encode_message(IndependentTxnRequest(_RMW))
    for default in (b"independent", b"generic"):
        assert default not in request
    assert request.count(bytes([C._T_FSET, 2])) == 1
    assert request.count(bytes([C._T_PREV])) == 1
    decoded = decode_message(request).txn
    assert decoded == _RMW and decoded.write_keys is decoded.read_keys


def _presence_offset(frame: bytes) -> int:
    assert frame[len(C._MAGIC)] == C._T_MSG and frame[5] < 0x80
    return len(C._MAGIC) + 2


@pytest.mark.parametrize("message", [
    TxnReply(txn_id=TxnId(client="c", seq=1), txn_index=1, view_num=0,
             epoch_num=1, shard=0, replica_index=1, is_dl=False),
    IndependentTxnRequest(_RMW),
    _RMW,
], ids=["reply", "request", "transaction"])
def test_forged_presence_bit_beyond_the_fields_rejected(message):
    """Each bit of the presence byte names one defaulted field; a bit
    past the class's last one is a forgery, whatever follows it."""
    frame = encode_message(message)
    at = _presence_offset(frame)
    defaulted = sum(f.default is not dataclasses.MISSING
                    for f in dataclasses.fields(message))
    for bit in range(defaulted, 8):
        forged = frame[:at] + bytes([frame[at] | 1 << bit]) + frame[at + 1:]
        with pytest.raises(CodecError, match="presence bit beyond"):
            decode_message(forged)


@pytest.mark.parametrize("cls", [TxnReply, IndependentTxnRequest, SyncLog])
def test_forged_frame_without_its_required_fields_rejected(cls):
    """A required field has no presence bit, so no frame can mark it
    absent: a frame of the message tag, the type id and a presence
    byte saying every defaulted field is absent runs out of bytes where
    the first required field must be."""
    type_id = C.wire_type_table().index(cls.__name__)
    frame = bytes(C._MAGIC) + bytes([C._T_MSG, type_id, 0x00])
    with pytest.raises(CodecError, match="truncated"):
        decode_message(frame)


def test_forged_same_as_previous_field_rejected():
    """``_T_PREV`` stands only for a frozenset field that is the
    frozenset field before it: anywhere else it is an unknown tag."""
    frame = encode_message(_RMW)
    keys = encode_message(_KEYS)[len(C._MAGIC):]
    assert frame.count(keys) == 1
    # The read set follows the participants tuple, not a frozenset.
    forged = frame.replace(keys, bytes([C._T_PREV]))
    with pytest.raises(CodecError, match="unknown"):
        decode_message(forged)
    # A message of another class, where no field pair qualifies.
    reply = encode_message(_layout_packets()["reply"].payload)
    with pytest.raises(CodecError, match="unknown"):
        decode_message(reply[:-1] + bytes([C._T_PREV]))


# -- resource-exhaustion forgeries -----------------------------------------

@CARRIAGES
def test_nesting_beyond_max_depth_rejected(carriage):
    value = "leaf"
    for _ in range(MAX_DEPTH + 10):
        value = [value]
    with pytest.raises(CodecError, match="nesting"):
        carriage.encode(value)


def test_forged_deep_nesting_frame_rejected_on_decode():
    # A decoder-side forgery: EWC2 list-of-list headers repeated past
    # the depth bound without ever being encodable locally.
    frame = bytearray(C._MAGIC)
    for _ in range(MAX_DEPTH + 10):
        frame += bytes([C._T_LIST, 0x01])
    frame += bytes([0x80])
    with pytest.raises(CodecError, match="nesting"):
        decode_message(bytes(frame))


# -- duplicate keys ---------------------------------------------------------

def test_ewc2_duplicate_dict_keys_rejected():
    frame = bytes(C._MAGIC) + bytes(
        [C._T_DICT, 0x02, 0x81, 0x80, 0x81, 0x80])  # {1: 0, 1: 0}
    with pytest.raises(CodecError, match="duplicate dict keys"):
        decode_message(frame)


def test_ewc2_duplicate_set_elements_rejected():
    frame = bytes(C._MAGIC) + bytes([C._T_SET, 0x02, 0x81, 0x81])
    with pytest.raises(CodecError, match="duplicate set elements"):
        decode_message(frame)


# -- EWC2 byte-level forgeries ----------------------------------------------

def test_ewc2_unknown_interned_type_id_rejected():
    out = bytearray(C._MAGIC)
    out.append(C._T_MSG)
    C._write_uvarint(out, 60_000)          # far past the registry
    with pytest.raises(CodecError, match="unknown interned wire type id"):
        decode_message(bytes(out))


def test_ewc2_string_backreference_out_of_range_rejected():
    frame = bytes(C._MAGIC) + bytes([C._T_SREF, 0x05])
    with pytest.raises(CodecError, match="back-reference"):
        decode_message(frame)
    # Same probe nested in a container (exercises the inline peek path,
    # which must bounds-check exactly like the recursive path).
    nested = bytes(C._MAGIC) + bytes([C._T_TUPLE, 0x01, C._T_SREF, 0x05])
    with pytest.raises(CodecError, match="back-reference"):
        decode_message(nested)


def test_ewc2_unknown_tag_rejected():
    with pytest.raises(CodecError):
        decode_message(bytes(C._MAGIC) + bytes([0x7F]))


def test_ewc1_magic_is_a_foreign_buffer():
    """Frames of the retired tagged-JSON format (magic ``EWC1``), of
    the retired multi-frame datagram container (magic ``EWCB``) and of
    the positional layout without presence bytes (magic ``EWC2``) are
    foreign bytes: every decode entry point rejects them."""
    frame = encode_packet(Packet(src="a", dst="b", payload=None))
    retired = (b'EWC1["t","s","d",1,null,null,false,0,null]',
               b"EWCB\x01" + bytes([len(frame)]) + frame,
               b"EWC2" + frame[len(C._MAGIC):])
    for buffer in retired:
        for decode in (decode_message, decode_packet, decode_datagram):
            with pytest.raises(CodecError, match="bad magic"):
                decode(buffer)


def test_ewc2_string_interning_handles_more_than_128_strings():
    """Frames interning >128 strings need multi-byte back-references;
    the single-byte fast path must not misread a varint continuation
    byte as a reference."""
    uniques = tuple(f"string-number-{i:04d}" for i in range(300))
    message = uniques + uniques          # every string repeated once
    buffer = encode_message(message)
    assert decode_message(buffer) == message
    # Interning must actually fire: the repeat half is far smaller
    # than a second copy of the unique half.
    single = encode_message(uniques)
    assert len(buffer) < 2 * len(single) - 2000


# -- encode-time strictness -------------------------------------------------

@CARRIAGES
def test_non_finite_floats_rejected(carriage):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(CodecError):
            carriage.encode({"v": bad})


@CARRIAGES
def test_type_narrowing_subclasses_rejected(carriage):
    class Color(enum.IntEnum):
        RED = 1

    class Label(str):
        pass

    for value in (Color.RED, Label("x")):
        with pytest.raises(CodecError):
            carriage.encode(value)


# -- validators re-run on decode --------------------------------------------

def test_ewc2_forged_frame_cannot_skip_post_init_validation():
    """Patching a valid frame's participants to (0, 0) must trip the
    dataclass validator during decode, not build an invalid txn."""
    buffer = encode_message(_TXN)
    needle = bytes([C._T_TUPLE, 0x02, 0x80, 0x81])       # (0, 1)
    patched = bytes([C._T_TUPLE, 0x02, 0x80, 0x80])      # (0, 0)
    assert buffer.count(needle) == 1
    with pytest.raises(CodecError, match="duplicate participants"):
        decode_message(buffer.replace(needle, patched))


# -- datagram framing --------------------------------------------------------

def test_datagram_truncation_and_trailing_bytes_rejected():
    """A datagram is one whole packet frame: a prefix of it, or the
    frame with a second one appended, is rejected."""
    frame = encode_packet(Packet(src="s", dst="d0", payload={"i": 0}))
    assert decode_datagram(frame).payload == {"i": 0}
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_datagram(frame[:cut])
    with pytest.raises(CodecError, match="trailing"):
        decode_datagram(frame + frame)


def test_empty_datagram_rejected():
    for empty in (b"", bytearray(), memoryview(b"")):
        with pytest.raises(CodecError, match="bad magic"):
            decode_datagram(empty)
    with pytest.raises(CodecError, match="expected bytes"):
        decode_datagram(None)
