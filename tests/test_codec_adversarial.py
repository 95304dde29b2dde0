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

import enum

import pytest

from conftest import CARRIAGES
from repro.core.messages import SyncLog, TxnReply
from repro.core.transaction import IndependentTransaction, TxnId
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
    """Frames of the retired tagged-JSON format (magic ``EWC1``) and of
    the retired multi-frame datagram container (magic ``EWCB``) are
    foreign bytes: every decode entry point rejects them."""
    frame = encode_packet(Packet(src="a", dst="b", payload=None))
    retired = (b'EWC1["t","s","d",1,null,null,false,0,null]',
               b"EWCB\x01" + bytes([len(frame)]) + frame)
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
