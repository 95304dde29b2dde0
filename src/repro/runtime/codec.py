"""Typed wire codec: every protocol message to and from bytes.

The simulator passes payloads between endpoints as shared Python
object references; a real transport cannot. This codec gives every
message dataclass in the repository a compact binary wire form so the
same protocol classes run over real sockets — and so the simulator can
round-trip deliveries ("paranoid codec" mode,
:attr:`repro.net.network.NetConfig.paranoid_codec`) to prove no
handler mutates a received message or relies on cross-recipient
payload aliasing.

**EWC2** is the one frame format, on the data plane and the launcher's
control plane alike. After a 4-byte magic comes one tag byte per
value, LEB128 varints for lengths and integers (zigzag for signed),
8-byte little-endian doubles, UTF-8 string bodies, and message
dataclasses as a varint *interned type id* — an index into the sorted
registered-class table — followed by the field values positionally.
Small non-negative ints (0..127) fold into the tag byte, and
:data:`repro.store.kv.MISSING` (the read result of an absent key) has
a tag of its own. Packet envelopes use a struct-packed frame header
(magic, frame tag, flags byte, varint ids, then the multicast headers).
One datagram carries exactly one packet frame (``decode_datagram``).
Scalar *subclasses* (``IntEnum``, str subclasses) are rejected at
encode time — they would silently decode as their base type — and so
are non-finite floats.

Message types are registered by class name in a module-level registry.
Decoding is defensive: a foreign magic, truncation at any byte,
trailing garbage, duplicate dict/set keys, unknown interned ids, and
nesting beyond :data:`MAX_DEPTH` all raise :class:`CodecError` rather
than an arbitrary exception.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import sys
from operator import attrgetter
from types import MemberDescriptorType as _MemberDescriptor
from typing import Any, Iterable

from repro.errors import ReproError
from repro.store.kv import MISSING


class CodecError(ReproError):
    """Raised for any encode/decode failure: unregistered or
    unsupported types, truncated buffers, malformed documents."""


_MAGIC = b"EWC2"

#: Composite nesting bound. Protocol messages nest a handful of levels;
#: a forged frame claiming unbounded nesting must fail with a typed
#: error, not a RecursionError.
MAX_DEPTH = 200

#: Class-name -> class for every registered wire dataclass.
_REGISTRY: dict[str, type] = {}
#: Class -> field names in declared order (values travel positionally).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

# EWC2 interned-type tables, derived lazily from the registry (sorted
# by class name so both ends of a connection agree on the numbering
# without negotiation). Invalidated whenever a new type registers.
_TYPE_IDS: dict[type, int] | None = None
_TYPES_BY_ID: list[type] | None = None
# How a decoded message of each registered class is rebuilt without
# running its constructor, whose per-field frozen object.__setattr__
# calls would dominate decode: a class without __slots__ gets its
# fields stored straight into a fresh instance __dict__; a __slots__
# class (the hot wire types, which sit in every log entry) gets each
# field installed through its cached member descriptor. A dataclass
# __init__ is exactly "set every field, then call __post_init__", so
# classes in _VALIDATED then run their validator explicitly and
# decoded frames keep full validation.
_DICT_NEW: set[type] = set()
_SLOT_SETTERS: dict[type, tuple] = {}
#: __slots__ class -> one C call returning its field values in order.
_SLOT_GETTERS: dict[type, Any] = {}
_VALIDATED: set[type] = set()
_object_new = object.__new__
# Decoded strings shared process-wide, so every log entry at every
# replica holds one copy of each client id, procedure name and dict
# key. Only short strings, and at most _SHARED_MAX of them, are
# interned: CPython 3.12 never frees an interned string, and a peer's
# payload strings (values, customer data) must not pin memory.
_SHARED: dict[str, str] = {}
_SHARED_MAX = 4096
_SHARED_LEN = 32


def _share(value: str) -> str:
    """The process-wide copy of the short decoded string ``value``, or
    ``value`` itself once the table is full."""
    shared = _SHARED.get(value)
    if shared is None:
        if len(_SHARED) >= _SHARED_MAX:
            return value
        shared = _SHARED[value] = sys.intern(value)
    return shared


def register_message(cls: type) -> type:
    """Register a dataclass as a wire message (usable as a decorator).
    Registration is idempotent; two *different* classes sharing a name
    would make decoding ambiguous and raise."""
    global _TYPE_IDS, _TYPES_BY_ID
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing is not cls:
            raise CodecError(
                f"duplicate wire-message name {name!r}: "
                f"{existing.__module__} vs {cls.__module__}")
        return cls
    names = tuple(f.name for f in dataclasses.fields(cls))
    if any("__slots__" in base.__dict__ for base in cls.__mro__[:-1]):
        slots = [getattr(cls, field, None) for field in names]
        if any(type(slot) is not _MemberDescriptor for slot in slots):
            raise CodecError(
                f"{name}: a __slots__ wire dataclass must keep every "
                "field in a slot")
        _SLOT_SETTERS[cls] = tuple(slot.__set__ for slot in slots)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        _SLOT_GETTERS[cls] = attrgetter(*names) if len(names) > 1 \
            else lambda value, get=attrgetter(*names): (get(value),)
    else:
        _DICT_NEW.add(cls)
    if hasattr(cls, "__post_init__"):
        _VALIDATED.add(cls)
    _REGISTRY[name] = cls
    _FIELD_NAMES[cls] = names
    _TYPE_IDS = _TYPES_BY_ID = None   # interned ids must be recomputed
    return cls


def register_messages(classes: Iterable[type]) -> None:
    for cls in classes:
        register_message(cls)


def registered_message_types() -> dict[str, type]:
    """Snapshot of the registry (name -> class)."""
    _ensure_registry()
    return dict(_REGISTRY)


def wire_type_table() -> tuple[str, ...]:
    """EWC2's interned-type table: index *i* is the class whose frames
    carry type id *i*. Deterministic (sorted by class name), so both
    ends derive it independently from the shared registry."""
    _ensure_registry()
    _intern_types()
    return tuple(cls.__name__ for cls in _TYPES_BY_ID)


def _intern_types() -> None:
    global _TYPE_IDS, _TYPES_BY_ID
    if _TYPE_IDS is not None:
        return
    _TYPES_BY_ID = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    _TYPE_IDS = {cls: i for i, cls in enumerate(_TYPES_BY_ID)}


# -- value encoding ---------------------------------------------------------
#
# One tag byte per value; tags >= 0x80 are small non-negative ints
# folded into the tag itself (group ids, sequence numbers, and workload
# keys are overwhelmingly small). Varints are unsigned LEB128; signed
# integers zigzag first so small negatives stay one byte.

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_SET = 0x09
_T_FSET = 0x0A
_T_DICT = 0x0B
_T_MSG = 0x0C
_T_SREF = 0x0D        # back-reference to the n-th string of this frame
_T_MISSING = 0x0E     # store.kv.MISSING: a read of an absent key
_T_PACKET = 0x0F      # frame-level tag, only valid right after magic
_SMALL_INT = 0x80     # 0x80 | n encodes int n in [0, 0x7F]

_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack_from


def _write_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _write_svarint(out: bytearray, n: int) -> None:
    # Arbitrary-precision zigzag: non-negative -> even, negative -> odd.
    _write_uvarint(out, n << 1 if n >= 0 else ((-n) << 1) - 1)


def _read_uvarint(buf, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 10_000:   # forged frame: unbounded continuation bytes
            raise CodecError("varint too long")


def _read_svarint(buf, pos: int, end: int) -> tuple[int, int]:
    u, pos = _read_uvarint(buf, pos, end)
    # zigzag inverse: even -> u/2, odd -> ~(u/2) (one branchless xor).
    return (u >> 1) ^ -(u & 1), pos


def _encode(out: bytearray, value: Any, depth: int,
            interns: dict,
            # Hot constants/helpers bound as defaults: locals are one
            # array load in CPython, module globals a dict probe each.
            _SMALL_INT=_SMALL_INT, _T_INT=_T_INT, _T_STR=_T_STR,
            _T_SREF=_T_SREF, _T_NONE=_T_NONE, _T_TRUE=_T_TRUE,
            _T_FALSE=_T_FALSE, _T_FLOAT=_T_FLOAT, _T_TUPLE=_T_TUPLE,
            _T_LIST=_T_LIST, _T_DICT=_T_DICT, _T_SET=_T_SET,
            _T_FSET=_T_FSET, _T_BYTES=_T_BYTES, _T_MSG=_T_MSG,
            _write_uvarint=_write_uvarint, _write_svarint=_write_svarint,
            _pack_double=_pack_double, _isfinite=math.isfinite,
            MAX_DEPTH=MAX_DEPTH) -> None:
    """Append the EWC2 encoding of ``value`` to ``out``. ``interns``
    maps each string already written in this frame to its occurrence
    index: repeats encode as a tiny back-reference (protocol payloads
    repeat client ids, procedure names, and keys heavily, and a
    back-reference also decodes as a single list index)."""
    cls = value.__class__ if value is not None else type(None)
    if cls is int:
        if 0 <= value <= 0x7F:
            out.append(_SMALL_INT | value)
        else:
            out.append(_T_INT)
            _write_svarint(out, value)
        return
    if cls is str:
        ref = interns.get(value)
        if ref is not None:
            out.append(_T_SREF)
            if ref < 0x80:
                out.append(ref)
            else:
                _write_uvarint(out, ref)
            return
        interns[value] = len(interns)
        body = value.encode("utf-8")
        out.append(_T_STR)
        blen = len(body)
        if blen < 0x80:
            out.append(blen)
        else:
            _write_uvarint(out, blen)
        out += body
        return
    if value is None:
        out.append(_T_NONE)
        return
    if cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if cls is float:
        if not _isfinite(value):
            raise CodecError(f"non-finite float is not encodable: {value!r}")
        out.append(_T_FLOAT)
        out += _pack_double(value)
        return
    if depth >= MAX_DEPTH:
        raise CodecError(f"nesting deeper than {MAX_DEPTH} levels")
    depth += 1
    # After the loop-level peeks, messages are the most common value
    # still reaching this function — dispatch them before containers.
    if _TYPE_IDS is None:
        _ensure_registry()
        _intern_types()
    type_id = _TYPE_IDS.get(cls)
    if type_id is not None:
        out.append(_T_MSG)
        if type_id < 0x80:
            out.append(type_id)
        else:
            _write_uvarint(out, type_id)
        getter = _SLOT_GETTERS.get(cls)
        if getter is not None:
            items = getter(value)
        else:
            items = value.__dict__.values()
            if len(items) != len(_FIELD_NAMES[cls]):
                items = [getattr(value, name) for name in _FIELD_NAMES[cls]]
        for item in items:
            icls = item.__class__
            if icls is int and 0 <= item <= 0x7F:
                out.append(_SMALL_INT | item)
            elif icls is str and interns.get(item, 0x80) < 0x80:
                out.append(_T_SREF)
                out.append(interns[item])
            else:
                _encode(out, item, depth, interns)
        return
    # The container loops below fold small non-negative ints and
    # already-interned short strings in place (mirroring the
    # decode-side peek) — together they dominate real payloads and
    # skipping a recursive call per element is the main encode win.
    if cls is tuple or cls is list:
        out.append(_T_TUPLE if cls is tuple else _T_LIST)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            _write_uvarint(out, count)
        for item in value:
            icls = item.__class__
            if icls is int and 0 <= item <= 0x7F:
                out.append(_SMALL_INT | item)
            elif icls is str and interns.get(item, 0x80) < 0x80:
                out.append(_T_SREF)
                out.append(interns[item])
            else:
                _encode(out, item, depth, interns)
        return
    if cls is dict:
        out.append(_T_DICT)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            _write_uvarint(out, count)
        for key, item in value.items():
            if key.__class__ is str and interns.get(key, 0x80) < 0x80:
                out.append(_T_SREF)
                out.append(interns[key])
            else:
                _encode(out, key, depth, interns)
            icls = item.__class__
            if icls is int and 0 <= item <= 0x7F:
                out.append(_SMALL_INT | item)
            elif icls is str and interns.get(item, 0x80) < 0x80:
                out.append(_T_SREF)
                out.append(interns[item])
            else:
                _encode(out, item, depth, interns)
        return
    if cls is set or cls is frozenset:
        out.append(_T_SET if cls is set else _T_FSET)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            _write_uvarint(out, count)
        for item in value:
            icls = item.__class__
            if icls is int and 0 <= item <= 0x7F:
                out.append(_SMALL_INT | item)
            elif icls is str and interns.get(item, 0x80) < 0x80:
                out.append(_T_SREF)
                out.append(interns[item])
            else:
                _encode(out, item, depth, interns)
        return
    if cls is bytes:
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out += value
        return
    if value is MISSING:
        out.append(_T_MISSING)
        return
    if dataclasses.is_dataclass(cls):
        raise CodecError(
            f"unregistered wire message type {cls.__module__}."
            f"{cls.__name__}")
    raise CodecError(f"cannot encode value of type {cls.__name__}: {value!r}")


def _decode(buf, pos: int, end: int, depth: int,
            strings: list,
            # Hot constants/helpers bound as defaults: locals are one
            # array load in CPython, module globals a dict probe each.
            _SMALL_INT=_SMALL_INT, _T_STR=_T_STR, _T_INT=_T_INT,
            _T_NONE=_T_NONE, _T_TRUE=_T_TRUE, _T_FALSE=_T_FALSE,
            _T_FLOAT=_T_FLOAT, _T_BYTES=_T_BYTES,
            _read_uvarint=_read_uvarint, _read_svarint=_read_svarint,
            _unpack_double=_unpack_double,
            _SHARED_LEN=_SHARED_LEN, _shared_get=_SHARED.get,
            _share=_share) -> tuple[Any, int]:
    """Decode one EWC2 value from ``buf[pos:end]``; returns
    ``(value, next_pos)``. ``buf`` may be bytes or a memoryview —
    slices taken for string/bytes bodies are zero-copy until
    materialized. ``strings`` accumulates every string decoded so far
    in this frame, the target space for ``_T_SREF`` back-references.
    Single-byte varints (the overwhelmingly common length/count case)
    are read inline to keep the hot path free of extra function
    calls."""
    if pos >= end:
        raise CodecError("truncated EWC2 value")
    tag = buf[pos]
    pos += 1
    if tag & _SMALL_INT:
        return tag & 0x7F, pos
    # Composite tags (and SREF, MISSING) numerically follow the scalar tags;
    # one range compare routes them past the scalar if-chain. After
    # the loop-level peeks, most values that still reach this function
    # are messages and containers, so they are dispatched first.
    if tag >= _T_BYTES:
        return _decode_composite(buf, pos, end, depth, strings, tag)
    if tag == _T_STR:
        if pos >= end:
            raise CodecError("truncated varint")
        length = buf[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(buf, pos, end)
        stop = pos + length
        if stop > end:
            raise CodecError("truncated EWC2 string")
        try:
            value = str(buf[pos:stop], "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed UTF-8 string body: {exc}") from exc
        if length <= _SHARED_LEN:
            value = _shared_get(value) or _share(value)
        strings.append(value)
        return value, stop
    if tag == _T_INT:
        return _read_svarint(buf, pos, end)
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise CodecError("truncated EWC2 float")
        return _unpack_double(buf, pos)[0], pos + 8
    raise CodecError(f"unknown EWC2 tag byte 0x{tag:02x}")




def _decode_composite(buf, pos: int, end: int, depth: int,
                      strings: list, tag: int,
                      _T_SREF=_T_SREF, _T_MISSING=_T_MISSING,
                      _T_MSG=_T_MSG, _T_TUPLE=_T_TUPLE,
                      _T_LIST=_T_LIST, _T_DICT=_T_DICT,
                      _T_FSET=_T_FSET, _T_BYTES=_T_BYTES,
                      _read_uvarint=_read_uvarint,
                      _object_new=_object_new,
                      MAX_DEPTH=MAX_DEPTH) -> tuple[Any, int]:
    """Container/message/back-reference arm of :func:`_decode` (tags
    ``>= _T_BYTES``), split out so the scalar hot path stays short."""
    if tag == _T_SREF:
        if pos >= end:
            raise CodecError("truncated varint")
        ref = buf[pos]
        if ref < 0x80:
            pos += 1
        else:
            ref, pos = _read_uvarint(buf, pos, end)
        if ref >= len(strings):
            raise CodecError(f"string back-reference {ref} out of range")
        return strings[ref], pos
    if tag == _T_MISSING:
        return MISSING, pos
    if depth >= MAX_DEPTH:
        raise CodecError(f"nesting deeper than {MAX_DEPTH} levels")
    depth += 1
    if pos >= end:
        raise CodecError("truncated varint")
    count = buf[pos]       # every composite starts with a count/id varint
    if count < 0x80:
        pos += 1
    else:
        count, pos = _read_uvarint(buf, pos, end)
    # The container loops peek one byte and fold small-int elements and
    # single-byte string back-references in place — together they
    # dominate real payloads (group ids, sequence numbers, repeated
    # client ids / proc names / keys), and skipping the recursive call
    # for them is the single biggest decode win. An out-of-range
    # back-reference falls through to the recursive path, which raises
    # the canonical CodecError.
    if tag == _T_MSG:       # checked first: one per message/log entry
        if _TYPES_BY_ID is None:
            _ensure_registry()
            _intern_types()
        if count >= len(_TYPES_BY_ID):
            raise CodecError(f"unknown interned wire type id {count}")
        cls = _TYPES_BY_ID[count]
        obj = _object_new(cls)
        if cls in _DICT_NEW:
            fields = obj.__dict__
            for name in _FIELD_NAMES[cls]:
                if pos < end:
                    b = buf[pos]
                    if b & 0x80:
                        fields[name] = b & 0x7F
                        pos += 1
                        continue
                    if b == _T_SREF and pos + 1 < end \
                            and buf[pos + 1] < 0x80 \
                            and buf[pos + 1] < len(strings):
                        fields[name] = strings[buf[pos + 1]]
                        pos += 2
                        continue
                    if b >= _T_BYTES and b != _T_SREF:
                        fields[name], pos = _decode_composite(
                            buf, pos + 1, end, depth, strings, b)
                        continue
                fields[name], pos = _decode(buf, pos, end, depth,
                                            strings)
        else:
            for setter in _SLOT_SETTERS[cls]:
                if pos < end:
                    b = buf[pos]
                    if b & 0x80:
                        setter(obj, b & 0x7F)
                        pos += 1
                        continue
                    if b == _T_SREF and pos + 1 < end \
                            and buf[pos + 1] < 0x80 \
                            and buf[pos + 1] < len(strings):
                        setter(obj, strings[buf[pos + 1]])
                        pos += 2
                        continue
                    if b >= _T_BYTES and b != _T_SREF:
                        item, pos = _decode_composite(
                            buf, pos + 1, end, depth, strings, b)
                        setter(obj, item)
                        continue
                item, pos = _decode(buf, pos, end, depth, strings)
                setter(obj, item)
        if cls in _VALIDATED:
            try:
                obj.__post_init__()
            except (TypeError, ValueError, AttributeError) as exc:
                raise CodecError(
                    f"cannot rebuild {cls.__name__}: {exc}") from exc
        return obj, pos
    if _T_TUPLE <= tag <= _T_FSET:      # tuple, list, set, frozenset
        items = []
        append = items.append
        for _ in range(count):
            if pos < end:
                b = buf[pos]
                if b & 0x80:
                    append(b & 0x7F)
                    pos += 1
                    continue
                if b == _T_SREF and pos + 1 < end \
                        and buf[pos + 1] < 0x80 \
                        and buf[pos + 1] < len(strings):
                    append(strings[buf[pos + 1]])
                    pos += 2
                    continue
                if b >= _T_BYTES and b != _T_SREF:
                    item, pos = _decode_composite(
                        buf, pos + 1, end, depth, strings, b)
                    append(item)
                    continue
            item, pos = _decode(buf, pos, end, depth, strings)
            append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        try:
            decoded = frozenset(items) if tag == _T_FSET else set(items)
        except TypeError as exc:
            raise CodecError(f"unhashable set element: {exc}") from exc
        if len(decoded) != count:
            raise CodecError("duplicate set elements in EWC2 frame")
        return decoded, pos
    if tag == _T_DICT:
        decoded = {}
        for _ in range(count):
            key, pos = _decode(buf, pos, end, depth, strings)
            if pos < end and buf[pos] & 0x80:
                item = buf[pos] & 0x7F
                pos += 1
            else:
                item, pos = _decode(buf, pos, end, depth, strings)
            try:
                decoded[key] = item
            except TypeError as exc:
                raise CodecError(f"unhashable dict key: {key!r}") from exc
        if len(decoded) != count:
            raise CodecError("duplicate dict keys in EWC2 frame")
        return decoded, pos
    if tag == _T_BYTES:
        stop = pos + count
        if stop > end:
            raise CodecError("truncated EWC2 bytes")
        return bytes(buf[pos:stop]), stop
    raise CodecError(f"unknown EWC2 tag byte 0x{tag:02x}")


# -- message / packet framing ---------------------------------------------

def encode_message(message: Any) -> bytes:
    """Serialize one protocol message (or any encodable value)."""
    out = bytearray(_MAGIC)
    _encode(out, message, 0, {})
    return bytes(out)


def decode_message(buffer: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    if not isinstance(buffer, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(buffer).__name__}")
    if bytes(buffer[:4]) != _MAGIC:
        raise CodecError("truncated or foreign buffer (bad magic)")
    # bytes indexing is faster than memoryview indexing; only keep a
    # view when the caller handed us one or a mutable buffer.
    view = buffer if type(buffer) is bytes else memoryview(buffer)
    value, pos = _decode(view, 4, len(view), 0, [])
    if pos != len(view):
        raise CodecError(f"{len(view) - pos} trailing bytes after EWC2 value")
    return value


# Packet/header classes, bound lazily (repro.net.message imports this
# module; a per-call ``from ... import`` would pay a sys.modules probe
# on every packet).
_Packet = _GroupcastHeader = _MultiStamp = None


def _bind_packet_types() -> None:
    global _Packet, _GroupcastHeader, _MultiStamp
    from repro.net.message import GroupcastHeader, MultiStamp, Packet
    _Packet = Packet
    _GroupcastHeader = GroupcastHeader
    _MultiStamp = MultiStamp
    _ensure_registry()     # the header's MultiStamp is built by slot


# Packet frame header flag bits.
_F_SEQUENCED = 0x01
_F_HAS_DST = 0x02
_F_HAS_GROUPCAST = 0x04
_F_HAS_MULTISTAMP = 0x08
_F_HAS_TRACE = 0x10


def encode_packet(packet: Any, tail: bytes | None = None) -> bytes:
    """Serialize a full :class:`~repro.net.message.Packet` envelope
    (headers + payload) for a real transport or a paranoid round-trip.

    ``tail`` is :func:`encode_packet_tail` of a packet this one was
    ``copy_to``'d from: the copy's own header is written and the shared
    tail appended as is, giving the same bytes as a full encode."""
    if _Packet is None:
        _bind_packet_types()
    if type(packet) is not _Packet:
        raise CodecError(f"expected Packet, got {type(packet).__name__}")
    flags = 0
    if packet.sequenced:
        flags |= _F_SEQUENCED
    if packet.dst is not None:
        flags |= _F_HAS_DST
    if packet.groupcast is not None:
        flags |= _F_HAS_GROUPCAST
    if packet.multistamp is not None:
        flags |= _F_HAS_MULTISTAMP
    if packet.trace_id is not None:
        flags |= _F_HAS_TRACE
    out = bytearray(_MAGIC)
    append = out.append
    append(_T_PACKET)
    append(flags)
    # Header varints are written inline for the single-byte case —
    # packet ids, group ids, epochs and sequence numbers are small in
    # steady state, and the helper call is most of the cost.
    z = packet.packet_id
    z = z << 1 if z >= 0 else ((-z) << 1) - 1
    append(z) if z < 0x80 else _write_uvarint(out, z)
    if packet.trace_id is not None:
        z = packet.trace_id
        z = z << 1 if z >= 0 else ((-z) << 1) - 1
        append(z) if z < 0x80 else _write_uvarint(out, z)
    src = packet.src.encode("utf-8")
    n = len(src)
    append(n) if n < 0x80 else _write_uvarint(out, n)
    out += src
    if packet.dst is not None:
        dst = packet.dst.encode("utf-8")
        n = len(dst)
        append(n) if n < 0x80 else _write_uvarint(out, n)
        out += dst
    if tail is None:
        _write_packet_tail(out, packet)
    else:
        out += tail
    return bytes(out)


def encode_packet_tail(packet: Any) -> bytes:
    """The end of a packet frame: groupcast header, multi-stamp and
    payload. Every ``copy_to`` copy of a packet shares all three and
    differs only in ``packet_id`` and ``dst``, which the frame writes
    first — so a fan-out encodes this once for all its copies."""
    out = bytearray()
    _write_packet_tail(out, packet)
    return bytes(out)


def _write_packet_tail(out: bytearray, packet: Any) -> None:
    append = out.append
    if packet.groupcast is not None:
        groups = packet.groupcast.groups
        n = len(groups)
        append(n) if n < 0x80 else _write_uvarint(out, n)
        for gid in groups:
            z = gid << 1 if gid >= 0 else ((-gid) << 1) - 1
            append(z) if z < 0x80 else _write_uvarint(out, z)
    if packet.multistamp is not None:
        stamp = packet.multistamp
        z = stamp.epoch
        z = z << 1 if z >= 0 else ((-z) << 1) - 1
        append(z) if z < 0x80 else _write_uvarint(out, z)
        stamps = stamp.stamps
        n = len(stamps)
        append(n) if n < 0x80 else _write_uvarint(out, n)
        for gid, seq in stamps:
            z = gid << 1 if gid >= 0 else ((-gid) << 1) - 1
            append(z) if z < 0x80 else _write_uvarint(out, z)
            z = seq << 1 if seq >= 0 else ((-seq) << 1) - 1
            append(z) if z < 0x80 else _write_uvarint(out, z)
    _encode(out, packet.payload, 0, {})


def _read_str(buf, pos: int, end: int) -> tuple[str, int]:
    length, pos = _read_uvarint(buf, pos, end)
    stop = pos + length
    if stop > end:
        raise CodecError("truncated EWC2 string")
    try:
        return str(buf[pos:stop], "utf-8"), stop
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed UTF-8 string body: {exc}") from exc


def decode_packet(buffer: bytes) -> Any:
    """Inverse of :func:`encode_packet`. The decoded packet keeps the
    sender-assigned ``packet_id``/``trace_id`` so causal tracing and
    sequencer bookkeeping are stable across the wire."""
    if _Packet is None:
        _bind_packet_types()
    if not isinstance(buffer, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(buffer).__name__}")
    if bytes(buffer[:4]) != _MAGIC:
        raise CodecError("truncated or foreign buffer (bad magic)")
    view = buffer if type(buffer) is bytes else memoryview(buffer)
    end = len(view)
    if end < 6:
        raise CodecError("truncated EWC2 packet frame")
    if view[4] != _T_PACKET:
        raise CodecError("EWC2 frame is not a packet envelope")
    flags = view[5]
    pos = 6
    # Header varints are read inline for the single-byte case,
    # mirroring the encode side.
    if pos < end and view[pos] < 0x80:
        b = view[pos]
        packet_id = (b >> 1) ^ -(b & 1)
        pos += 1
    else:
        packet_id, pos = _read_svarint(view, pos, end)
    trace_id = None
    if flags & _F_HAS_TRACE:
        if pos < end and view[pos] < 0x80:
            b = view[pos]
            trace_id = (b >> 1) ^ -(b & 1)
            pos += 1
        else:
            trace_id, pos = _read_svarint(view, pos, end)
    src, pos = _read_str(view, pos, end)
    dst = None
    if flags & _F_HAS_DST:
        dst, pos = _read_str(view, pos, end)
    groupcast = None
    if flags & _F_HAS_GROUPCAST:
        if pos < end and view[pos] < 0x80:
            count = view[pos]
            pos += 1
        else:
            count, pos = _read_uvarint(view, pos, end)
        groups = []
        for _ in range(count):
            if pos < end and view[pos] < 0x80:
                b = view[pos]
                gid = (b >> 1) ^ -(b & 1)
                pos += 1
            else:
                gid, pos = _read_svarint(view, pos, end)
            groups.append(gid)
        try:
            groupcast = _GroupcastHeader(tuple(groups))
        except ValueError as exc:
            raise CodecError(f"malformed groupcast header: {exc}") from exc
    multistamp = None
    if flags & _F_HAS_MULTISTAMP:
        if pos < end and view[pos] < 0x80:
            b = view[pos]
            epoch = (b >> 1) ^ -(b & 1)
            pos += 1
        else:
            epoch, pos = _read_svarint(view, pos, end)
        if pos < end and view[pos] < 0x80:
            count = view[pos]
            pos += 1
        else:
            count, pos = _read_uvarint(view, pos, end)
        stamps = []
        for _ in range(count):
            if pos < end and view[pos] < 0x80:
                b = view[pos]
                gid = (b >> 1) ^ -(b & 1)
                pos += 1
            else:
                gid, pos = _read_svarint(view, pos, end)
            if pos < end and view[pos] < 0x80:
                b = view[pos]
                seq = (b >> 1) ^ -(b & 1)
                pos += 1
            else:
                seq, pos = _read_svarint(view, pos, end)
            stamps.append((gid, seq))
        multistamp = _object_new(_MultiStamp)
        set_epoch, set_stamps = _SLOT_SETTERS[_MultiStamp]
        set_epoch(multistamp, epoch)
        set_stamps(multistamp, tuple(stamps))
    payload, pos = _decode(view, pos, end, 0, [])
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after EWC2 packet frame")
    packet = _object_new(_Packet)
    packet.src = src
    packet.dst = dst
    packet.payload = payload
    packet.groupcast = groupcast
    packet.multistamp = multistamp
    packet.sequenced = bool(flags & _F_SEQUENCED)
    packet.packet_id = packet_id
    packet.trace_id = trace_id
    return packet


def decode_datagram(buffer: bytes) -> Any:
    """Decode one received datagram. A datagram carries exactly one
    bare EWC2 packet frame, so this is :func:`decode_packet` under the
    name the transports receive through."""
    return decode_packet(buffer)


# -- registry population --------------------------------------------------

_registry_loaded = False


def _ensure_registry() -> None:
    """Register every wire dataclass in the repository. Deferred (and
    import-cycle safe) because the protocol modules themselves import
    nothing from the codec."""
    global _registry_loaded
    if _registry_loaded:
        return
    _registry_loaded = True

    from repro.baselines import granola, lockstore, ntur, tapir
    from repro.core import log as core_log
    from repro.core import messages as core_messages
    from repro.core import transaction
    from repro.net import message, sequencer
    from repro.replication import log as replication_log
    from repro.replication import vr

    register_messages([
        # network-layer headers
        message.GroupcastHeader,
        message.MultiStamp,
        # transaction identities
        transaction.TxnId,
        transaction.SlotId,
        transaction.IndependentTransaction,
        core_log.LogEntry,
        core_log.CutSummary,
        core_log.ReplicaSnapshot,
        replication_log.ReplicatedLogEntry,
        # Eris protocol (§6)
        core_messages.IndependentTxnRequest,
        core_messages.TxnReply,
        core_messages.PeerTxnRequest,
        core_messages.PeerTxnResponse,
        core_messages.TxnRecord,
        core_messages.FindTxn,
        core_messages.TxnRequestMsg,
        core_messages.HasTxn,
        core_messages.TempDroppedTxn,
        core_messages.TxnFound,
        core_messages.TxnDropped,
        core_messages.ViewChange,
        core_messages.StartView,
        core_messages.EpochChangeReq,
        core_messages.EpochStateRequest,
        core_messages.EpochState,
        core_messages.StartEpoch,
        core_messages.StartEpochAck,
        core_messages.ReconRead,
        core_messages.ReconReply,
        core_messages.SyncLog,
        core_messages.SyncAck,
        # coordination-free read fast path
        core_messages.AppliedUpto,
        core_messages.FastReadRequest,
        core_messages.FastReadReply,
        # sequencing chain: control plane and forwards
        sequencer.SequencerPing,
        sequencer.SequencerPong,
        sequencer.ChainInstall,
        sequencer.ChainInstallAck,
        sequencer.ChainStateRequest,
        sequencer.ChainState,
        sequencer.ChainForward,
        # Viewstamped Replication
        vr.VRPrepare,
        vr.VRPrepareOK,
        vr.VRCommit,
        vr.VRStateRequest,
        vr.VRStateTransfer,
        vr.VRStartViewChange,
        vr.VRDoViewChange,
        vr.VRStartView,
        # Lock-Store
        lockstore.LSPrepare,
        lockstore.LSVote,
        lockstore.LSDecision,
        lockstore.LSAck,
        # Granola
        granola.GRequest,
        granola.GVote,
        granola.GReply,
        granola.GLockPrepare,
        granola.GLockReply,
        granola.GLockCommit,
        granola.GLockAck,
        # NT-UR
        ntur.NTURExecute,
        ntur.NTURRead,
        ntur.NTURWrite,
        ntur.NTURReply,
        # TAPIR
        tapir.TPrepare,
        tapir.TPrepareReply,
        tapir.TDecision,
        tapir.TDecisionAck,
        tapir.TSlowConfirm,
        tapir.TSlowConfirmAck,
        tapir.TFinalize,
    ])
    # The per-node control plane registers on import. Load it here
    # too, so every process interns the same type table whatever else
    # it happened to import.
    from repro.runtime import launcher, udp_mp  # noqa: F401
