"""Typed wire codec: every protocol message to and from bytes.

The simulator passes payloads between endpoints as shared Python
object references; a real transport cannot. This codec gives every
message dataclass in the repository a compact binary wire form so the
same protocol classes run over real sockets — and so the simulator can
round-trip deliveries ("paranoid codec" mode,
:attr:`repro.net.network.NetConfig.paranoid_codec`) to prove no
handler mutates a received message or relies on cross-recipient
payload aliasing.

**EWC3** is the one frame format, on the data plane and the launcher's
control plane alike. After a 4-byte magic comes one tag byte per
value, LEB128 varints for lengths and integers (zigzag for signed),
8-byte little-endian doubles, and UTF-8 string bodies (a repeat within
a frame is a back-reference). Small non-negative ints (0..127) fold
into the tag byte; :data:`repro.store.kv.MISSING` (the read result of
an absent key) has a tag of its own. A message travels in its class's
layout (:func:`_message_codec`): its varint *interned type id* — an
index into the sorted registered-class table — then a presence byte
with one bit per defaulted field, then only the fields that differ
from their defaults, in declared order.

A packet frame is header | body: the magic, a frame tag, a flags byte,
varint ids, the addresses and the multicast headers, then the payload,
which runs to the end of the datagram. A sequencing element can thus
stamp a header and forward a body it never decoded (``opaque``,
``Packet.body``). One datagram carries exactly one packet frame.
Scalar *subclasses* (``IntEnum``, str subclasses) are rejected at
encode time — they would silently decode as their base type — and so
are non-finite floats.

Message types are registered by class name in a module-level registry.
Decoding is defensive: a foreign magic, truncation at any byte,
trailing garbage, duplicate dict/set keys, unknown interned ids,
forged presence bits, and nesting beyond :data:`MAX_DEPTH` all raise
:class:`CodecError` rather than an arbitrary exception.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import sys
from itertools import chain
from operator import attrgetter
from types import MemberDescriptorType as _MemberDescriptor
from typing import Any, Container, Iterable

from repro.errors import ReproError
from repro.store.kv import MISSING


class CodecError(ReproError):
    """Raised for any encode/decode failure: unregistered or
    unsupported types, truncated buffers, malformed documents."""


_MAGIC = b"EWC3"

#: Composite nesting bound. Protocol messages nest a handful of levels;
#: a forged frame claiming unbounded nesting must fail with a typed
#: error, not a RecursionError.
MAX_DEPTH = 200

#: Class-name -> class for every registered wire dataclass.
_REGISTRY: dict[str, type] = {}

# Interned-type tables, derived lazily from the registry (sorted by
# class name so both ends of a connection agree on the numbering
# without negotiation). Invalidated whenever a new type registers.
_TYPE_IDS: dict[type, int] | None = None
_TYPES_BY_ID: list[type] | None = None
#: Class -> generated encoder; type id -> generated decoder (None until
#: the class is first used). Both follow the type table's numbering.
_ENCODERS: dict[type, Any] = {}
_DECODERS: list = []
_BUILDING: set[type] = set()
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
    fields = dataclasses.fields(cls)
    if any("__slots__" in base.__dict__ for base in cls.__mro__[:-1]) \
            and not all(type(getattr(cls, field.name, None))
                        is _MemberDescriptor for field in fields):
        raise CodecError(f"{name}: a __slots__ wire dataclass must keep "
                         "every field in a slot")
    if sum(map(_skippable, fields)) > 8:
        raise CodecError(f"{name}: more than 8 defaulted fields")
    _REGISTRY[name] = cls
    _TYPE_IDS = _TYPES_BY_ID = None   # interned ids must be recomputed
    _ENCODERS.clear()
    _DECODERS.clear()
    return cls


def register_messages(classes: Iterable[type]) -> None:
    for cls in classes:
        register_message(cls)


def registered_message_types() -> dict[str, type]:
    """Snapshot of the registry (name -> class)."""
    _ensure_registry()
    return dict(_REGISTRY)


def wire_type_table() -> tuple[str, ...]:
    """The interned-type table: index *i* is the class whose frames
    carry type id *i*. Deterministic (sorted by class name), so both
    ends derive it independently from the shared registry."""
    _intern_types()
    return tuple(cls.__name__ for cls in _TYPES_BY_ID)


def _intern_types() -> None:
    """Number the registered classes (the whole registry, loaded first
    if it is not yet)."""
    global _TYPE_IDS, _TYPES_BY_ID
    if _TYPE_IDS is not None:
        return
    _ensure_registry()
    _TYPES_BY_ID = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    _TYPE_IDS = {cls: i for i, cls in enumerate(_TYPES_BY_ID)}
    _ENCODERS.clear()
    _DECODERS[:] = [None] * len(_TYPES_BY_ID)


def _skippable(field: dataclasses.Field) -> bool:
    """Does ``field`` stay off the wire while it holds its default? Only
    a plain default whose equal values all decode alike does: None, a
    bool, int, str or bytes, an empty tuple or frozenset. A
    ``default_factory`` value is mutable, so it always travels."""
    default = field.default
    return default is None or type(default) in (bool, int, str, bytes) \
        or (type(default) in (tuple, frozenset) and not default)


def _message_codec(cls: type) -> tuple:
    """The generated ``(encoder, decoder)`` of one registered class:
    ``_T_MSG``, the type id, a presence byte (bit *k*: the *k*-th
    skippable field differs from its default and travels) when the
    class has skippable fields, then the travelling fields in order. A
    frozenset that *is* the frozenset field before it (an RMW's one key
    set, declared as read and write set) travels as ``_T_PREV``. As
    dataclasses does for ``__init__``, each class gets straight-line
    source: per-field inline peeks, and the field's declared message
    class coded by a direct call to its own codec."""
    if _TYPE_IDS is None:
        _intern_types()
    type_id = _TYPE_IDS[cls]
    if cls in _ENCODERS:
        return _ENCODERS[cls], _DECODERS[type_id]
    fields = dataclasses.fields(cls)
    head = bytearray([_T_MSG])
    _write_uvarint(head, type_id)
    ns = dict(CodecError=CodecError, HEAD=bytes(head), cls=cls,
              new=_object_new, _encode=_encode, _decode=_decode,
              _composite=_decode_composite, _text=_read_text,
              _write_text=_write_text, _svarint=_read_svarint,
              _write_svarint=_write_svarint)
    enc = ["def encode(out, value, depth, interns):"]
    dec = ["def decode(buf, pos, end, depth, strings):"]
    names = [field.name for field in fields]
    if names:
        ns["get"] = attrgetter(*names)
        # attrgetter of one name returns the bare value, of more a tuple.
        enc.append(f"    {', '.join(f'f{i}' for i in range(len(names)))}"
                   " = get(value)")
    enc.append("    out += HEAD")
    bits = {i: 1 << k for k, i in enumerate(
        i for i, field in enumerate(fields) if _skippable(field))}
    if bits:
        enc.append("    bits = 0")
        dec += ["    if pos >= end:",
                "        raise CodecError('truncated presence byte')",
                "    bits = buf[pos]",
                "    pos += 1",
                f"    if bits >> {len(bits)}:",
                "        raise CodecError('presence bit beyond the "
                f"defaulted fields of {cls.__name__}')"]
    for i, bit in bits.items():
        default = ns[f"D{i}"] = fields[i].default
        enc += [f"    if f{i} is not None:" if default is None else
                f"    if f{i}.__class__ is not D{i}.__class__ "
                f"or f{i} != D{i}:", f"        bits |= {bit}"]
    if bits:
        enc.append("    out.append(bits)")
    _BUILDING.add(cls)
    try:
        for i, field in enumerate(fields):
            pad = "    "
            if i in bits:
                enc.append(f"    if bits & {bits[i]}:")
                dec.append(f"    if bits & {bits[i]}:")
                pad = "        "
            same = i and "frozenset" == field.type == fields[i - 1].type
            nested = _REGISTRY.get(field.type.removeprefix("Optional[")
                                   .removesuffix("]").strip("'\"")) \
                if isinstance(field.type, str) else None
            e = [f"c = f{i}.__class__",
                 "if c is int:",
                 f"    if 0 <= f{i} <= 127:",
                 f"        out.append(128 | f{i})",
                 "    else:",
                 f"        out.append({_T_INT})",
                 f"        _write_svarint(out, f{i})",
                 "elif c is str:",
                 f"    _write_text(out, f{i}, interns)"]
            d = [f"b = buf[pos] if pos < end else {_T_NONE}"]
            if nested is not None and nested not in _BUILDING:
                # The declared class first: the field usually holds one.
                ns[f"K{i}"] = nested
                ns[f"E{i}"], ns[f"X{i}"] = _message_codec(nested)
                e += [f"elif c is K{i}:",
                      f"    E{i}(out, f{i}, depth + 1, interns)"]
                d += [f"if b == {_T_MSG} and pos + 1 < end "
                      f"and buf[pos + 1] == {_TYPE_IDS[nested]}:",
                      f"    f{i}, pos = X{i}(buf, pos + 2, end, depth + 1, "
                      "strings)"]
            d += ["elif b & 128:" if len(d) > 1 else "if b & 128:",
                  f"    f{i} = b & 127",
                  "    pos += 1",
                  f"elif b == {_T_SREF} and pos + 1 < end "
                  "and buf[pos + 1] < 128 and buf[pos + 1] < len(strings):",
                  f"    f{i} = strings[buf[pos + 1]]",
                  "    pos += 2",
                  f"elif b == {_T_STR}:",
                  f"    f{i}, pos = _text(buf, pos + 1, end, strings)",
                  f"elif b == {_T_INT}:",
                  f"    f{i}, pos = _svarint(buf, pos + 1, end)",
                  f"elif b == {_T_TRUE} or b == {_T_FALSE}:",
                  f"    f{i} = b == {_T_TRUE}",
                  "    pos += 1"]
            if same:
                e += [f"elif c is frozenset and f{i} is f{i - 1}:",
                      f"    out.append({_T_PREV})"]
                d += [f"elif b == {_T_PREV} "
                      f"and f{i - 1}.__class__ is frozenset:",
                      f"    f{i} = f{i - 1}",
                      "    pos += 1"]
            e += ["else:", f"    _encode(out, f{i}, depth, interns)"]
            d += [f"elif b >= {_T_BYTES} and b != {_T_SREF}:",
                  f"    f{i}, pos = _composite(buf, pos + 1, end, depth, "
                  "strings, b)",
                  "else:",
                  f"    f{i}, pos = _decode(buf, pos, end, depth, strings)"]
            enc += [pad + line for line in e]
            dec += [pad + line for line in d]
            if i in bits:
                dec += ["    else:", f"        f{i} = D{i}"]
    finally:
        _BUILDING.discard(cls)
    dec.append("    obj = new(cls)")
    if all(type(getattr(cls, name, None)) is _MemberDescriptor
           for name in names):
        for i, name in enumerate(names):
            ns[f"S{i}"] = getattr(cls, name).__set__
            dec.append(f"    S{i}(obj, f{i})")
    else:
        dec.append("    d = obj.__dict__")
        dec += [f"    d[{name!r}] = f{i}" for i, name in enumerate(names)]
    if hasattr(cls, "__post_init__"):
        # A dataclass __init__ is "set every field, then __post_init__":
        # decoded frames keep full validation.
        dec += ["    try:",
                "        obj.__post_init__()",
                "    except (TypeError, ValueError, AttributeError) as exc:",
                f"        raise CodecError('cannot rebuild {cls.__name__}: '"
                " + str(exc)) from exc"]
    dec.append("    return obj, pos")
    exec("\n".join(enc + dec), ns)
    _ENCODERS[cls] = ns["encode"]
    _DECODERS[type_id] = ns["decode"]
    return ns["encode"], ns["decode"]


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
_T_PREV = 0x10        # a message field that is the field before it
_SMALL_INT = 0x80     # 0x80 | n encodes int n in [0, 0x7F]

_SEQUENCE_TAGS = {tuple: _T_TUPLE, list: _T_LIST, set: _T_SET,
                  frozenset: _T_FSET, dict: _T_DICT}

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
    if pos < end and buf[pos] < 0x80:
        return buf[pos], pos + 1
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
    u = shift = 0
    while True:     # _read_uvarint inline: one call per signed int
        if pos >= end:
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        u |= (byte & 0x7F) << shift
        if byte < 0x80:
            # zigzag inverse: even -> u/2, odd -> ~(u/2) (branchless).
            return (u >> 1) ^ -(u & 1), pos
        shift += 7
        if shift > 10_000:   # forged frame: unbounded continuation bytes
            raise CodecError("varint too long")


def _read_text(buf, pos: int, end: int, strings: list,
               _SHARED_LEN=_SHARED_LEN, _shared_get=_SHARED.get
               ) -> tuple[str, int]:
    """The string whose length varint starts at ``pos``, appended to
    the frame's back-reference targets ``strings``."""
    if pos < end and buf[pos] < 0x80:
        length = buf[pos]
        pos += 1
    else:
        length, pos = _read_uvarint(buf, pos, end)
    stop = pos + length
    if stop > end:
        raise CodecError("truncated EWC3 string")
    try:
        value = str(buf[pos:stop], "utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed UTF-8 string body: {exc}") from exc
    if length <= _SHARED_LEN:
        value = _shared_get(value) or _share(value)
    strings.append(value)
    return value, stop


def _write_text(out: bytearray, value: str, interns: dict) -> None:
    """A string, or a back-reference to its first copy in the frame:
    protocol payloads repeat client ids, procedure names and keys, and
    a back-reference also decodes as a single list index."""
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
    if len(body) < 0x80:
        out.append(len(body))
    else:
        _write_uvarint(out, len(body))
    out += body


def _encode(out: bytearray, value: Any, depth: int,
            interns: dict,
            # Hot constants/helpers bound as defaults: locals are one
            # array load in CPython, module globals a dict probe each.
            _SMALL_INT=_SMALL_INT, _T_INT=_T_INT, _write_text=_write_text,
            _T_SREF=_T_SREF, _T_NONE=_T_NONE, _T_TRUE=_T_TRUE,
            _T_FALSE=_T_FALSE, _T_FLOAT=_T_FLOAT, _T_DICT=_T_DICT,
            _T_BYTES=_T_BYTES, _SEQUENCE_TAGS=_SEQUENCE_TAGS,
            _flatten=chain.from_iterable,
            _write_uvarint=_write_uvarint, _write_svarint=_write_svarint,
            _pack_double=_pack_double, _isfinite=math.isfinite,
            MAX_DEPTH=MAX_DEPTH) -> None:
    """Append the EWC3 encoding of ``value`` to ``out``. ``interns``
    maps each string already written in this frame to its occurrence
    index (see :func:`_write_text`)."""
    cls = value.__class__ if value is not None else type(None)
    if cls is int:
        if 0 <= value <= 0x7F:
            out.append(_SMALL_INT | value)
        else:
            out.append(_T_INT)
            _write_svarint(out, value)
        return
    if cls is str:
        _write_text(out, value, interns)
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
    encoder = _ENCODERS.get(cls)
    if encoder is None and _TYPE_IDS is None:
        _intern_types()
    if encoder is not None or cls in _TYPE_IDS:
        (encoder or _message_codec(cls)[0])(out, value, depth, interns)
        return
    # The container loop folds small ints and writes strings without
    # the recursive call: together they dominate real payloads.
    tag = _SEQUENCE_TAGS.get(cls)
    if tag is not None:
        out.append(tag)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            _write_uvarint(out, count)
        # A dict travels as its count, then key, value, key, value ...
        for item in value if tag != _T_DICT else _flatten(value.items()):
            icls = item.__class__
            if icls is int and 0 <= item <= 0x7F:
                out.append(_SMALL_INT | item)
            elif icls is str:
                _write_text(out, item, interns)
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
            _read_svarint=_read_svarint, _read_text=_read_text,
            _unpack_double=_unpack_double) -> tuple[Any, int]:
    """Decode one EWC3 value from ``buf[pos:end]``; returns
    ``(value, next_pos)``. ``strings`` accumulates every string decoded
    so far in this frame, the target space for ``_T_SREF``
    back-references."""
    if pos >= end:
        raise CodecError("truncated EWC3 value")
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
        return _read_text(buf, pos, end, strings)
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
            raise CodecError("truncated EWC3 float")
        return _unpack_double(buf, pos)[0], pos + 8
    raise CodecError(f"unknown EWC3 tag byte 0x{tag:02x}")


def _decode_composite(buf, pos: int, end: int, depth: int,
                      strings: list, tag: int,
                      _T_SREF=_T_SREF, _T_MISSING=_T_MISSING,
                      _T_MSG=_T_MSG, _T_TUPLE=_T_TUPLE,
                      _T_LIST=_T_LIST, _T_DICT=_T_DICT, _T_SET=_T_SET,
                      _T_FSET=_T_FSET, _T_BYTES=_T_BYTES, _T_STR=_T_STR,
                      _T_INT=_T_INT, _read_uvarint=_read_uvarint,
                      _read_text=_read_text, _read_svarint=_read_svarint,
                      MAX_DEPTH=MAX_DEPTH) -> tuple[Any, int]:
    """Container/message/back-reference arm of :func:`_decode` (tags
    ``>= _T_BYTES``), split out so the scalar hot path stays short."""
    if tag == _T_SREF:
        ref, pos = _read_uvarint(buf, pos, end)
        if ref >= len(strings):
            raise CodecError(f"string back-reference {ref} out of range")
        return strings[ref], pos
    if tag == _T_MISSING:
        return MISSING, pos
    if tag > _T_MSG:
        raise CodecError(f"unknown EWC3 tag byte 0x{tag:02x}")
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
    # The container loop peeks one byte and folds small ints and
    # single-byte string back-references in place, and reads strings
    # and ints without the recursive call: together they dominate real
    # payloads. An out-of-range back-reference falls through to the
    # recursive path, which raises the canonical CodecError.
    if tag == _T_MSG:       # checked first: one per message/log entry
        if _TYPES_BY_ID is None:
            _intern_types()
        if count >= len(_TYPES_BY_ID):
            raise CodecError(f"unknown interned wire type id {count}")
        decoder = _DECODERS[count] or _message_codec(_TYPES_BY_ID[count])[1]
        return decoder(buf, pos, end, depth, strings)
    if tag != _T_BYTES:     # tuple, list, set, frozenset, dict
        items = []
        append = items.append
        for _ in range(count * 2 if tag == _T_DICT else count):
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
                if b == _T_STR:
                    item, pos = _read_text(buf, pos + 1, end, strings)
                elif b == _T_INT:
                    item, pos = _read_svarint(buf, pos + 1, end)
                elif b >= _T_BYTES and b != _T_SREF:
                    item, pos = _decode_composite(
                        buf, pos + 1, end, depth, strings, b)
                else:
                    item, pos = _decode(buf, pos, end, depth, strings)
            else:
                item, pos = _decode(buf, pos, end, depth, strings)
            append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        kind = "dict key" if tag == _T_DICT else "set element"
        try:
            decoded = frozenset(items) if tag == _T_FSET else set(items) \
                if tag == _T_SET else dict(zip(*[iter(items)] * 2))
        except TypeError as exc:
            raise CodecError(f"unhashable {kind}: {exc}") from exc
        if len(decoded) != count:
            raise CodecError(f"duplicate {kind}s in EWC3 frame")
        return decoded, pos
    # _T_BYTES
    stop = pos + count
    if stop > end:
        raise CodecError("truncated EWC3 bytes")
    return bytes(buf[pos:stop]), stop


# -- message / packet framing ---------------------------------------------

def encode_message(message: Any) -> bytes:
    """Serialize one protocol message (or any encodable value)."""
    out = bytearray(_MAGIC)
    _encode(out, message, 0, {})
    return bytes(out)


def _frame_view(buffer: Any) -> bytes:
    """``buffer`` checked for the magic, as bytes (the fastest to index
    and slice; a frame is at most a datagram)."""
    if not isinstance(buffer, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(buffer).__name__}")
    if bytes(buffer[:4]) != _MAGIC:
        raise CodecError("truncated or foreign buffer (bad magic)")
    return bytes(buffer)


def _decode_rest(view: Any, pos: int, what: str) -> Any:
    """The one value that fills ``view[pos:]``."""
    end = len(view)
    value, pos = _decode(view, pos, end, 0, [])
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after {what}")
    return value


def decode_message(buffer: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    return _decode_rest(_frame_view(buffer), 4, "EWC3 value")


def body_type(body: bytes) -> type | None:
    """The message class a packet body holds, read from its leading
    type id without decoding the rest (None: no registered message)."""
    if len(body) < 2 or body[0] != _T_MSG or body[1] >= 0x80:
        return None
    if _TYPES_BY_ID is None:
        _intern_types()
    return _TYPES_BY_ID[body[1]] if body[1] < len(_TYPES_BY_ID) else None


def decode_body(body: bytes) -> Any:
    """The payload of a body :func:`decode_datagram` left undecoded."""
    return _decode_rest(body, 0, "EWC3 packet body")


# Packet/header classes, bound lazily (repro.net.message imports this
# module; a per-call ``from ... import`` would pay a sys.modules probe
# on every packet).
_Packet = _GroupcastHeader = _MultiStamp = _set_epoch = _set_stamps = None


def _bind_packet_types() -> None:
    global _Packet, _GroupcastHeader, _MultiStamp, _set_epoch, _set_stamps
    from repro.net.message import GroupcastHeader, MultiStamp, Packet
    _Packet = Packet
    _GroupcastHeader = GroupcastHeader
    _MultiStamp = MultiStamp
    # The header's MultiStamp is built by slot.
    _set_epoch = MultiStamp.epoch.__set__
    _set_stamps = MultiStamp.stamps.__set__


# Packet frame header flag bits.
_F_SEQUENCED = 0x01
_F_HAS_DST = 0x02
_F_HAS_GROUPCAST = 0x04
_F_HAS_MULTISTAMP = 0x08
_F_HAS_TRACE = 0x10
_F_READ_ONLY = 0x20     # GroupcastHeader.read_only


def encode_packet(packet: Any, tail: bytes | None = None) -> bytes:
    """Serialize a full :class:`~repro.net.message.Packet` envelope
    (header, then body) for a real transport or a paranoid round-trip.

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
        if packet.groupcast.read_only:
            flags |= _F_READ_ONLY
    if packet.multistamp is not None:
        flags |= _F_HAS_MULTISTAMP
    if packet.trace_id is not None:
        flags |= _F_HAS_TRACE
    out = bytearray(_MAGIC)
    out.append(_T_PACKET)
    out.append(flags)
    _write_svarint(out, packet.packet_id)
    if packet.trace_id is not None:
        _write_svarint(out, packet.trace_id)
    for address in (packet.src, packet.dst) if packet.dst is not None \
            else (packet.src,):
        body = address.encode("utf-8")
        _write_uvarint(out, len(body))
        out += body
    if tail is None:
        _write_packet_tail(out, packet)
    else:
        out += tail
    return bytes(out)


def encode_packet_tail(packet: Any) -> bytes:
    """The end of a packet frame: groupcast header, multi-stamp and
    body. Every ``copy_to`` copy of a packet shares all three and
    differs only in ``packet_id`` and ``dst``, which the frame writes
    first — so a fan-out encodes this once for all its copies."""
    out = bytearray()
    _write_packet_tail(out, packet)
    return bytes(out)


def _write_packet_tail(out: bytearray, packet: Any) -> None:
    if packet.groupcast is not None:
        groups = packet.groupcast.groups
        _write_uvarint(out, len(groups))
        for gid in groups:
            _write_svarint(out, gid)
    if packet.multistamp is not None:
        stamp = packet.multistamp
        _write_svarint(out, stamp.epoch)
        _write_uvarint(out, len(stamp.stamps))
        for number in chain.from_iterable(stamp.stamps):
            _write_svarint(out, number)
    if packet.body is not None:     # received bytes, forwarded verbatim
        out += packet.body
        return
    encoder = _ENCODERS.get(packet.payload.__class__)
    if encoder is not None:
        encoder(out, packet.payload, 1, {})
    else:
        _encode(out, packet.payload, 0, {})


def decode_packet(buffer: bytes, opaque: Container[str] = ()) -> Any:
    """Inverse of :func:`encode_packet`. The decoded packet keeps the
    sender-assigned ``packet_id``/``trace_id`` so causal tracing and
    sequencer bookkeeping are stable across the wire.

    A groupcast whose ``dst`` (read from the header) is in ``opaque``
    keeps its body undecoded: the packet carries ``payload=None`` and
    the body bytes as ``body``, for :func:`body_type` /
    :func:`decode_body` and to be forwarded as they are."""
    if _Packet is None:
        _bind_packet_types()
    view = buffer if type(buffer) is bytes and buffer[:4] == _MAGIC \
        else _frame_view(buffer)
    end = len(view)
    if end < 6:
        raise CodecError("truncated EWC3 packet frame")
    if view[4] != _T_PACKET:
        raise CodecError("EWC3 frame is not a packet envelope")
    flags = view[5]
    packet_id, pos = _read_svarint(view, 6, end)
    trace_id = None
    if flags & _F_HAS_TRACE:
        trace_id, pos = _read_svarint(view, pos, end)
    strings = []
    src, pos = _read_text(view, pos, end, strings)
    dst = groupcast = multistamp = None
    if flags & _F_HAS_DST:
        dst, pos = _read_text(view, pos, end, strings)
    if flags & _F_HAS_GROUPCAST:
        count, pos = _read_uvarint(view, pos, end)
        groups = []
        for _ in range(count):
            gid, pos = _read_svarint(view, pos, end)
            groups.append(gid)
        try:
            groupcast = _GroupcastHeader(tuple(groups),
                                         bool(flags & _F_READ_ONLY))
        except ValueError as exc:
            raise CodecError(f"malformed groupcast header: {exc}") from exc
    if flags & _F_HAS_MULTISTAMP:
        epoch, pos = _read_svarint(view, pos, end)
        count, pos = _read_uvarint(view, pos, end)
        stamps = []
        for _ in range(count):
            gid, pos = _read_svarint(view, pos, end)
            seq, pos = _read_svarint(view, pos, end)
            stamps.append((gid, seq))
        multistamp = _object_new(_MultiStamp)
        _set_epoch(multistamp, epoch)
        _set_stamps(multistamp, tuple(stamps))
    packet = _object_new(_Packet)
    if groupcast is not None and dst in opaque:
        packet.payload = None
        packet.body = bytes(view[pos:])
    else:
        packet.payload = _decode_rest(view, pos, "EWC3 packet frame")
        packet.body = None
    packet.src = src
    packet.dst = dst
    packet.groupcast = groupcast
    packet.multistamp = multistamp
    packet.sequenced = bool(flags & _F_SEQUENCED)
    packet.packet_id = packet_id
    packet.trace_id = trace_id
    return packet


#: Decode one received datagram: a datagram carries exactly one bare
#: packet frame, so this is :func:`decode_packet` under the name the
#: transports receive through.
decode_datagram = decode_packet


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
        # sequencing element: control plane
        sequencer.SequencerPing,
        sequencer.SequencerPong,
        sequencer.SequencerInstall,
        sequencer.SequencerInstallAck,
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
    from repro.runtime import asyncio_udp, launcher  # noqa: F401
