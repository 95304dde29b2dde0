"""Causal message tracing for simulated runs.

A :class:`Tracer` attached to the network (``network.tracer``) observes
every packet at its injection point and assigns it a **causal id**; the
id travels with the packet through the sequencer and every per-recipient
fan-out copy (``Packet.copy_to`` propagates it), so all events of one
logical message share one id and a trace consumer can reconstruct the
full lifecycle: send → stamp → deliver (per recipient) / drop.

Protocol layers add their own structured events on top — replica log
appends and applies, view changes, epoch changes, drop recovery, FC
decisions, DL synchronization — giving the correctness checkers in
:mod:`repro.harness.checkers` a first-class event stream to validate
instead of end-state spot checks.

The event schema (documented in DESIGN.md) is flat JSON with four
reserved keys — ``ts`` (simulation seconds), ``kind``, ``node``,
``cause`` (causal id, -1 when not tied to a message) — plus
kind-specific fields. ``Tracer.export`` writes JSONL;
:func:`load_trace` reads it back.

Tracing is strictly opt-in: hot paths hold a ``tracer`` reference that
is ``None`` by default and guard every hook with one ``is not None``
check, so benchmark throughput is unaffected when tracing is off.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.runtime.codec import CodecError, body_type, decode_body

#: Reserved top-level keys of the flat event schema.
RESERVED_KEYS = ("ts", "kind", "node", "cause")

#: Causal-id space per process rank in a multi-process run: rank *r*
#: assigns ids in ``(r*STRIDE, (r+1)*STRIDE]``. 2**40 ids per process
#: is unreachable in practice, so merged shards are collision-free by
#: construction (and :func:`merge_trace_shards` verifies it anyway).
CAUSE_ID_STRIDE = 1 << 40


@dataclass
class TraceEvent:
    """One structured observation. ``data`` holds kind-specific fields."""

    ts: float
    kind: str
    node: str
    cause: int = -1
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out = {"ts": self.ts, "kind": self.kind, "node": self.node,
               "cause": self.cause}
        out.update(self.data)
        return out


def _payload_name(packet) -> str:
    if packet.payload is None and packet.body is not None:
        # A body the transport left undecoded is named by its type id.
        kind = body_type(packet.body)
        return kind.__name__ if kind is not None else "bytes"
    return type(packet.payload).__name__


class Tracer:
    """Collects :class:`TraceEvent` records in trace-clock order.

    ``clock`` supplies timestamps; it must be the owning runtime's
    monotonic clock (simulated seconds on the simulator, the asyncio
    loop's clock on the UDP backend) so span phase arithmetic stays
    exact — never wall-clock ``time.time()``, which can step. Use
    :meth:`repro.runtime.interface.Runtime.attach_tracer` to get the
    binding right by construction.

    ``recorder`` mirrors every recorded event into a
    :class:`repro.obs.recorder.FlightRecorder` ring; ``retain=False``
    additionally turns off the unbounded ``events`` list so *only* the
    ring holds events — the always-on black-box configuration for long
    real-transport runs (``export``/``select``/``len`` then see an
    empty trace; the ring is dumped via the recorder instead).

    ``cause_base`` offsets the causal-id counter. A multi-process run
    gives every process a disjoint id space (rank ×
    :data:`CAUSE_ID_STRIDE`), so per-process trace shards can be merged
    into one stream without causal-id collisions — ids assigned by one
    process travel inside packets and show up in other shards, and they
    must never alias an id another process assigned independently.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 recorder: Optional[Any] = None, retain: bool = True,
                 cause_base: int = 0):
        if cause_base < 0:
            raise ValueError(f"cause_base must be >= 0: {cause_base}")
        self.clock = clock or (lambda: 0.0)
        self.recorder = recorder
        self.retain = retain
        self.cause_base = cause_base
        self.events: list[TraceEvent] = []
        self._causes = itertools.count(cause_base + 1)
        # Per-link transmit bookkeeping for reorder detection: packets
        # between one (src, dst) pair are numbered at transmit time; a
        # delivery whose number is below the link's high-water mark was
        # overtaken in flight.
        self._tx_seq: dict[int, tuple[tuple[str, str], int]] = {}
        self._link_next: dict[tuple[str, str], int] = {}
        self._link_seen: dict[tuple[str, str], int] = {}

    # -- generic recording -------------------------------------------------
    def record(self, kind: str, node: str, cause: int = -1,
               **data: Any) -> TraceEvent:
        for key in RESERVED_KEYS:
            if key in data:
                raise ValueError(f"{key!r} is a reserved trace field")
        event = TraceEvent(ts=self.clock(), kind=kind, node=node,
                           cause=cause, data=data)
        if self.retain:
            self.events.append(event)
        if self.recorder is not None:
            self.recorder.append(event)
        return event

    # -- packet lifecycle (called from repro.net.network) -------------------
    def packet_send(self, packet) -> None:
        """Logical injection: assigns the causal id."""
        if packet.trace_id is None:
            packet.trace_id = next(self._causes)
        data: dict[str, Any] = {"msg": _payload_name(packet)}
        if packet.groupcast is not None:
            data["groups"] = list(packet.groupcast.groups)
            data["sequenced"] = packet.sequenced
        else:
            data["dst"] = packet.dst
        self.record("send", packet.src, cause=packet.trace_id, **data)

    def packet_tx(self, packet) -> None:
        """Per-copy transmit bookkeeping (no event; feeds reorder
        detection at delivery time)."""
        link = (packet.src, packet.dst)
        seq = self._link_next.get(link, 0) + 1
        self._link_next[link] = seq
        self._tx_seq[packet.packet_id] = (link, seq)

    def packet_deliver(self, packet) -> None:
        cause = packet.trace_id if packet.trace_id is not None else -1
        tx = self._tx_seq.pop(packet.packet_id, None)
        if tx is not None:
            link, seq = tx
            seen = self._link_seen.get(link, 0)
            if seq < seen:
                self.record("reorder", packet.dst, cause=cause,
                            src=packet.src, overtaken_by=seen - seq)
            else:
                self._link_seen[link] = seq
        self.record("deliver", packet.dst, cause=cause,
                    src=packet.src, msg=_payload_name(packet))

    def packet_drop(self, packet, reason: str) -> None:
        cause = packet.trace_id if packet.trace_id is not None else -1
        self._tx_seq.pop(packet.packet_id, None)
        self.record("drop", packet.dst or "", cause=cause,
                    src=packet.src, msg=_payload_name(packet),
                    reason=reason)

    def sequencer_stamp(self, node: str, packet,
                        queue_delay: Optional[float] = None) -> None:
        stamp = packet.multistamp
        cause = packet.trace_id if packet.trace_id is not None else -1
        data: dict[str, Any] = {
            "epoch": stamp.epoch,
            "stamps": [[gid, seq] for gid, seq in stamp.stamps],
        }
        if queue_delay is not None:
            data["queue_delay"] = queue_delay
        # Operation class and declared write set (when the payload is a
        # transaction) feed the §6.7 fast-path checkers: they are the
        # sequencer-side ground truth a forged relaxed-path event is
        # checked against. A body the element did not decode is decoded
        # here, as a copy, so tracing never changes what the element
        # reads.
        payload = packet.payload
        if payload is None and packet.body is not None:
            try:
                payload = decode_body(packet.body)
            except CodecError:
                pass
        txn = getattr(payload, "txn", None)
        if txn is not None:
            data["txn"] = txn.txn_id.label()
            data["op_class"] = txn.op_class
            data["write_keys"] = sorted(repr(k) for k in txn.write_keys)
        self.record("stamp", node, cause=cause, **data)

    # -- export / query -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def select(self, kind: str, node: Optional[str] = None
               ) -> list[TraceEvent]:
        return [e for e in self.events
                if e.kind == kind and (node is None or e.node == node)]

    def export(self, path: str) -> int:
        """Write the trace as JSONL through :func:`write_jsonl`;
        returns the event count."""
        write_jsonl(path, (event.to_dict() for event in self.events))
        return len(self.events)


def write_jsonl(path: str, records: Iterable[Any]) -> None:
    """Write ``records`` to ``path``, one JSON document per line.

    The write goes through a sibling temp file renamed into place, so a
    run that crashes (or a disk that fills, or a record that does not
    serialize) mid-write never leaves a truncated, half-parseable file
    behind — ``path`` either holds the previous complete file or the
    new one. Every exporter of the observability stack writes through
    here.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_jsonl(path: str, what: str = "trace") -> Iterable[Any]:
    """The JSON documents of ``path``, one per non-blank line.

    A malformed line raises :class:`ValueError` naming the file and
    1-based line number (``what`` names the file kind), so a corrupt
    export is diagnosable without bisecting the file by hand.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed {what} line: {exc}"
                ) from exc


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a JSONL trace back as a list of flat event dicts (see
    :func:`read_jsonl` for how a malformed line is reported)."""
    return list(read_jsonl(path))


def merge_trace_shards(paths: list[str],
                       out_path: Optional[str] = None
                       ) -> list[dict[str, Any]]:
    """Combine per-process JSONL trace shards into one stream.

    Events are sorted by timestamp (all processes of a multi-process
    run share CLOCK_MONOTONIC, so cross-shard timestamps are directly
    comparable); ties keep shard order, then within-shard order, so the
    merge is deterministic. Causal-id collision-freedom is verified:
    every ``send`` event *assigns* its causal id in the emitting
    process, so the same id assigned in two different shards means two
    processes shared an id space — a :class:`ValueError`, because the
    merged stream would silently fuse unrelated message lifecycles.

    With ``out_path`` the merged stream is also written as JSONL
    (through :func:`write_jsonl`, like ``Tracer.export``), readable by every
    trace consumer — ``trace``, ``trace analyze``, the trace-backed
    §6.7 checkers.
    """
    merged: list[tuple[float, int, int, dict[str, Any]]] = []
    assigned: dict[int, str] = {}
    for shard_index, path in enumerate(paths):
        for line_index, event in enumerate(load_trace(path)):
            if "kind" not in event:   # recorder-dump header line
                continue
            if event["kind"] == "send":
                cause = event.get("cause", -1)
                if cause is not None and cause >= 0:
                    owner = assigned.get(cause)
                    if owner is not None and owner != path:
                        raise ValueError(
                            f"causal id collision: id {cause} assigned "
                            f"by both {owner} and {path} (shards were "
                            f"generated without disjoint cause_base "
                            f"id spaces)")
                    assigned[cause] = path
            merged.append((event["ts"], shard_index, line_index, event))
    merged.sort(key=lambda item: item[:3])
    events = [event for _ts, _shard, _line, event in merged]
    if out_path is not None:
        write_jsonl(out_path, events)
    return events


def _as_dicts(events: Iterable) -> list[dict[str, Any]]:
    """Accept TraceEvent objects or already-flat dicts uniformly.

    Non-event metadata lines (e.g. a flight-recorder dump header, which
    has no ``kind``) are dropped so every trace consumer can read a
    recorder dump exactly like a full trace export.
    """
    flat = [e.to_dict() if isinstance(e, TraceEvent) else e for e in events]
    return [e for e in flat if "kind" in e]


def summarize_trace(events: Iterable) -> dict[str, Any]:
    """Aggregate statistics of one trace: message counts, drop reasons,
    reorders, per-(epoch, group) stamp gap statistics, recovery and
    view/epoch-change activity. This is what ``repro.harness.cli
    trace`` renders."""
    flat = _as_dicts(events)
    kinds: dict[str, int] = {}
    drops: dict[str, int] = {}
    stamp_hi: dict[tuple[int, int], int] = {}   # (epoch, group) -> max seq
    stamp_n: dict[tuple[int, int], int] = {}    # (epoch, group) -> count
    for event in flat:
        kind = event["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "drop":
            reason = event.get("reason", "unknown")
            drops[reason] = drops.get(reason, 0) + 1
        elif kind == "stamp":
            epoch = event["epoch"]
            for gid, seq in event["stamps"]:
                key = (epoch, gid)
                stamp_hi[key] = max(stamp_hi.get(key, 0), seq)
                stamp_n[key] = stamp_n.get(key, 0) + 1
    sends = kinds.get("send", 0)
    delivers = kinds.get("deliver", 0)
    dropped = kinds.get("drop", 0)
    stamp_stats = {
        f"epoch{epoch}/group{gid}": {
            "stamped": stamp_n[(epoch, gid)],
            "max_seq": hi,
            "gaps": hi - stamp_n[(epoch, gid)],
        }
        for (epoch, gid), hi in sorted(stamp_hi.items())
    }
    return {
        "events": len(flat),
        "kinds": dict(sorted(kinds.items())),
        "sends": sends,
        "delivers": delivers,
        "drops": dropped,
        "drop_reasons": dict(sorted(drops.items())),
        "drop_rate": dropped / sends if sends else 0.0,
        "reorders": kinds.get("reorder", 0),
        "stamps": stamp_stats,
        "recoveries": {
            "started": kinds.get("recovery_start", 0),
            "peer_resolved": kinds.get("recovery_peer", 0),
            "fc_escalated": kinds.get("recovery_fc", 0),
        },
        "view_changes": kinds.get("view_change_complete", 0),
        "epoch_changes": kinds.get("epoch_change_complete", 0),
    }
