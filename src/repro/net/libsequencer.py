"""End-host multi-sequencing library (§5.4).

A :class:`MultiSequencedChannel` is the per-receiver view of one
group's sequence space. It turns raw multi-stamped packets into a
stream of ordered upcalls:

- ``DELIVER(seq, packet)`` — the next in-sequence message (emitted
  exactly once per sequence number, strictly in order). ``packet`` is
  ``None`` when the application resolved the slot as permanently
  dropped (the receiver should log a NO-OP).
- ``DROP_NOTIFICATION(seq)`` — sequence number ``seq`` is missing
  (emitted at most once per gap); the application must recover the
  message or get it permanently dropped, then call :meth:`resolve`.
- ``NEW_EPOCH(epoch)`` — a packet from a later sequencer epoch arrived;
  the application must run its epoch-change protocol, then call
  :meth:`begin_epoch`.

The channel never delivers out of order, never delivers duplicates, and
buffers future packets until their gap closes — the exact contract of
§5.2's multi-sequenced groupcast receiver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import NetworkError
from repro.net.message import GroupId, Packet


class UpcallKind(enum.Enum):
    DELIVER = "deliver"
    DROP_NOTIFICATION = "drop-notification"
    NEW_EPOCH = "new-epoch"


@dataclass(frozen=True)
class Upcall:
    kind: UpcallKind
    epoch: int
    seq: int = 0
    packet: Optional[Packet] = None


class MultiSequencedChannel:
    """Sequence tracking for one receiver group."""

    def __init__(self, group: GroupId, epoch: int = 1):
        self.group = group
        self.epoch = epoch
        self.next_seq = 1
        self._buffer: dict[int, Optional[Packet]] = {}
        self._notified: set[int] = set()
        self._future_epochs: dict[int, list[Packet]] = {}

    # -- incoming packets ----------------------------------------------------
    def on_packet(self, packet: Packet) -> list[Upcall]:
        stamp = packet.multistamp
        if stamp is None:
            raise NetworkError("packet without multi-stamp on sequenced channel")
        if not stamp.has_group(self.group):
            return []  # mis-delivered; not addressed to this group
        if stamp.epoch < self.epoch:
            return []  # stale epoch: ignore
        if stamp.epoch > self.epoch:
            pending = self._future_epochs.setdefault(stamp.epoch, [])
            pending.append(packet)
            if len(pending) == 1 and stamp.epoch == min(self._future_epochs):
                return [Upcall(UpcallKind.NEW_EPOCH, epoch=stamp.epoch)]
            return []
        seq = stamp.seq_for(self.group)
        if seq < self.next_seq or seq in self._buffer:
            return []  # duplicate or already buffered
        self._buffer[seq] = packet
        upcalls = [
            Upcall(UpcallKind.DROP_NOTIFICATION, epoch=self.epoch, seq=missing)
            for missing in range(self.next_seq, seq)
            if missing not in self._buffer and missing not in self._notified
        ]
        self._notified.update(u.seq for u in upcalls)
        upcalls.extend(self._advance())
        return upcalls

    # -- application-driven gap resolution --------------------------------------
    def resolve(self, seq: int, packet: Optional[Packet] = None) -> list[Upcall]:
        """Close the gap at ``seq`` with a recovered packet, or with
        ``None`` if the slot was permanently dropped."""
        if seq < self.next_seq:
            return []
        if seq not in self._buffer:
            self._buffer[seq] = packet
        return self._advance()

    def get_buffered(self, seq: int) -> Optional[Packet]:
        """A future packet held for an unfilled gap, if any."""
        return self._buffer.get(seq)

    def fast_forward(self, next_seq: int) -> list[Upcall]:
        """Jump the expected sequence number forward (the caller
        learned the intervening slots out of band, e.g. from a DL sync
        or an FC-installed log). Buffered packets at or beyond the new
        point flush as DELIVER upcalls if contiguous."""
        if next_seq <= self.next_seq:
            return []
        for seq in list(self._buffer):
            if seq < next_seq:
                del self._buffer[seq]
        self._notified = {s for s in self._notified if s >= next_seq}
        self.next_seq = next_seq
        return self._advance()

    def rewind(self, next_seq: int,
               held: dict[int, Optional[Packet]]) -> list[Upcall]:
        """Move the expected sequence number back to ``next_seq`` (the
        application adopted a log that ends before what this channel
        delivered). ``held`` maps the rewound sequence numbers to the
        packets the application still has (None: dropped); they are
        redelivered in order, and any it lacks are reported missing."""
        delivered_upto = self.next_seq
        self.next_seq = next_seq
        for seq, packet in held.items():
            if next_seq <= seq and seq not in self._buffer:
                self._buffer[seq] = packet
        upcalls = [
            Upcall(UpcallKind.DROP_NOTIFICATION, epoch=self.epoch, seq=seq)
            for seq in range(next_seq, delivered_upto)
            if seq not in self._buffer
        ]
        self._notified.update(u.seq for u in upcalls)
        upcalls.extend(self._advance())
        return upcalls

    def missing(self, upto: Optional[int] = None) -> list[int]:
        """Sequence numbers currently known missing (notified gaps)."""
        horizon = upto if upto is not None else (
            max(self._buffer) if self._buffer else self.next_seq - 1
        )
        return [s for s in range(self.next_seq, horizon + 1)
                if s not in self._buffer]

    # -- epoch transitions ----------------------------------------------------
    def begin_epoch(self, epoch: int, next_seq: int = 1) -> list[Packet]:
        """Enter a new epoch; returns that epoch's buffered packets so
        the caller can re-inject them through :meth:`on_packet`."""
        if epoch <= self.epoch:
            raise NetworkError(f"epoch must increase: {epoch} <= {self.epoch}")
        replay = self._future_epochs.pop(epoch, [])
        # Packets for epochs beyond the one we enter stay buffered.
        self._future_epochs = {
            e: pkts for e, pkts in self._future_epochs.items() if e > epoch
        }
        self.epoch = epoch
        self.next_seq = next_seq
        self._buffer.clear()
        self._notified.clear()
        return replay

    def pending_epochs(self) -> list[int]:
        return sorted(self._future_epochs)

    # -- internals ----------------------------------------------------------
    def _advance(self) -> list[Upcall]:
        out = []
        while self.next_seq in self._buffer:
            packet = self._buffer.pop(self.next_seq)
            self._notified.discard(self.next_seq)
            out.append(Upcall(UpcallKind.DELIVER, epoch=self.epoch,
                              seq=self.next_seq, packet=packet))
            self.next_seq += 1
        return out
