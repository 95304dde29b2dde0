"""Packets and the in-network headers from Section 5.

A :class:`Packet` is what the fabric moves between endpoints. Its
``payload`` is an application-level protocol message (an Eris REPLY, a
2PC PREPARE, ...). Groupcast packets additionally carry a
:class:`GroupcastHeader` naming their destination groups, and — once
they have passed through the sequencer — a :class:`MultiStamp`.

A multi-stamp is the paper's key idea (§5.3): a set of
``(group-id, sequence-num)`` pairs, one per destination group, plus the
sequencer's epoch number. A receiver in group *g* looks only at its own
pair to enforce ordering and detect drops, but the full stamp lets any
node answer "do you have the packet that was assigned sequence *n* for
group *g*?" during failure recovery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

Address = str
GroupId = int

_packet_ids = itertools.count()


@dataclass(frozen=True)
class GroupcastHeader:
    """The header between IP and UDP naming the destination groups.

    ``read_only`` is the sender's mark of a READ_ONLY transaction, the
    op type Harmonia's switch reads from its own header: an element
    that stamps without decoding bodies decodes only flagged ones to
    consider them for the fast read."""

    groups: tuple[GroupId, ...]
    read_only: bool = False

    def __post_init__(self) -> None:
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"duplicate destination groups: {self.groups}")


@dataclass(frozen=True, slots=True)
class MultiStamp:
    """Epoch number plus one sequence number per destination group."""

    epoch: int
    stamps: tuple[tuple[GroupId, int], ...]

    def seq_for(self, group: GroupId) -> int:
        for gid, seq in self.stamps:
            if gid == group:
                return seq
        raise KeyError(f"group {group} not in multi-stamp {self.stamps}")

    def has_group(self, group: GroupId) -> bool:
        return any(gid == group for gid, _ in self.stamps)

    @property
    def groups(self) -> tuple[GroupId, ...]:
        return tuple(gid for gid, _ in self.stamps)


@dataclass(slots=True)
class Packet:
    """One message in flight. Copied (shallowly) at fan-out points."""

    src: Address
    dst: Optional[Address]
    payload: Any
    groupcast: Optional[GroupcastHeader] = None
    multistamp: Optional[MultiStamp] = None
    sequenced: bool = False
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Causal id assigned by an attached tracer at injection time; all
    #: fan-out copies of one logical message share it (None untraced).
    trace_id: Optional[int] = None
    #: The payload's encoded bytes when a transport received them and
    #: left them undecoded (``payload`` is then None until decoded);
    #: sending the packet on forwards these bytes as they are.
    body: Optional[bytes] = None

    def copy_to(self, dst: Address) -> "Packet":
        """A per-recipient copy: only the header differs — the payload,
        groupcast header, multi-stamp, and causal id are shared
        references. Fan-out is the fabric's hottest allocation site, so
        the copy bypasses the dataclass constructor and writes the
        slots directly (each copy still gets a fresh ``packet_id``)."""
        clone = object.__new__(Packet)
        clone.src = self.src
        clone.dst = dst
        clone.payload = self.payload
        clone.groupcast = self.groupcast
        clone.multistamp = self.multistamp
        clone.sequenced = self.sequenced
        clone.packet_id = next(_packet_ids)
        clone.trace_id = self.trace_id
        clone.body = self.body
        return clone
