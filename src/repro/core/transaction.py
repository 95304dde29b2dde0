"""Transaction identities and the independent-transaction record.

An *independent transaction* (§4.1) is a one-shot stored procedure
executed atomically on a set of participant shards, with no cross-shard
data dependencies and a deterministic local commit/abort decision. It
is the unit the Eris protocol sequences and the building block general
transactions are made from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.message import GroupId


@dataclass(frozen=True, order=True, slots=True)
class TxnId:
    """At-most-once identity: (client address, client sequence number)."""

    client: str
    seq: int

    def label(self) -> str:
        """Stable flat-JSON transaction label used by trace events and
        the span builder ("client:seq")."""
        return f"{self.client}:{self.seq}"


@dataclass(frozen=True, order=True, slots=True)
class SlotId:
    """The paper's txn-id triple used by the FC protocol: the position
    a message was assigned in one shard's sequence space."""

    shard: GroupId
    epoch: int
    seq: int


@dataclass(frozen=True, slots=True)
class IndependentTransaction:
    """A one-shot stored-procedure invocation across ``participants``.

    ``read_keys``/``write_keys`` are the (globally keyed) declared
    access sets; each shard filters them by ownership. They are used
    only when the general-transaction layer has locks outstanding —
    pure independent-transaction workloads never consult them.

    ``kind`` distinguishes ordinary independent transactions from the
    preliminary/conclusory halves of general transactions (§7.1).

    ``op_class`` carries the invoked procedure's declared
    :class:`repro.store.procedures.OpClass` to the sequencing element
    and the replicas: ``read_only`` transactions are candidates for the
    dirty-set read fast path. ``generic`` (the default) always takes
    the full path.

    ``floor_gap`` carries the client's completion floor (§6.1) as a
    distance below ``txn_id.seq``, so the common closed-loop case is a
    one-byte 0: every seq of this client below :attr:`floor` has
    completed at every participant, and replicas may forget those
    outcomes. ``None`` carries no floor and prunes nothing.
    """

    txn_id: TxnId
    proc: str
    args: dict
    participants: tuple[GroupId, ...]
    read_keys: frozenset = frozenset()
    write_keys: frozenset = frozenset()
    kind: str = "independent"  # independent | preliminary | conclusory
    op_class: str = "generic"  # generic | read_only
    floor_gap: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.participants:
            raise ValueError("transaction must have at least one participant")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError(f"duplicate participants: {self.participants}")
        if self.op_class not in ("generic", "read_only"):
            raise ValueError(f"unknown op_class: {self.op_class!r}")
        if self.op_class == "read_only" and self.write_keys:
            raise ValueError(
                "read_only transaction declares write keys: "
                f"{sorted(self.write_keys, key=repr)}")
        if self.op_class != "generic" and self.kind != "independent":
            raise ValueError(
                f"{self.kind} transactions must be generic, "
                f"got {self.op_class!r}")
        if self.write_keys is not self.read_keys \
                and self.write_keys == self.read_keys:
            # A read-modify-write declares one key set twice; every
            # logged copy keeps it once.
            object.__setattr__(self, "write_keys", self.read_keys)
        if self.floor_gap is not None \
                and not 0 <= self.floor_gap <= self.txn_id.seq:
            raise ValueError(
                f"completion floor gap {self.floor_gap!r} outside "
                f"0..{self.txn_id.seq}")

    @property
    def floor(self) -> Optional[int]:
        """The client's completion floor: the lowest seq it had not yet
        seen complete at every participant when it sent this request
        (None when the request carries none)."""
        if self.floor_gap is None:
            return None
        return self.txn_id.seq - self.floor_gap

    @property
    def is_distributed(self) -> bool:
        return len(self.participants) > 1

    def keys_on(self, owns) -> tuple[frozenset, frozenset]:
        """(read, write) keys this shard owns, per the partition
        predicate ``owns``."""
        reads = frozenset(k for k in self.read_keys if owns(k))
        writes = frozenset(k for k in self.write_keys if owns(k))
        return reads, writes
