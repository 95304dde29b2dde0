"""Group membership for the groupcast primitive (§5.2).

A *group* is a set of endpoint addresses — in Eris, the replica set of
one shard. The membership table is owned by the network (conceptually,
by the SDN controller, which installs the forwarding rules).
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.net.message import Address, GroupId


class GroupMembership:
    """Mapping from group id to its member addresses."""

    def __init__(self) -> None:
        self._members: dict[GroupId, tuple[Address, ...]] = {}

    def define(self, group: GroupId, members: list[Address] | tuple[Address, ...]) -> None:
        if not members:
            raise NetworkError(f"group {group} must have at least one member")
        self._members[group] = tuple(members)

    def members(self, group: GroupId) -> tuple[Address, ...]:
        try:
            return self._members[group]
        except KeyError:
            raise NetworkError(f"unknown group {group}") from None

    def members_of(self, groups: tuple[GroupId, ...]) -> tuple[Address, ...]:
        """Every member of every group in ``groups``, concatenated in
        group order: the destinations of one groupcast's fan-out."""
        members: tuple[Address, ...] = ()
        for group in groups:
            members += self.members(group)
        return members

    def groups(self) -> tuple[GroupId, ...]:
        return tuple(sorted(self._members))

    def all_members(self) -> tuple[Address, ...]:
        """Union of every group's members (used by total-global OUM)."""
        seen: dict[Address, None] = {}
        for group in sorted(self._members):
            for member in self._members[group]:
                seen.setdefault(member, None)
        return tuple(seen)

    def __contains__(self, group: GroupId) -> bool:
        return group in self._members

    def __len__(self) -> int:
        return len(self._members)
