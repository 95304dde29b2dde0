"""Flight recorder: a bounded ring of the most recent trace events.

Full causal tracing retains every event for the lifetime of a run —
exactly right for offline analysis, wrong for an always-on production
safety net: a long real-transport run would grow without bound. The
:class:`FlightRecorder` is the complement, borrowed from avionics (and
from eRPC-style datapath tracing): a fixed-capacity ring that always
holds the *last N* events and costs O(1) per append, so it can stay on
for every run. Nothing is written anywhere until something goes wrong;
when a §6.7 invariant checker fails or the harness crashes,
:meth:`FlightRecorder.dump` leaves the final window of protocol
activity on disk as JSONL — the events leading *up to* the failure,
which a post-mortem needs and which end-state inspection cannot
recover.

Wiring: a :class:`~repro.obs.trace.Tracer` accepts a ``recorder`` and
mirrors every event it records into the ring; with ``retain=False``
the tracer keeps *only* the ring (no unbounded event list), which is
the "always-on" configuration ``udpsmoke`` uses when full tracing was
not requested. ``run_all_checks`` accepts a recorder and dumps it
automatically when any invariant check raises.

Cost model: disabled (``enabled=False``) the append path is a single
attribute check and retains nothing; enabled it is one list-slot store
plus two integer updates — no allocation, no copying, regardless of
how many events have passed through.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.obs.trace import TraceEvent, load_trace, write_jsonl

#: Default ring capacity: enough to hold several full transactions'
#: worth of packet lifecycle events on the smoke topologies while
#: staying trivially small in memory.
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Fixed-capacity ring of :class:`TraceEvent` references."""

    __slots__ = ("capacity", "enabled", "appended", "_ring", "_next")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        #: Total events ever offered while enabled (appended - retained
        #: = events that fell off the ring).
        self.appended = 0
        # Preallocated ring: append stores a reference, never grows.
        self._ring: list[Optional[TraceEvent]] = [None] * capacity
        self._next = 0

    # -- recording ---------------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        """O(1) append; a no-op retaining nothing when disabled."""
        if not self.enabled:
            return
        self._ring[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.appended += 1

    def __len__(self) -> int:
        return min(self.appended, self.capacity)

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring."""
        return max(0, self.appended - self.capacity)

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        if self.appended < self.capacity:
            return [e for e in self._ring[:self._next] if e is not None]
        return [e for e in (self._ring[self._next:] + self._ring[:self._next])
                if e is not None]

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._next = 0
        self.appended = 0

    # -- dumping -----------------------------------------------------------
    def dump(self, path: str, reason: str = "",
             context: Optional[dict[str, Any]] = None) -> int:
        """Write the ring as JSONL and return the event count.

        The first line is a metadata header (under the single key
        ``flight_recorder`` so :func:`~repro.obs.trace.load_trace`
        consumers can recognize and skip it); the rest is the retained
        event window in the same flat schema ``Tracer.export`` uses,
        so ``trace``/``trace analyze`` tooling reads a dump directly.
        Written through :func:`~repro.obs.trace.write_jsonl`, like the
        tracer's export: a crash during the dump never leaves a
        half-written file.
        """
        events = self.events()
        header: dict[str, Any] = {
            "flight_recorder": dict(
                {"reason": reason, "capacity": self.capacity,
                 "recorded": len(events), "dropped": self.dropped},
                **(context or {}))
        }
        write_jsonl(path, itertools.chain(
            [header], (event.to_dict() for event in events)))
        return len(events)


def load_recorder_dump(path: str) -> tuple[dict[str, Any], list[dict]]:
    """Read a dump back as ``(header, events)``; raises ValueError on a
    file that is not a flight-recorder dump."""
    lines = load_trace(path)
    if not lines or "flight_recorder" not in lines[0]:
        raise ValueError(f"{path}: not a flight-recorder dump "
                         "(missing header line)")
    return lines[0]["flight_recorder"], lines[1:]
