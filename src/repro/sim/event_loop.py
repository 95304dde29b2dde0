"""A minimal, fast discrete-event loop.

Events are kept in a binary heap of ``(time, seq, Event)`` triples. The
sequence number breaks ties deterministically, so two runs with the same
seed and the same scheduling order replay identically — a property the
protocol tests rely on. Keeping the sort key in the tuple (rather than
comparing :class:`Event` objects) lets the heap operations run entirely
on C-level tuple comparisons, which is where a pure-Python simulator
spends most of its time.

Three hot-path properties are maintained:

* ``pending`` is O(1): the loop tracks the cancelled-but-heaped entry
  count instead of scanning the heap (the live count is the difference
  from the heap size, so the schedule/dispatch hot path never touches
  a counter — only the rare cancel path does).
* Cancelled entries cannot accumulate without bound: when they
  outnumber live entries and the heap is large (> ``COMPACT_MIN``),
  the heap is compacted in place. Compaction only removes entries that
  could never fire, and re-heapifying cannot change the pop order of
  the survivors (their ``(time, seq)`` keys are untouched and globally
  unique), so the event sequence is bit-identical with or without it.
* ``rearm`` re-arms an already-scheduled event without pushing a
  replacement entry: when the new deadline is not earlier than the
  in-heap key, the event just records it and is re-keyed lazily when
  the old key surfaces. Each call consumes exactly one sequence number
  — the same one a cancel-plus-``schedule`` pair would have given the
  replacement event — so the fired ``(time, seq)`` stream is identical
  to the naive implementation.

Time is a float in **seconds**; the network and CPU models use
microsecond-scale constants (``5e-6`` is 5 µs).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback. Cancel with :meth:`EventLoop.cancel`,
    re-arm with :meth:`EventLoop.rearm`.

    ``time``/``seq`` are the heap key the entry was pushed with; after a
    deferred :meth:`~EventLoop.rearm` they are updated to the new
    deadline when the stale key surfaces, so they always reflect the key
    the event will actually fire under once it is dispatched.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "in_heap",
                 "deadline", "deadline_seq")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # True while a heap entry keyed (time, seq) references this
        # event; the entry may already be logically dead (cancelled).
        self.in_heap = False
        # Pending deferred re-arm: when ``deadline_seq >= 0`` the
        # event fires at (deadline, deadline_seq) instead of its heap
        # key; the run loop re-keys it lazily.
        self.deadline = 0.0
        self.deadline_seq = -1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        if self.deadline_seq >= 0:
            state += f" ->t={self.deadline:.9f}"
        return f"<Event t={self.time:.9f} seq={self.seq}{state} {self.fn!r}>"


_new_event = Event.__new__


class EventLoop:
    """Time-ordered event queue with deterministic tie-breaking."""

    #: Compaction is considered only above this heap size; below it the
    #: lazy-deletion garbage is too small to matter.
    COMPACT_MIN = 1024

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        # Cancelled-but-still-heaped entry count. The *dead* count is
        # tracked (rather than the live one) so the schedule/dispatch
        # hot path never touches a counter; only the rare cancel path
        # does. Live count = len(_heap) - _dead.
        self._dead = 0
        self._running = False
        self.events_processed = 0
        self.compactions = 0
        #: Optional per-dispatch hook ``hook(event)``, called just
        #: before each callback runs (used by the determinism tests to
        #: fingerprint the fired ``(time, seq)`` stream). Sampled once
        #: at the top of :meth:`run`; ``None`` costs one local-variable
        #: check per event.
        self.on_event: Optional[Callable[[Event], None]] = None

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        This is the simulator's single hottest call (one per packet hop,
        timer arm, and CPU-model step), so it is a flat inline of
        :meth:`schedule_at` rather than a delegation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # Inline Event construction (bypassing __init__) measurably
        # beats the constructor call at this call frequency.
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.in_heap = True
        event.deadline_seq = -1
        _heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.in_heap = True
        event.deadline_seq = -1
        _heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event. Cancelling twice is harmless."""
        if event.cancelled:
            return
        event.cancelled = True
        if event.in_heap:
            event.deadline_seq = -1
            self._dead += 1
            self._maybe_compact()

    def rearm(self, event: Optional[Event], delay: float,
              timer: Any = None) -> Event:
        """Arm ``timer`` to fire ``delay`` seconds from now, or, given
        the ``event`` it fired or is armed under, move that event there;
        returns the :class:`Event` handle to keep. This is the
        simulator's timer primitive: :class:`~repro.net.network.Network`
        binds it as ``_rearm``, so a restart is one call below
        ``Timer.start``.

        Moving an event is equivalent to cancelling it and scheduling
        its callback afresh — including consuming exactly one sequence
        number, so the fired event order is identical — but without
        growing the heap in the common case (deadline pushed later, e.g.
        a retransmission timer re-armed on every reply): the in-heap
        entry is re-keyed lazily when its old key surfaces. A fired
        event is re-armed without allocating.
        """
        if event is None:
            return self.schedule(delay, timer._fire)
        if delay < 0:
            raise SimulationError(f"cannot re-arm into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if event.in_heap:
            if not event.cancelled:
                if time >= event.time:
                    # Fast path: defer re-keying until the stale entry
                    # surfaces in the run loop.
                    event.deadline = time
                    event.deadline_seq = seq
                    return event
                # New deadline sorts before the in-heap key; the stale
                # entry cannot stand in for it. Lazy-cancel and push a
                # fresh entry.
                event.cancelled = True
                self._dead += 1
            # The (now dead) entry still references this object, so a
            # fresh Event is required.
            new = Event(time, seq, event.fn, event.args)
            new.in_heap = True
            _heappush(self._heap, (time, seq, new))
            self._maybe_compact()
            return new
        # Already fired (or compacted away after a cancel): re-arm the
        # same object without allocating.
        event.time = time
        event.seq = seq
        event.cancelled = False
        event.deadline_seq = -1
        event.in_heap = True
        _heappush(self._heap, (time, seq, event))
        return event

    def _maybe_compact(self) -> None:
        """Drop cancelled entries when they dominate a large heap.

        Mutates the heap list in place (``run`` holds a reference to
        it) and re-heapifies; survivor keys are untouched and globally
        unique, so the pop order is unchanged.
        """
        heap = self._heap
        n = len(heap)
        if n > self.COMPACT_MIN and 2 * self._dead > n:
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._dead = 0
            self.compactions += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events in time order.

        Stops when the queue is empty, when simulated time would pass
        ``until``, or after ``max_events`` callbacks, whichever is first.
        With ``until`` set, ``now`` is advanced to exactly ``until`` on
        return so subsequent relative scheduling is anchored there.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        processed = 0
        heappop = _heappop
        heappush = _heappush
        hook = self.on_event
        # Sentinels avoid a None test per event in the loop below.
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        try:
            heap = self._heap
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    event.in_heap = False
                    self._dead -= 1
                    continue
                dseq = event.deadline_seq
                if dseq >= 0:
                    # Deferred re-arm: re-key at the real deadline.
                    heappop(heap)
                    time = event.deadline
                    event.time = time
                    event.seq = dseq
                    event.deadline_seq = -1
                    heappush(heap, (time, dseq, event))
                    continue
                if time > horizon:
                    break
                if processed >= budget:
                    break
                heappop(heap)
                event.in_heap = False
                self.now = time
                if hook is not None:
                    hook(event)
                event.fn(*event.args)
                processed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.events_processed += processed
            self._running = False

    def instrument(self, registry) -> None:
        """Register the loop's live counters as pull-gauges on a
        :class:`repro.obs.metrics.MetricsRegistry`. Pull-based, so the
        event dispatch hot path is untouched."""
        registry.gauge("sim", "now", fn=lambda: self.now)
        registry.gauge("sim", "events_processed",
                       fn=lambda: self.events_processed, monotone=True)
        registry.gauge("sim", "events_pending", fn=lambda: self.pending)
        registry.gauge("sim", "heap_size", fn=lambda: len(self._heap))
        registry.gauge("sim", "dead_entries", fn=lambda: self._dead)
        registry.gauge("sim", "heap_compactions",
                       fn=lambda: self.compactions, monotone=True)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        self.run(max_events=max_events)
        # Live entries left over mean the budget was exhausted with real
        # work still queued — a livelock. Stale cancelled entries alone
        # are fine (they could never fire); checking the O(1) live count
        # is equivalent to ``any(not e.cancelled for e in heap)``.
        if len(self._heap) - self._dead > 0:
            raise SimulationError(
                f"run_until_idle exceeded {max_events} events; "
                "likely a livelock (e.g. an un-cancelled periodic timer)"
            )

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued. O(1)."""
        return len(self._heap) - self._dead
