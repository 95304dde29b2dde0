"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.event_loop import EventLoop


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(3e-3, order.append, "c")
    loop.schedule(1e-3, order.append, "a")
    loop.schedule(2e-3, order.append, "b")
    loop.run_until_idle()
    assert order == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    loop = EventLoop()
    order = []
    for tag in range(5):
        loop.schedule(1e-3, order.append, tag)
    loop.run_until_idle()
    assert order == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(5e-3, lambda: seen.append(loop.now))
    loop.run_until_idle()
    assert seen == [pytest.approx(5e-3)]


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1e-3, fired.append, "early")
    loop.schedule(10e-3, fired.append, "late")
    loop.run(until=5e-3)
    assert fired == ["early"]
    assert loop.now == pytest.approx(5e-3)
    loop.run_until_idle()
    assert fired == ["early", "late"]


def test_cancel_prevents_execution():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1e-3, fired.append, "x")
    loop.cancel(event)
    loop.run_until_idle()
    assert fired == []


def test_cancel_twice_is_harmless():
    loop = EventLoop()
    event = loop.schedule(1e-3, lambda: None)
    loop.cancel(event)
    loop.cancel(event)
    loop.run_until_idle()


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    loop = EventLoop()
    loop.schedule(1e-3, lambda: None)
    loop.run_until_idle()
    with pytest.raises(SimulationError):
        loop.schedule_at(0.0, lambda: None)


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    order = []

    def first():
        order.append("first")
        loop.schedule(1e-3, order.append, "second")

    loop.schedule(1e-3, first)
    loop.run_until_idle()
    assert order == ["first", "second"]


def test_run_until_idle_detects_livelock():
    loop = EventLoop()

    def forever():
        loop.schedule(1e-6, forever)

    loop.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        loop.run_until_idle(max_events=1000)


def test_max_events_bounds_run():
    loop = EventLoop()
    count = []
    for _ in range(10):
        loop.schedule(1e-3, count.append, 1)
    loop.run(max_events=4)
    assert len(count) == 4


def test_pending_counts_uncancelled():
    loop = EventLoop()
    kept = loop.schedule(1e-3, lambda: None)
    cancelled = loop.schedule(2e-3, lambda: None)
    loop.cancel(cancelled)
    assert loop.pending == 1
    assert kept is not None


def test_run_not_reentrant():
    loop = EventLoop()
    failures = []

    def reenter():
        try:
            loop.run()
        except SimulationError:
            failures.append(True)

    loop.schedule(1e-3, reenter)
    loop.run_until_idle()
    assert failures == [True]


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(7):
        loop.schedule(1e-3, lambda: None)
    loop.run_until_idle()
    assert loop.events_processed == 7


def test_livelock_detected_despite_stale_cancelled_entries():
    """Regression: one stale cancelled entry in the heap used to
    suppress the livelock error entirely (``all(not e.cancelled)``);
    a mixed live/cancelled heap must still raise."""
    loop = EventLoop()

    def forever():
        loop.schedule(1e-6, forever)

    # Plant cancelled garbage alongside the livelocked chain.
    for _ in range(5):
        loop.cancel(loop.schedule(10.0, lambda: None))
    loop.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        loop.run_until_idle(max_events=1000)


def test_only_cancelled_leftovers_do_not_raise():
    loop = EventLoop()
    for _ in range(5):
        loop.cancel(loop.schedule(10.0, lambda: None))
    loop.schedule(1e-3, lambda: None)
    loop.run_until_idle(max_events=1)      # budget exactly consumed


def test_reschedule_moves_deadline_later():
    loop = EventLoop()
    fired = []
    event = loop.schedule(2e-3, lambda: fired.append(loop.now))
    moved = loop.rearm(event, 5e-3)
    loop.run_until_idle()
    assert fired == [pytest.approx(5e-3)]
    assert len(fired) == 1
    assert moved.time == pytest.approx(5e-3)


def test_reschedule_moves_deadline_earlier():
    loop = EventLoop()
    fired = []
    event = loop.schedule(5e-3, lambda: fired.append(loop.now))
    loop.rearm(event, 1e-3)
    loop.run_until_idle()
    assert fired == [pytest.approx(1e-3)]


def test_reschedule_matches_cancel_plus_schedule_tie_break():
    """A rescheduled event must fire in exactly the position a
    cancel-plus-schedule replacement would have occupied among
    same-time ties (it consumes the same sequence number)."""
    loop_a, loop_b = EventLoop(), EventLoop()
    order_a, order_b = [], []

    # Loop A: naive cancel + schedule.
    ev = loop_a.schedule(1e-3, order_a.append, "timer")
    loop_a.schedule(2e-3, order_a.append, "x")
    loop_a.cancel(ev)
    loop_a.schedule(2e-3, order_a.append, "timer")
    loop_a.schedule(2e-3, order_a.append, "y")
    loop_a.run_until_idle()

    # Loop B: same operations via rearm.
    ev = loop_b.schedule(1e-3, order_b.append, "timer")
    loop_b.schedule(2e-3, order_b.append, "x")
    loop_b.rearm(ev, 2e-3)
    loop_b.schedule(2e-3, order_b.append, "y")
    loop_b.run_until_idle()

    assert order_a == order_b == ["x", "timer", "y"]


def test_reschedule_after_fire_rearms_same_object():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1e-3, lambda: fired.append(loop.now))
    loop.run_until_idle()
    rearmed = loop.rearm(event, 3e-3)   # fired at 1 ms
    assert rearmed is event                 # reused, not reallocated
    loop.run_until_idle()
    assert fired == [pytest.approx(1e-3), pytest.approx(4e-3)]


def test_reschedule_into_past_rejected():
    loop = EventLoop()
    event = loop.schedule(5e-3, lambda: None)
    loop.schedule(1e-3, lambda: None)
    loop.run(max_events=1)
    with pytest.raises(SimulationError):
        loop.rearm(event, -0.5e-3)


def test_rescheduled_then_cancelled_event_never_fires():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1e-3, fired.append, "x")
    loop.rearm(event, 3e-3)
    loop.cancel(event)
    loop.run_until_idle()
    assert fired == []


def test_pending_is_exact_through_cancel_and_reschedule():
    loop = EventLoop()
    events = [loop.schedule(1e-3 * (i + 1), lambda: None) for i in range(4)]
    assert loop.pending == 4
    loop.cancel(events[0])
    assert loop.pending == 3
    loop.rearm(events[1], 9e-3)        # deferred: still one entry
    assert loop.pending == 3
    loop.run_until_idle()
    assert loop.pending == 0


def test_heap_compaction_preserves_event_order():
    loop = EventLoop()
    order = []
    keep = []
    for i in range(3000):
        event = loop.schedule(1e-6 * i, order.append, i)
        if i % 3 == 0:
            keep.append(i)
        else:
            loop.cancel(event)              # drives compaction
    assert loop.compactions > 0
    assert len(loop._heap) < 3000
    loop.run_until_idle()
    assert order == keep


def test_on_event_hook_sees_fired_time_and_seq():
    loop = EventLoop()
    seen = []
    loop.on_event = lambda e: seen.append((e.time, e.seq))
    loop.schedule(2e-3, lambda: None)
    event = loop.schedule(1e-3, lambda: None)
    loop.rearm(event, 3e-3)
    loop.run_until_idle()
    assert seen == [(pytest.approx(2e-3), 0), (pytest.approx(3e-3), 2)]
