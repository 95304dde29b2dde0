"""The fabric core both backends share: the endpoint registry,
groupcast routing, the send/fan-out counters, and the one
:class:`Timer` / :class:`PeriodicTimer` pair.

Each test runs once on the simulator (:class:`Network`) and once on
real loopback sockets (:class:`AsyncioUdpRuntime`) and asserts the
same counters and drop reasons on both. Backend-specific behaviour
(FIFO links, loss, the receive-side demultiplexer) is tested in
test_network.py and test_runtime_udp.py.
"""

import pytest

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.network import NetConfig, Network
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.sim.event_loop import EventLoop


class Recorder(Node):
    def __init__(self, address, runtime):
        super().__init__(address, runtime)
        self.received = []

    def handle(self, src, message, packet):
        self.received.append(message)


@pytest.fixture(params=["sim", "udp"])
def runtime(request):
    if request.param == "sim":
        yield Network(EventLoop(), NetConfig())
        return
    rt = AsyncioUdpRuntime(seed=3)
    rt.start()
    yield rt
    rt.stop()


def settle(runtime, predicate=lambda: False, timeout=0.05):
    """Deliver what is in flight: the simulator runs until idle, the
    UDP runtime until ``predicate`` holds or ``timeout`` passes."""
    if isinstance(runtime, Network):
        runtime.loop.run_until_idle()
    else:
        runtime.run_until(predicate, timeout=timeout)


def group_of_three(runtime):
    members = [Recorder(f"m{i}", runtime) for i in range(3)]
    runtime.groups.define(0, [m.address for m in members])
    return members, Recorder("s", runtime)


def test_duplicate_address_rejected(runtime):
    first = Recorder("a", runtime)
    with pytest.raises(NetworkError):
        Recorder("a", runtime)
    assert runtime.endpoint("a") is first


def test_unsequenced_groupcast_fans_out_directly(runtime):
    members, sender = group_of_three(runtime)
    sender.send_groupcast((0,), "news", sequenced=False)
    settle(runtime, lambda: all(m.received for m in members), timeout=5.0)
    assert [m.received for m in members] == [["news"]] * 3
    assert runtime.packets_delivered == 3
    assert runtime.packets_dropped == 0


@pytest.mark.parametrize("route", [None, "ghost-sequencer"])
def test_sequenced_groupcast_blackholes_without_route(runtime, route):
    """No route, or a route to an address nothing answers at, loses
    the groupcast at the sender as one ``no-sequencer-route`` drop."""
    tracer = runtime.attach_tracer()
    members, sender = group_of_three(runtime)
    runtime.install_sequencer_route(route)
    sender.send_groupcast((0,), "lost")
    settle(runtime)
    assert all(m.received == [] for m in members)
    assert runtime.packets_dropped == 1
    assert runtime.packets_delivered == 0
    [drop] = tracer.select("drop")
    assert drop.data["reason"] == "no-sequencer-route"


def test_fanout_copies_counted_separately_from_sends(runtime):
    """One groupcast is one protocol-level send; the three per-member
    copies land in ``fanout_copies`` only."""
    members, sender = group_of_three(runtime)
    sender.send_groupcast((0,), "news", sequenced=False)
    assert runtime.packets_sent == 1
    assert runtime.fanout_copies == 3
    settle(runtime, lambda: runtime.packets_delivered == 3, timeout=5.0)
    assert runtime.packets_delivered == 3
    sender.send("m0", "direct")          # unicast adds no fan-out copy
    settle(runtime, lambda: runtime.packets_delivered == 4, timeout=5.0)
    assert runtime.packets_sent == 2
    assert runtime.fanout_copies == 3
    assert runtime.packets_delivered == 4


# -- timers ---------------------------------------------------------------
#
# Every window is closed by a callback armed on the same runtime, so the
# UDP cases do not race the wall clock: a late loop runs whatever is
# due in deadline order. Simulated time is exact; real time only runs
# late, so on UDP a fire time is a lower bound and a periodic timer may
# tick fewer times than the simulator does, never more.

#: Slack for the asyncio clock, which fires a handle up to its clock
#: resolution early.
_EARLY = 1e-6


def advance(runtime, seconds):
    """Let ``seconds`` pass: simulated time on the simulator, real time
    (the loop running) on UDP."""
    if isinstance(runtime, Network):
        runtime.loop.run(until=runtime.now + seconds)
    else:
        runtime.run_for(seconds)


def assert_fired_at(runtime, times, start, expected):
    """``times`` are a timer's fire times and ``expected`` its
    deadlines as offsets from ``start``: exact on the simulator; on UDP
    the first always fires and every one fires no earlier."""
    if isinstance(runtime, Network):
        assert times == [pytest.approx(start + e) for e in expected]
        return
    assert 1 <= len(times) <= len(expected)
    for got, offset in zip(times, expected):
        assert got >= start + offset - _EARLY


def test_timer_fires_after_delay(runtime):
    fired = []
    start = runtime.now
    timer = runtime.timer(5e-3, lambda: fired.append(runtime.now))
    timer.start()
    runtime.call_later(4e-3, fired.append, "4 ms")
    advance(runtime, 6e-3)
    assert fired[0] == "4 ms"
    assert_fired_at(runtime, fired[1:], start, [5e-3])


def test_timer_stop_cancels(runtime):
    fired = []
    timer = runtime.timer(5e-3, fired.append, "x")
    timer.start()
    timer.stop()
    advance(runtime, 10e-3)
    assert fired == []


def test_timer_restart_pushes_deadline(runtime):
    fired = []
    start = runtime.now
    timer = runtime.timer(5e-3, lambda: fired.append(runtime.now))
    timer.start()
    runtime.call_later(3e-3, timer.restart)
    advance(runtime, 12e-3)
    assert len(fired) == 1
    assert_fired_at(runtime, fired, start, [8e-3])


def test_timer_custom_delay_overrides_default(runtime):
    fired = []
    start = runtime.now
    timer = runtime.timer(5e-3, lambda: fired.append(runtime.now))
    timer.start(delay=1e-3)
    advance(runtime, 3e-3)
    assert len(fired) == 1
    assert_fired_at(runtime, fired, start, [1e-3])


def test_timer_active_property(runtime):
    timer = runtime.timer(5e-3, lambda: None)
    assert not timer.active
    timer.start()
    assert timer.active
    timer.stop()
    assert not timer.active


def test_periodic_fires_repeatedly(runtime):
    fired = []
    start = runtime.now
    timer = runtime.periodic(2e-3, lambda: fired.append(runtime.now))
    timer.start()
    runtime.call_later(7e-3, timer.stop)
    advance(runtime, 10e-3)
    assert_fired_at(runtime, fired, start, [2e-3, 4e-3, 6e-3])
    for earlier, later in zip(fired, fired[1:]):
        assert later - earlier >= 2e-3 - _EARLY


def test_periodic_stop_halts_firing(runtime):
    fired = []
    start = runtime.now
    timer = runtime.periodic(2e-3, lambda: fired.append(runtime.now))
    timer.start()
    runtime.call_later(5e-3, timer.stop)
    advance(runtime, 20e-3)
    assert not timer.active
    assert_fired_at(runtime, fired, start, [2e-3, 4e-3])


def test_periodic_initial_delay(runtime):
    fired = []
    start = runtime.now
    timer = runtime.periodic(5e-3, lambda: fired.append(runtime.now))
    timer.start(initial_delay=1e-3)
    runtime.call_later(7e-3, timer.stop)
    advance(runtime, 10e-3)
    assert_fired_at(runtime, fired, start, [1e-3, 6e-3])


def test_periodic_stop_from_callback(runtime):
    fired = []
    timer = runtime.periodic(1e-3, lambda: (fired.append(1),
                                            timer.stop()))
    timer.start()
    advance(runtime, 10e-3)
    assert len(fired) == 1
    assert not timer.active


def test_timers_fire_and_restart(runtime):
    fired = []
    timer = runtime.timer(0.01, lambda: fired.append("one-shot"))
    periodic = runtime.periodic(0.01, lambda: fired.append("tick"))
    timer.start()
    timer.restart()          # push the deadline; still exactly one fire
    periodic.start()
    done = lambda: "one-shot" in fired and fired.count("tick") >= 3
    if isinstance(runtime, Network):
        runtime.loop.run(until=0.05)
    else:
        runtime.run_until(done, timeout=5.0)
    assert done()
    periodic.stop()
    assert fired.count("one-shot") == 1
    assert not periodic.active
