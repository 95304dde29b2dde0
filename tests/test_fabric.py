"""The fabric core both backends share: the endpoint registry,
groupcast routing, and the send/fan-out counters.

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
