"""Unit tests for the fabric: delivery, FIFO, drops, groupcast routing."""

import pytest

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.net.network import NetConfig, Network
from repro.sim.event_loop import EventLoop


class Recorder(Node):
    def __init__(self, address, network):
        super().__init__(address, network)
        self.received = []

    def handle(self, src, message, packet):
        self.received.append((src, message, self.now))


def make_net(**kwargs):
    loop = EventLoop()
    net = Network(loop, NetConfig(**kwargs))
    return loop, net


def test_unicast_delivery_with_latency():
    loop, net = make_net(base_latency=10e-6, jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    a.send("b", "hello")
    loop.run_until_idle()
    assert len(b.received) == 1
    src, msg, at = b.received[0]
    assert (src, msg) == ("a", "hello")
    assert at == pytest.approx(10e-6)


def test_fifo_links_preserve_order():
    loop, net = make_net(base_latency=10e-6, jitter=50e-6)
    a = Recorder("a", net)
    b = Recorder("b", net)
    for i in range(50):
        a.send("b", i)
    loop.run_until_idle()
    assert [m for _, m, _ in b.received] == list(range(50))


def test_non_fifo_can_reorder():
    loop, net = make_net(base_latency=1e-6, jitter=100e-6, fifo_links=False)
    a = Recorder("a", net)
    b = Recorder("b", net)
    for i in range(50):
        a.send("b", i)
    loop.run_until_idle()
    assert sorted(m for _, m, _ in b.received) == list(range(50))
    assert [m for _, m, _ in b.received] != list(range(50))


def test_drop_rate_loses_packets():
    loop, net = make_net(drop_rate=0.5, jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    for i in range(200):
        a.send("b", i)
    loop.run_until_idle()
    assert 0 < len(b.received) < 200
    assert net.packets_dropped == 200 - len(b.received)


def test_lossless_addresses_exempt_from_drops():
    loop, net = make_net(drop_rate=0.9999, jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    net.lossless.add("b")
    for i in range(50):
        a.send("b", i)
    loop.run_until_idle()
    assert len(b.received) == 50


def test_drop_filter_is_deterministic():
    loop, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    net.drop_filter = lambda pkt: pkt.payload == "drop-me"
    a.send("b", "drop-me")
    a.send("b", "keep-me")
    loop.run_until_idle()
    assert [m for _, m, _ in b.received] == ["keep-me"]


def test_send_to_unknown_endpoint_is_lost():
    loop, net = make_net()
    a = Recorder("a", net)
    a.send("ghost", "boo")
    loop.run_until_idle()
    assert net.packets_dropped == 1


def test_crashed_node_drops_deliveries():
    loop, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    b.crash()
    a.send("b", "x")
    loop.run_until_idle()
    assert b.received == []


def test_unknown_wire_format_rejected():
    """The fabric has one wire format and no option to pick another."""
    with pytest.raises(TypeError):
        NetConfig(wire="ewc9")


def test_invalid_drop_rate_rejected():
    with pytest.raises(NetworkError):
        NetConfig(drop_rate=1.5).validate()
    with pytest.raises(NetworkError):
        NetConfig(base_latency=-1.0).validate()


def test_cpu_model_serializes_processing():
    loop, net = make_net(base_latency=10e-6, jitter=0.0)

    class Busy(Recorder):
        msg_service_time = 100e-6

    a = Recorder("a", net)
    b = Busy("b", net)
    a.send("b", 1)
    a.send("b", 2)
    loop.run_until_idle()
    times = [at for _, _, at in b.received]
    assert times[0] == pytest.approx(10e-6 + 100e-6)
    assert times[1] == pytest.approx(10e-6 + 200e-6, rel=1e-3)


def test_busy_charges_extra_time():
    loop, net = make_net(base_latency=10e-6, jitter=0.0)

    class Exec(Recorder):
        msg_service_time = 10e-6

        def handle(self, src, message, packet):
            super().handle(src, message, packet)
            self.busy(1e-3)

    a = Recorder("a", net)
    b = Exec("b", net)
    a.send("b", 1)
    a.send("b", 2)
    loop.run_until_idle()
    assert b.received[1][2] - b.received[0][2] >= 1e-3


def test_unknown_message_type_raises():
    loop, net = make_net()

    class Strict(Node):
        pass

    Strict("strict", net)
    sender = Recorder("s", net)
    sender.send("strict", object())
    with pytest.raises(NetworkError):
        loop.run_until_idle()


def test_multistamp_accessors():
    stamp = MultiStamp(epoch=2, stamps=((0, 5), (3, 9)))
    assert stamp.seq_for(0) == 5
    assert stamp.seq_for(3) == 9
    assert stamp.has_group(3)
    assert not stamp.has_group(1)
    assert stamp.groups == (0, 3)
    with pytest.raises(KeyError):
        stamp.seq_for(7)


def test_groupcast_header_rejects_duplicates():
    with pytest.raises(ValueError):
        GroupcastHeader((1, 1))


def test_packet_copy_to_shares_payload():
    packet = Packet(src="a", dst=None, payload={"k": 1},
                    groupcast=GroupcastHeader((0,)))
    clone = packet.copy_to("b")
    assert clone.dst == "b"
    assert clone.payload is packet.payload
    assert clone.packet_id != packet.packet_id
