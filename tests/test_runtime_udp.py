"""The asyncio-UDP runtime backend runs the unmodified protocol stack.

These tests exercise real sockets: every message is serialized by the
wire codec, crosses the kernel's loopback path, and is decoded on the
far side. The protocol classes (ErisClient, ErisReplica, sequencer,
controller, FC) are exactly the ones the simulator runs — only the
runtime differs, which is the point of the abstraction.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.runtime.codec import MAX_DATAGRAM_FRAMES


# -- runtime primitives over real sockets ---------------------------------

class Echo(Node):
    """Replies to any payload with ("echo", payload)."""

    def __init__(self, address, runtime):
        super().__init__(address, runtime)
        self.seen = []

    def handle(self, src, message, packet):
        self.seen.append(message)
        if not (isinstance(message, tuple) and message
                and message[0] == "echo"):
            self.send(src, ("echo", message))


@pytest.fixture
def runtime():
    rt = AsyncioUdpRuntime(seed=3)
    yield rt
    rt.stop()


def test_unicast_roundtrip_over_loopback(runtime):
    a = Echo("a", runtime)
    b = Echo("b", runtime)
    runtime.start()
    a.send("b", ("ping", 1))
    assert runtime.run_until(lambda: ("echo", ("ping", 1)) in a.seen,
                             timeout=5.0)
    assert b.seen == [("ping", 1)]
    assert runtime.packets_delivered >= 2


def test_plain_groupcast_fans_out(runtime):
    members = [Echo(f"m{i}", runtime) for i in range(3)]
    sender = Echo("sender", runtime)
    runtime.groups.define(0, [m.address for m in members])
    runtime.start()
    sender.send_groupcast((0,), ("announce",), sequenced=False)
    assert runtime.run_until(
        lambda: all(("announce",) in m.seen for m in members), timeout=5.0)


def test_sequenced_groupcast_without_route_is_dropped(runtime):
    member = Echo("m0", runtime)
    sender = Echo("sender", runtime)
    runtime.groups.define(0, [member.address])
    runtime.start()
    sender.send_groupcast((0,), ("stamped",), sequenced=True)
    runtime.run_for(0.05)
    assert member.seen == []
    assert runtime.packets_dropped >= 1


def test_timers_fire_and_restart(runtime):
    fired = []
    timer = runtime.timer(0.01, lambda: fired.append("one-shot"))
    periodic = runtime.periodic(0.01, lambda: fired.append("tick"))
    timer.start()
    timer.restart()          # push the deadline; still exactly one fire
    periodic.start()
    assert runtime.run_until(
        lambda: "one-shot" in fired and fired.count("tick") >= 3,
        timeout=5.0)
    periodic.stop()
    assert fired.count("one-shot") == 1
    assert not periodic.active


def test_runtime_owns_fresh_tags_and_rng(runtime):
    node = Echo("n", runtime)
    assert node.fresh_tag("n") == "n:1"
    assert node.fresh_tag("n") == "n:2"
    # A second runtime restarts the counter — per-cluster determinism.
    other = AsyncioUdpRuntime(seed=3)
    try:
        assert other.fresh_tag("n") == "n:1"
        assert (other.rng_stream("x").random()
                == runtime.rng_stream("x").random())
    finally:
        other.stop()


def test_duplicate_registration_rejected(runtime):
    Echo("dup", runtime)
    with pytest.raises(NetworkError):
        Echo("dup", runtime)


# -- socket ownership: every fd closed exactly once -----------------------

def test_stop_closes_every_socket_exactly_once(monkeypatch):
    """The runtime owns its fds outright: unregister() after start()
    detaches that endpoint's reader and closes its socket; stop()
    closes every remaining endpoint socket and the egress socket. Each
    is closed exactly once, and a second stop() closes nothing again."""
    closes: dict[int, int] = {}
    original_close = socket.socket.close

    def counting_close(self):
        closes[id(self)] = closes.get(id(self), 0) + 1
        original_close(self)

    monkeypatch.setattr(socket.socket, "close", counting_close)
    rt = AsyncioUdpRuntime(seed=1)
    Echo("a", rt)
    Echo("b", rt)
    Echo("gone", rt)
    rt.start()
    gone = rt._socks["gone"]
    gone_fd = gone.fileno()
    rt.unregister("gone")
    assert closes.get(id(gone), 0) == 1
    # remove_reader() reports whether a reader was still attached.
    assert rt.aloop.remove_reader(gone_fd) is False
    owned = list(rt._socks.values()) + [rt._egress]
    assert len(owned) == 3
    rt.stop()
    rt.stop()
    for sock in owned + [gone]:
        assert closes.get(id(sock), 0) == 1
        assert sock.fileno() == -1


def test_stop_before_start_closes_orphan_sockets():
    """Sockets bound in register() before start() have no reader yet:
    stop() must still close them (and leave none with a live fd)."""
    rt = AsyncioUdpRuntime(seed=1)
    Echo("a", rt)
    Echo("b", rt)
    socks = list(rt._socks.values())
    assert all(sock.fileno() != -1 for sock in socks)
    rt.stop()
    assert all(sock.fileno() == -1 for sock in socks)
    rt.stop()                     # idempotent


# -- receive path: one wakeup drains a burst ------------------------------

def test_reader_drains_a_burst_in_few_wakeups(runtime):
    """A burst queued in the kernel before the loop runs is drained by
    the add_reader callback many datagrams per wakeup."""
    a = Echo("a", runtime)
    b = Echo("b", runtime)
    runtime.start()
    for i in range(20):
        a.send("b", ("burst", i))
    assert runtime.run_until(lambda: len(b.seen) == 20, timeout=5.0)
    assert runtime.recv_datagrams >= 20
    assert 1 <= runtime.recv_wakeups < runtime.recv_datagrams


# -- fan-out accounting (counter-asymmetry regression) --------------------

def test_fanout_copies_counted_separately_from_sends(runtime):
    """Regression: the UDP backend used to fold fan-out copies into
    nothing at all — a 3-member groupcast looked like one send and the
    per-member copies were invisible. Both backends now account one
    protocol-level send plus len(members) fanout_copies (the sim-fabric
    twin of this test lives in test_network.py)."""
    members = [Echo(f"m{i}", runtime) for i in range(3)]
    sender = Echo("sender", runtime)
    runtime.groups.define(0, [m.address for m in members])
    runtime.start()
    sent_before = runtime.packets_sent
    sender.send_groupcast((0,), ("fan",), sequenced=False)
    assert runtime.packets_sent == sent_before + 1
    assert runtime.fanout_copies == 3
    assert runtime.run_until(
        lambda: all(("fan",) in m.seen for m in members), timeout=5.0)
    assert runtime.fanout_copies == 3   # echoes are unicast replies


# -- batching knob ---------------------------------------------------------

def test_runtime_rejects_bad_wire_and_batch_knobs():
    # One wire format: there is no option to pick another.
    with pytest.raises(TypeError):
        AsyncioUdpRuntime(wire="ewc9")
    for frames in (0, -1, MAX_DATAGRAM_FRAMES + 1):
        with pytest.raises(NetworkError):
            AsyncioUdpRuntime(batch_frames=frames)


def test_batched_frames_share_datagrams():
    """With batch_frames > 1 a same-iteration burst to one destination
    leaves as a single EWCB datagram; the receiver unpacks every frame."""
    class Sink(Node):
        def __init__(self, address, runtime):
            super().__init__(address, runtime)
            self.seen = []

        def handle(self, src, message, packet):
            self.seen.append(message)

    rt = AsyncioUdpRuntime(seed=5, batch_frames=8)
    try:
        a = Sink("a", rt)
        b = Sink("b", rt)
        rt.start()

        def burst():
            for i in range(6):
                a.send("b", ("burst", i))

        rt.aloop.call_soon(burst)
        assert rt.run_until(
            lambda: len(b.seen) == 6, timeout=5.0)
        assert [m for m in b.seen] == [("burst", i) for i in range(6)]
        assert rt.frames_sent == 6
        # One flush for the burst: 6 frames, 1 datagram (the exact
        # count is scheduling-dependent only above batch_frames).
        assert rt.datagrams_sent == 1
    finally:
        rt.stop()


# -- the full Eris stack over UDP -----------------------------------------

def test_eris_end_to_end_over_udp_loopback():
    """2 shards x 3 replicas + sequencer + controller + FC on real
    loopback sockets; a short closed-loop YCSB run must commit and the
    §6.7 invariant checkers must pass. Mirrors the CI smoke job at
    test-suite scale."""
    from repro.harness.udp_smoke import run_udp_smoke

    result = run_udp_smoke(n_shards=2, n_replicas=3, n_clients=3,
                           min_commits=25, timeout=30.0,
                           workload="mrmw", distributed_fraction=0.5)
    assert result.committed >= 25
    assert result.checks_passed
    assert result.packets_delivered > 0


def test_eris_over_udp_with_ewc2_and_batching():
    """Same smoke with the whole batching stack on: EWCB datagram
    packing, sequencer stamp batching, and reply coalescing.
    The §6.7 checkers must still pass, and the packing must actually
    fire (strictly fewer datagrams than frames)."""
    from repro.harness.udp_smoke import run_udp_smoke

    result = run_udp_smoke(n_shards=2, n_replicas=3, n_clients=3,
                           min_commits=25, timeout=30.0,
                           workload="mrmw", distributed_fraction=0.5,
                           batch=8)
    assert result.committed >= 25
    assert result.checks_passed
    assert result.frames_sent > result.datagrams_sent
