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

from conftest import run_traced_udp_smoke


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


def test_sequencer_encodes_a_two_shard_payload_once(monkeypatch):
    """A two-shard transaction fans out to 2 x 3 replicas; the sequencer
    encodes the copies' shared tail (groupcast header, multi-stamp,
    payload) once and only each copy's header six times."""
    from repro.baselines.common import WorkloadOp
    from repro.core.messages import IndependentTxnRequest
    from repro.harness.udp_smoke import build_udp_cluster
    from repro.runtime import asyncio_udp

    tails = []
    encode_tail = asyncio_udp.encode_packet_tail

    def spy(packet):
        tails.append(packet)
        return encode_tail(packet)

    monkeypatch.setattr(asyncio_udp, "encode_packet_tail", spy)
    cluster = build_udp_cluster(n_shards=2, n_replicas=3)
    runtime = cluster.runtime
    try:
        client = cluster.make_client()
        runtime.start()
        keys = (0, 1)
        op = WorkloadOp(proc="ycsb_rmw", args={"keys": keys},
                        participants=cluster.partitioner.participants_for(
                            keys),
                        read_keys=frozenset(keys), write_keys=frozenset(keys))
        assert op.participants == (0, 1)
        copies_before = runtime.fanout_copies
        tails.clear()
        results = []
        client.submit(op, results.append)
        assert runtime.run_until(lambda: bool(results), timeout=10.0)
        assert results[0].committed
        attempts = 1 + results[0].retries
        stamped = [p for p in tails
                   if isinstance(p.payload, IndependentTxnRequest)]
        assert len(stamped) == attempts
        assert stamped[0].multistamp.groups == (0, 1)
        assert runtime.fanout_copies - copies_before == 6 * attempts
    finally:
        runtime.stop()


# -- removed knobs -----------------------------------------------------------

def test_runtime_rejects_bad_wire_and_batch_knobs():
    """One wire format, no batching layers, no commutative early apply
    and no timer slack: the options that used to turn them on are gone,
    not ignored."""
    from repro.core.replica import ErisConfig
    from repro.harness.cluster import ClusterConfig
    from repro.net.sequencer import MultiSequencer
    from repro.runtime.udp_mp import WorkerUdpRuntime
    from repro.store import ProcedureRegistry

    removed = (
        lambda: AsyncioUdpRuntime(wire="ewc9"),
        lambda: AsyncioUdpRuntime(batch_frames=8),
        lambda: ClusterConfig(sequencer_batch=2),
        lambda: ClusterConfig(chain_pipeline=2),
        lambda: ClusterConfig(udp_batch_frames=2),
        lambda: ErisConfig(reply_coalesce=2),
        lambda: MultiSequencer("seq0", None, stamp_batch=2),
        lambda: ClusterConfig(commutative_apply=True),
        lambda: ErisConfig(commutative_apply=True),
        lambda: MultiSequencer("seq0", None, commutative_apply=True),
        lambda: ProcedureRegistry().register(
            "p", lambda ctx, args: None, merge=lambda a, b: a + b),
        lambda: WorkerUdpRuntime(rank=0, timer_slack=0.5e-3),
    )
    for build in removed:
        with pytest.raises(TypeError):
            build()


# -- the full Eris stack over UDP -----------------------------------------

def test_eris_end_to_end_over_udp_loopback(tmp_path):
    """2 shards x 3 replicas + sequencer + controller + FC on real
    loopback sockets in one process; a short closed-loop YCSB run must
    commit and the §6.7 invariant checkers must pass. Mirrors the CI
    smoke job at test-suite scale."""
    result, _ = run_traced_udp_smoke(tmp_path, "single",
                                     workload="mrmw",
                                     distributed_fraction=0.5)
    assert result.processes == 1
