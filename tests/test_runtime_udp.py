"""The asyncio-UDP runtime backend runs the unmodified protocol stack.

These tests exercise real sockets: every message is serialized by the
wire codec, crosses the kernel's loopback path, and is decoded on the
far side. The protocol classes (ErisClient, ErisReplica, sequencer,
controller, FC) are exactly the ones the simulator runs — only the
runtime differs, which is the point of the abstraction.
"""

from __future__ import annotations

import socket
import statistics

import pytest

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.message import GroupcastHeader, Packet
from repro.runtime import asyncio_udp
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


# -- socket ownership: one socket per runtime, closed exactly once --------

def test_stop_closes_every_socket_exactly_once(monkeypatch):
    """The runtime owns one socket for every endpoint it hosts:
    unregister() closes nothing, stop() closes the socket exactly once,
    and a second stop() closes nothing again."""
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
    sock = rt._sock
    rt.unregister("gone")
    assert not rt.has_endpoint("gone")
    assert closes == {}
    rt.stop()                     # also closes the loop's self-pipe
    assert closes.get(id(sock)) == 1
    assert sock.fileno() == -1
    after_first = dict(closes)
    rt.stop()
    assert closes == after_first


def test_stop_before_start_closes_orphan_sockets():
    """The socket is bound when the runtime is built, before any reader
    is attached: stop() must still close it."""
    rt = AsyncioUdpRuntime(seed=1)
    Echo("a", rt)
    Echo("b", rt)
    sock = rt._sock
    assert sock.fileno() != -1
    rt.stop()
    assert sock.fileno() == -1
    rt.stop()                     # idempotent


def test_runtime_holds_one_udp_fd_whatever_its_endpoint_count(monkeypatch):
    """Fifty endpoints share the runtime's one UDP socket; no other UDP
    socket is opened, at register() or at start()."""
    opened = []

    class Recording(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.type == socket.SOCK_DGRAM:
                opened.append(self)

    monkeypatch.setattr(socket, "socket", Recording)
    rt = AsyncioUdpRuntime(seed=1)
    try:
        nodes = [Echo(f"n{i}", rt) for i in range(50)]
        rt.start()
        assert len([s for s in opened if s.fileno() != -1]) == 1
        assert {rt._resolve(n.address) for n in nodes} \
            == {rt._sock.getsockname()}
        nodes[0].send("n49", ("hello",))
        assert rt.run_until(lambda: nodes[49].seen == [("hello",)],
                            timeout=5.0)
    finally:
        rt.stop()


def test_frame_for_an_unregistered_local_dst_is_dropped_at_receive(runtime):
    """The receiver demultiplexes on the frame's dst: a frame that
    reaches the runtime's port for an address it does not host is a
    counted dead-destination drop, handed to no endpoint."""
    from repro.runtime.codec import encode_packet

    tracer = runtime.attach_tracer()
    a = Echo("a", runtime)
    runtime.start()
    frame = encode_packet(Packet(src="x", dst="nobody", payload=("lost",)))
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(frame, runtime._resolve("a"))
    finally:
        sender.close()
    assert runtime.run_until(lambda: runtime.packets_dropped == 1,
                             timeout=5.0)
    assert runtime.recv_datagrams == 1
    assert runtime.packets_delivered == 0
    assert a.seen == []
    [drop] = tracer.select("drop")
    assert drop.data["reason"] == "dead-destination"


def test_timers_wake_near_their_deadline(runtime):
    """The loop polls with select(2), whose timeout is in microseconds:
    a 200 us timer on an idle loop wakes at its deadline plus kernel
    slack, not at the next whole millisecond as under epoll."""
    lateness = []

    def arm():
        runtime.call_later(200e-6, fire, runtime.now + 200e-6)

    def fire(due):
        lateness.append(runtime.now - due)
        if len(lateness) < 40:
            arm()

    arm()
    assert runtime.run_until(lambda: len(lateness) == 40, timeout=5.0)
    assert statistics.median(lateness) < 0.4e-3


def test_register_past_the_select_fd_limit_raises(monkeypatch):
    """select(2) cannot watch an fd past FD_SETSIZE: the runtime says so
    where it creates its one socket, before any endpoint registers,
    instead of a ValueError escaping from inside the loop."""
    monkeypatch.setattr(asyncio_udp, "_SELECT_FD_LIMIT", 0)
    with pytest.raises(NetworkError, match="select.*limit of 0"):
        AsyncioUdpRuntime(seed=1)


# -- real costs only: no modelled delay on real sockets --------------------

def test_udp_node_charges_no_modelled_cost(runtime):
    """A node's service time and busy() charge are simulator models;
    over real sockets the next packet is processed inline."""
    assert not runtime.models_cost

    class Worker(Echo):
        msg_service_time = 1e-3

        def handle(self, src, message, packet):
            self.seen.append(message)
            self.busy(1e-3)

    node = Worker("w", runtime)
    for i in range(2):
        node.deliver(Packet(src="x", dst="w", payload=("job", i)))
        assert node.seen[-1] == ("job", i)


def test_element_stamps_inside_the_delivering_callback():
    """The default middlebox profile's traversal latency is a simulator
    model: on real sockets the element stamps and fans out inside the
    callback that delivered the packet, scheduling no timer."""
    from repro.baselines.common import WorkloadOp
    from repro.harness.udp_smoke import build_udp_cluster

    cluster = build_udp_cluster(n_shards=2, n_replicas=3)
    runtime = cluster.runtime
    element = cluster.sequencers[0]
    assert element.profile.name == "middlebox"
    inside = []
    timers = []
    stamped_inside = []
    aloop = runtime.aloop

    def counting(schedule):
        def wrapper(*args, **kwargs):
            if inside:
                timers.append(args)
            return schedule(*args, **kwargs)
        return wrapper

    aloop.call_later = counting(aloop.call_later)
    aloop.call_at = counting(aloop.call_at)
    deliver = element.deliver

    def spy(packet):
        inside.append(packet)
        before = element.packets_stamped
        deliver(packet)
        inside.pop()
        stamped_inside.append(element.packets_stamped - before)

    element.deliver = spy
    fan_out = runtime.fan_out
    fanned_inside = []

    def fan_spy(packet, destinations):
        fanned_inside.append(bool(inside))
        fan_out(packet, destinations)

    runtime.fan_out = fan_spy
    try:
        client = cluster.make_client()
        runtime.start()
        op = WorkloadOp(proc="ycsb_write", args={"key": 0, "value": 1},
                        participants=cluster.partitioner.participants_for(
                            (0,)),
                        write_keys=frozenset({0}))
        results = []
        client.submit(op, results.append)
        assert runtime.run_until(lambda: bool(results), timeout=10.0)
        assert results[0].committed
        assert sum(stamped_inside) == element.packets_stamped >= 1
        assert fanned_inside and all(fanned_inside)
        assert timers == []
        assert element.stamp_wakeups == 0
    finally:
        runtime.stop()


def test_udp_queue_delay_subtracts_no_modelled_latency(runtime,
                                                       monkeypatch):
    """The element's traced queue delay is arrival-to-stamp time minus
    only what the runtime charged: on real sockets, nothing. The clock
    is frozen so the wait is exactly the 5 us set here."""
    from repro.net.sequencer import (
        MultiSequencer,
        SequencerInstall,
        SequencerProfile,
    )

    tracer = runtime.attach_tracer()
    element = MultiSequencer("seq", runtime, SequencerProfile.middlebox())
    element.apply_install(SequencerInstall(epoch=1))
    member = Echo("m0", runtime)
    runtime.groups.define(0, [member.address])
    packet = Packet(src="c", dst=None, payload=("txn",),
                    groupcast=GroupcastHeader((0,), False), sequenced=True)
    monkeypatch.setattr(AsyncioUdpRuntime, "now",
                        property(lambda self: 100.0))
    element._ingress[packet.packet_id] = 100.0 - 5e-6
    element._process(packet)
    [stamp] = tracer.select("stamp", "seq")
    assert stamp.data["queue_delay"] == pytest.approx(5e-6)


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


def test_burst_to_many_endpoints_is_delivered_whole(runtime):
    """400 datagrams for 20 endpoints, all queued in the one socket's
    kernel buffer before the loop runs, arrive whole."""
    sender = Echo("sender", runtime)
    sinks = [Echo(f"s{i}", runtime) for i in range(20)]
    runtime.start()
    for i in range(20):
        for sink in sinks:
            sender.send(sink.address, ("burst", i))
    assert runtime.send_errors == 0
    assert runtime.run_until(
        lambda: all(len(sink.seen) == 20 for sink in sinks), timeout=10.0)
    assert runtime.packets_dropped == 0
    assert all(sink.seen == [("burst", i) for i in range(20)]
               for sink in sinks)


def test_drain_delivers_in_registration_order(runtime):
    """One drain delivers what it read endpoint by endpoint in
    registration order, FIFO per endpoint: traffic for an endpoint
    registered early (a sequencer, the controller) does not wait behind
    a burst queued earlier for one registered later."""
    order = []

    class Recorder(Node):
        def handle(self, src, message, packet):
            order.append((self.address, message))

    first = Recorder("first", runtime)
    last = Recorder("last", runtime)
    runtime.start()
    for i in range(3):
        last.send("last", i)
    first.send("first", "ping")
    assert runtime.run_until(lambda: len(order) == 4, timeout=5.0)
    assert runtime.recv_wakeups == 1
    assert order == [("first", "ping"), ("last", 0), ("last", 1),
                     ("last", 2)]


# -- fan-out encoding ------------------------------------------------------

def test_sequencer_encodes_a_two_shard_payload_once(monkeypatch):
    """A two-shard write fans out to 2 x 3 replicas. The element reads
    only the groupcast header (§5.3): it decodes no request body and
    encodes no payload, writes the copies' shared tail once and only
    each copy's header six times, and every replica receives the
    client's body bytes verbatim."""
    from repro.baselines.common import WorkloadOp
    from repro.core.messages import IndependentTxnRequest
    from repro.harness.udp_smoke import build_udp_cluster
    from repro.runtime import asyncio_udp
    from repro.runtime.codec import body_type, decode_datagram

    tails = []
    encode_tail = asyncio_udp.encode_packet_tail

    def spy(packet):
        tails.append(packet)
        return encode_tail(packet)

    monkeypatch.setattr(asyncio_udp, "encode_packet_tail", spy)
    cluster = build_udp_cluster(n_shards=2, n_replicas=3)
    runtime = cluster.runtime
    received = []

    def record(data, opaque):
        received.append(data)
        return decode_datagram(data, opaque)

    monkeypatch.setattr(asyncio_udp, "decode_datagram", record)
    element = cluster.sequencers[0]
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
        received.clear()
        results = []
        client.submit(op, results.append)
        assert runtime.run_until(lambda: bool(results), timeout=10.0)
        assert results[0].committed
        attempts = 1 + results[0].retries
        stamped = [p for p in tails
                   if body_type(p.body or b"") is IndependentTxnRequest]
        assert len(stamped) == attempts
        assert all(p.payload is None for p in stamped)   # never decoded
        assert stamped[0].multistamp.groups == (0, 1)
        assert runtime.fanout_copies - copies_before == 6 * attempts
        assert element.bodies_decoded == 0
        bodies = {}
        everyone = set(runtime._endpoints)
        for data in received:
            packet = decode_datagram(data, everyone)
            if packet.body is not None \
                    and body_type(packet.body) is IndependentTxnRequest:
                bodies.setdefault(packet.dst, []).append(packet.body)
        sent = bodies.pop(element.address)
        assert len(sent) == attempts and len(bodies) == 6
        for address, copies in bodies.items():
            assert copies == sent[:len(copies)], address
    finally:
        runtime.stop()


def test_tracing_does_not_change_what_the_element_decodes():
    """With a tracer attached, the element still decodes no request
    body; the trace names the delivered message from the body's type
    id and takes the stamp's op class and write set from a decoded
    copy."""
    from repro.baselines.common import WorkloadOp
    from repro.harness.udp_smoke import build_udp_cluster

    cluster = build_udp_cluster(n_shards=2, n_replicas=3)
    runtime = cluster.runtime
    tracer = runtime.attach_tracer()
    element = cluster.sequencers[0]
    arrived = []
    process = element._process_groupcast

    def spy(packet):
        arrived.append(packet.payload)
        process(packet)

    element._process_groupcast = spy
    try:
        client = cluster.make_client()
        runtime.start()
        op = WorkloadOp(proc="ycsb_write", args={"key": 0, "value": 1},
                        participants=cluster.partitioner.participants_for(
                            (0,)),
                        write_keys=frozenset({0}))
        results = []
        client.submit(op, results.append)
        assert runtime.run_until(lambda: bool(results), timeout=10.0)
        assert results[0].committed
        assert element.packets_stamped >= 1
        assert arrived and all(payload is None for payload in arrived)
        assert element.bodies_decoded == 0
        delivered = [e.data["msg"] for e in tracer.select(
            "deliver", element.address)]
        assert "IndependentTxnRequest" in delivered
        stamps = tracer.select("stamp", element.address)
        assert stamps and all(e.data["op_class"] == "generic"
                              and e.data["write_keys"] == ["0"]
                              for e in stamps)
    finally:
        runtime.stop()


def _run_closed_loop(cluster, next_op, until, n_clients=2,
                     timeout=30.0) -> list:
    """Drive ``n_clients`` closed-loop clients over an untraced UDP
    cluster until ``until()`` holds; returns every result."""
    runtime = cluster.runtime
    clients = [cluster.make_client() for _ in range(n_clients)]
    runtime.start()
    results = []

    def issue(client):
        def done(result):
            results.append(result)
            if not until():
                issue(client)
        client.submit(next_op(), done)

    for client in clients:
        issue(client)
    assert runtime.run_until(until, timeout=timeout)
    return results


def test_counters_over_udp_serve_fast_reads():
    """The element never decodes an unflagged request, so the client's
    READ_ONLY mark in the groupcast header is all that puts a read on
    the dirty-set fast path over UDP."""
    from repro.harness.checkers import run_all_checks
    from repro.harness.udp_smoke import build_udp_cluster
    from repro.sim.randomness import SplitRandom
    from repro.workloads import CountersConfig, CountersWorkload

    cluster = build_udp_cluster(n_shards=2, n_replicas=3, n_keys=50)
    element = cluster.sequencers[0]
    workload = CountersWorkload(CountersConfig(n_keys=50),
                                cluster.partitioner, SplitRandom(11))
    try:
        results = _run_closed_loop(
            cluster, workload.next_op,
            lambda: element.fast_reads >= 5, timeout=60.0)
        assert element.fast_reads >= 5
        assert any(r.committed for r in results)
        assert element.bodies_decoded > 0       # flagged reads, watermarks
        cluster.runtime.run_for(0.2)
        run_all_checks(cluster)
    finally:
        cluster.runtime.stop()


def test_undecodable_body_becomes_a_dropped_slot():
    """The element stamps a body it never decodes. A request whose body
    the replicas cannot decode is stamped and fanned out, every
    replica then misses that slot, and the FC resolves the gap as a
    §6.3 permanent drop; later transactions commit and the §6.7
    checkers pass."""
    from repro.baselines.common import WorkloadOp
    from repro.core.messages import IndependentTxnRequest
    from repro.core.transaction import IndependentTransaction, SlotId, TxnId
    from repro.harness.checkers import run_all_checks
    from repro.harness.udp_smoke import build_udp_cluster
    from repro.net.message import GroupcastHeader, Packet
    from repro.runtime.codec import encode_packet

    cluster = build_udp_cluster(n_shards=2, n_replicas=3)
    runtime = cluster.runtime
    element = cluster.sequencers[0]
    replicas = cluster.replicas[0]
    assert cluster.partitioner.shard_of(0) == 0
    try:
        client = cluster.make_client()
        runtime.start()
        txn = IndependentTransaction(
            txn_id=TxnId(client="forger", seq=1), proc="ycsb_write",
            args={"key": 0, "value": 1}, participants=(0,),
            write_keys=frozenset({0}))
        frame = encode_packet(Packet(
            src="forger", dst=element.address,
            payload=IndependentTxnRequest(txn),
            groupcast=GroupcastHeader((0,)), sequenced=True))
        errors = runtime.decode_errors
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # The body loses its last byte: truncated past its type id.
            sock.sendto(frame[:-1], runtime._resolve(element.address))
        finally:
            sock.close()
        assert runtime.run_until(lambda: element.packets_stamped == 1,
                                 timeout=10.0)
        assert runtime.run_until(
            lambda: runtime.decode_errors - errors == len(replicas),
            timeout=10.0)
        results = []
        for value in range(3):
            op = WorkloadOp(proc="ycsb_write",
                            args={"key": 0, "value": value},
                            participants=(0,), write_keys=frozenset({0}))
            client.submit(op, results.append)
        assert runtime.run_until(lambda: len(results) == 3, timeout=20.0)
        assert all(r.committed for r in results)
        assert cluster.fc.drops_decided == 1
        slot = SlotId(shard=0, epoch=element.epoch, seq=1)
        assert all(slot in replica.perm_drops for replica in replicas)
        runtime.run_for(0.2)
        run_all_checks(cluster)
    finally:
        runtime.stop()


# -- removed knobs -----------------------------------------------------------

def test_runtime_rejects_bad_wire_and_batch_knobs():
    """One wire format, no batching layers, no commutative early apply,
    no timer slack and no sequencing chain: the options that used to
    turn them on are gone, not ignored."""
    from repro.core.replica import ErisConfig
    from repro.harness.cluster import ClusterConfig
    from repro.net.controller import ControllerConfig
    from repro.net.sequencer import MultiSequencer
    from repro.store import ProcedureRegistry

    removed = (
        lambda: AsyncioUdpRuntime(wire="ewc9"),
        lambda: AsyncioUdpRuntime(batch_frames=8),
        lambda: ClusterConfig(sequencer_batch=2),
        lambda: ClusterConfig(chain_pipeline=2),
        lambda: ClusterConfig(sequencer_chain=2),
        lambda: ControllerConfig(chain_repair_delay=10e-3),
        lambda: ClusterConfig(udp_batch_frames=2),
        lambda: ErisConfig(reply_coalesce=2),
        lambda: MultiSequencer("seq0", None, stamp_batch=2),
        lambda: ClusterConfig(commutative_apply=True),
        lambda: ErisConfig(commutative_apply=True),
        lambda: MultiSequencer("seq0", None, commutative_apply=True),
        lambda: ProcedureRegistry().register(
            "p", lambda ctx, args: None, merge=lambda a, b: a + b),
        lambda: AsyncioUdpRuntime(rank=0, timer_slack=0.5e-3),
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
    result, _ = run_traced_udp_smoke(tmp_path, "single", min_commits=25,
                                     timeout=30.0, workload="mrmw",
                                     distributed_fraction=0.5)
    assert result.processes == 1
