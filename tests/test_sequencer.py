"""Unit tests for multi-stamping sequencers, OUM, and the controller."""

import pytest

from repro.baselines.common import WorkloadOp
from repro.core.messages import (
    AppliedUpto,
    FastReadRequest,
    IndependentTxnRequest,
)
from repro.core.transaction import IndependentTransaction, TxnId
from repro.harness.checkers import run_all_checks, run_trace_checks
from repro.net.controller import ControllerConfig, SDNController
from repro.net.endpoint import Node
from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.net.network import NetConfig, Network
from repro.net.oum import OUMSequencer
from repro.net.sequencer import INGRESS_BOUND, MultiSequencer, \
    SequencerInstall, SequencerPing, SequencerPong, SequencerProfile
from repro.sim.event_loop import EventLoop

from conftest import drive, install_alone, logged_txn_ids, \
    make_ycsb_cluster, submit_and_wait


class Sink(Node):
    def __init__(self, address, network):
        super().__init__(address, network)
        self.packets = []

    def deliver(self, packet):
        self.packets.append(packet)


def build(groups=2, members=3, oum=False):
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    sinks = {}
    for g in range(groups):
        addrs = [f"g{g}m{i}" for i in range(members)]
        sinks[g] = [Sink(a, net) for a in addrs]
        net.groups.define(g, addrs)
    cls = OUMSequencer if oum else MultiSequencer
    seq = cls("seq0", net, SequencerProfile.in_switch())
    install_alone(seq)
    net.install_sequencer_route("seq0")
    sender = Sink("client", net)
    return loop, net, seq, sinks, sender


def test_multistamp_one_counter_per_group():
    loop, net, seq, sinks, sender = build()
    sender.send_groupcast((0,), "a")
    sender.send_groupcast((1,), "b")
    sender.send_groupcast((0, 1), "c")
    loop.run_until_idle()
    assert seq.counters == {0: 2, 1: 2}
    last = sinks[0][0].packets[-1]
    assert last.multistamp.seq_for(0) == 2
    assert last.multistamp.seq_for(1) == 2


def test_all_group_members_receive_copies():
    loop, net, seq, sinks, sender = build()
    sender.send_groupcast((0, 1), "x")
    loop.run_until_idle()
    for group in (0, 1):
        for sink in sinks[group]:
            assert len(sink.packets) == 1
            assert sink.packets[0].payload == "x"


def test_stamps_are_consistent_across_recipients():
    loop, net, seq, sinks, sender = build()
    for i in range(10):
        sender.send_groupcast((0, 1), i)
    loop.run_until_idle()
    reference = [p.multistamp for p in sinks[0][0].packets]
    for group in (0, 1):
        for sink in sinks[group]:
            assert [p.multistamp for p in sink.packets] == reference


def test_emit_fans_out_once_per_stamp_in_group_order():
    """One stamped groupcast is one fan_out call: the members of every
    destination group, concatenated in the order the groupcast names
    the groups — the order the copies have always left in."""
    loop, net, seq, sinks, sender = build()
    calls = []
    fan_out = net.fan_out

    def spy(packet, destinations):
        calls.append((packet.multistamp, tuple(destinations)))
        fan_out(packet, destinations)

    net.fan_out = spy
    sender.send_groupcast((1, 0), "x")
    sender.send_groupcast((0,), "y")
    loop.run_until_idle()
    group0 = tuple(sink.address for sink in sinks[0])
    group1 = tuple(sink.address for sink in sinks[1])
    assert calls == [(MultiStamp(1, ((1, 1), (0, 1))), group1 + group0),
                     (MultiStamp(1, ((0, 2),)), group0)]
    assert net.fanout_copies == 9


def test_epoch_attached_to_stamp():
    loop, net, seq, sinks, sender = build()
    install_alone(seq, epoch=5)
    sender.send_groupcast((0,), "x")
    loop.run_until_idle()
    assert sinks[0][0].packets[0].multistamp.epoch == 5


def test_install_epoch_resets_counters():
    loop, net, seq, sinks, sender = build()
    sender.send_groupcast((0,), "x")
    loop.run_until_idle()
    assert seq.counters[0] == 1
    install_alone(seq, epoch=2)
    assert seq.counters == {}
    sender.send_groupcast((0,), "y")
    loop.run_until_idle()
    assert sinks[0][0].packets[-1].multistamp.seq_for(0) == 1


def test_install_lower_epoch_rejected_after_stamping():
    """A lower-epoch install can be a reordered resend: it is refused
    without raising, and the element keeps its epoch and counters."""
    loop, net, seq, sinks, sender = build()
    install_alone(seq, epoch=5)
    sender.send_groupcast((0,), "x")
    loop.run_until_idle()
    assert not install_alone(seq, epoch=4)
    assert seq.epoch == 5 and seq.counters == {0: 1}


def test_profiles_match_table1_capacities():
    middlebox = SequencerProfile.middlebox()
    endhost = SequencerProfile.endhost()
    assert 1.0 / middlebox.per_packet_service == pytest.approx(6.19e6)
    assert 1.0 / endhost.per_packet_service == pytest.approx(1.61e6)
    assert middlebox.added_latency == pytest.approx(13.64e-6)
    assert endhost.added_latency == pytest.approx(24.60e-6)


def test_simulated_element_schedules_one_wakeup_per_packet():
    """The simulator charges the element's traversal latency as one
    scheduled callback per packet it receives, counted in the
    ``stamp_wakeups`` gauge (the real-socket twin, which schedules
    none, is in test_runtime_udp.py)."""
    from repro.obs import MetricsRegistry

    loop, net, seq, sinks, sender = build()
    registry = MetricsRegistry()
    seq.instrument(registry)
    delivered = []
    deliver = seq.deliver

    def counting(packet):
        delivered.append(packet)
        deliver(packet)

    seq.deliver = counting
    for i in range(5):
        sender.send_groupcast((0, 1), i)
    sender.send("seq0", SequencerPing(nonce=1))    # control plane too
    loop.run_until_idle()
    assert seq.packets_stamped == 5
    assert len(delivered) == 6
    assert seq.stamp_wakeups == 6
    assert registry.snapshot()["seq0"]["stamp_wakeups"] == 6


def test_crashed_sequencer_stamps_nothing():
    loop, net, seq, sinks, sender = build()
    seq.crash()
    sender.send_groupcast((0,), "x")
    loop.run_until_idle()
    assert sinks[0][0].packets == []
    assert seq.packets_stamped == 0


# -- ingress bookkeeping regressions ---------------------------------------

class _NullTracer:
    """Attaching any tracer turns on the sequencer's ingress map."""

    def sequencer_stamp(self, *a, **k):
        pass

    def packet_send(self, *a, **k):
        pass

    def packet_tx(self, *a, **k):
        pass

    def packet_deliver(self, *a, **k):
        pass

    def record(self, *a, **k):
        pass


def _groupcast_packet(i):
    return Packet(src="client", dst=None, payload=i,
                  groupcast=GroupcastHeader((0,)), sequenced=True)


def test_crash_clears_ingress():
    """Packets recorded at deliver time but still held for the
    profile's traversal latency are never stamped once the sequencer
    crashes: their queue-delay bookkeeping empties out with the node."""
    loop, net, seq, sinks, sender = build()
    net.tracer = _NullTracer()
    for i in range(5):
        seq.deliver(_groupcast_packet(i))
    assert len(seq._ingress) == 5
    seq.crash()
    assert not seq._ingress
    loop.run_until_idle()   # the held packets must be no-ops now
    assert seq.packets_stamped == 0


def test_ingress_map_stays_bounded():
    loop, net, seq, sinks, sender = build()
    net.tracer = _NullTracer()
    for i in range(INGRESS_BOUND + 50):
        seq.deliver(_groupcast_packet(i))
    assert len(seq._ingress) <= INGRESS_BOUND


def test_oum_single_global_counter():
    loop, net, seq, sinks, sender = build(oum=True)
    sender.send_groupcast((0,), "a")
    sender.send_groupcast((1,), "b")
    loop.run_until_idle()
    seqs = [p.multistamp.seq_for(OUMSequencer.GLOBAL_GROUP)
            for p in sinks[0][0].packets]
    assert seqs == [1, 2]


def test_oum_floods_every_member_of_every_group():
    loop, net, seq, sinks, sender = build(oum=True)
    sender.send_groupcast((0,), "only-for-group-0")
    loop.run_until_idle()
    for group in (0, 1):
        for sink in sinks[group]:
            assert len(sink.packets) == 1


# -- read fast path: tracking starts at the first read ----------------------

def _txn_request(seq, key, read_only):
    """A single-shard counter read (READ_ONLY) or reset (a declared
    write of ``key``) on group 0."""
    return IndependentTxnRequest(IndependentTransaction(
        txn_id=TxnId(client="client", seq=seq),
        proc="counter_read" if read_only else "counter_reset",
        args={"key": key}, participants=(0,),
        read_keys=frozenset([key]),
        write_keys=frozenset() if read_only else frozenset([key]),
        op_class="read_only" if read_only else "generic"))


def _report(sinks, upto, members=None):
    """Group 0's replicas report their execution watermark."""
    for sink in sinks[0][:members]:
        sink.send_groupcast((0,), AppliedUpto(shard=0, epoch=1, upto=upto,
                                              sender=sink.address))


def _fast_requests(sinks):
    return [p for sink in sinks[0] for p in sink.packets
            if isinstance(p.payload, FastReadRequest)]


def test_first_read_turns_tracking_on_behind_a_blind_mark():
    """A write stamped before tracking began left no dirty entry: the
    activation raises the blind mark over it, so a read of its key is
    served fast only once every replica has executed it."""
    loop, net, seq, sinks, sender = build()
    sender.send_groupcast((0,), _txn_request(1, 5, read_only=False))
    loop.run_until_idle()
    assert not seq.tracking and not seq._dirty and not seq._blind_high
    # The first read turns tracking on and is stamped like any txn.
    sender.send_groupcast((0,), _txn_request(2, 5, read_only=True))
    loop.run_until_idle()
    assert seq.tracking and seq.counters[0] == 2
    assert seq._blind_high == {0: 1}
    # Every replica has executed nothing of epoch 1: the read of key 5
    # must still be stamped.
    _report(sinks, upto=0)
    sender.send_groupcast((0,), _txn_request(3, 5, read_only=True))
    loop.run_until_idle()
    assert seq.fast_reads == 0 and seq.counters[0] == 3
    # Two of three replicas past the write are not enough.
    _report(sinks, upto=1, members=2)
    sender.send_groupcast((0,), _txn_request(4, 5, read_only=True))
    loop.run_until_idle()
    assert seq.fast_reads == 0 and seq.counters[0] == 4
    _report(sinks, upto=1)
    sender.send_groupcast((0,), _txn_request(5, 5, read_only=True))
    loop.run_until_idle()
    assert seq.fast_reads == 1 and seq.counters[0] == 4
    assert len(_fast_requests(sinks)) == 1


def _controller_setup(n_seq=2):
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    seqs = [MultiSequencer(f"seq{i}", net) for i in range(n_seq)]
    controller = SDNController(
        "ctrl", net, [s.address for s in seqs],
        ControllerConfig(ping_interval=5e-3, failure_threshold=3,
                         reroute_delay=20e-3))
    controller.start()
    return loop, net, seqs, controller


def test_controller_installs_initial_route():
    loop, net, seqs, controller = _controller_setup()
    assert net.sequencer_address == "seq0"
    assert controller.current_epoch == 1


def test_healthy_sequencer_keeps_route():
    loop, net, seqs, controller = _controller_setup()
    loop.run(until=0.2)
    assert controller.failovers == 0
    assert net.sequencer_address == "seq0"


def test_failover_replaces_dead_sequencer():
    loop, net, seqs, controller = _controller_setup()
    loop.run(until=0.05)
    seqs[0].crash()
    loop.run(until=0.2)
    assert controller.failovers == 1
    assert net.sequencer_address == "seq1"
    assert seqs[1].epoch == 2
    assert controller.current_epoch == 2


def test_route_withdrawn_during_failover():
    loop, net, seqs, controller = _controller_setup()
    loop.run(until=0.05)
    seqs[0].crash()
    # run until just after detection but before reroute completes
    observed_none = []

    def probe():
        if net.sequencer_address is None:
            observed_none.append(loop.now)
        if loop.now < 0.2:
            loop.schedule(1e-3, probe)

    loop.schedule(1e-3, probe)
    loop.run(until=0.2)
    assert observed_none, "route should be withdrawn during failover"


def test_force_failover_skips_detection():
    loop, net, seqs, controller = _controller_setup()
    controller.force_failover()
    loop.run(until=0.05)
    assert controller.failovers == 1
    assert net.sequencer_address == "seq1"


# -- the failure detector: late is not dead --------------------------------

class LatePonger(MultiSequencer):
    """Answers every ping ``lag`` seconds late, as a loaded element
    does."""

    lag = 0.0

    def on_SequencerPing(self, src, msg, packet):
        self.call_later(self.lag, self.send, src, SequencerPong(msg.nonce))


@pytest.mark.parametrize("lag_intervals, failovers", [(1.5, 0), (3.5, 1)])
def test_late_pongs_count_until_the_threshold(lag_intervals, failovers):
    """A pong of any ping since the install proves the element alive:
    pongs one and a half ping intervals late keep it serving. Only
    ``failure_threshold`` intervals without a pong of any outstanding
    ping fail it over."""
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    late = LatePonger("seq0", net)
    late.lag = lag_intervals * 5e-3
    standby = MultiSequencer("seq1", net)
    controller = SDNController(
        "ctrl", net, [late.address, standby.address],
        ControllerConfig(ping_interval=5e-3, failure_threshold=3,
                         reroute_delay=20e-3))
    controller.start()
    loop.run(until=0.3)
    assert controller.failovers == failovers
    assert net.sequencer_address == ("seq1" if failovers else "seq0")


# -- failover in a whole cluster -------------------------------------------

def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def make_failover_cluster():
    return make_ycsb_cluster(
        n_shards=2, tracing=True,
        controller=ControllerConfig(ping_interval=3e-3, failure_threshold=2,
                                    reroute_delay=10e-3))


class _SequencersLookRemote:
    """The controller's runtime with every sequencing element in
    another process: installs into them must travel as messages."""

    def __init__(self, runtime, remote):
        self._runtime = runtime
        self._remote = set(remote)

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def has_endpoint(self, address):
        return address not in self._remote \
            and self._runtime.has_endpoint(address)


def test_lost_failover_install_is_resent_until_acked():
    """The paper's single sequencer dies and the install into the
    standby is lost on the wire. The controller must resend it until
    the standby acks; the standby must not stamp before it arrives
    (it would reuse the dead sequencer's epoch-1 stamps)."""
    cluster = make_failover_cluster()
    client = cluster.make_client()
    for i in range(3):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    controller = cluster.controller
    controller.runtime = _SequencersLookRemote(cluster.network,
                                               controller.sequencers)
    lost = []

    def lose_first_install(packet):
        if isinstance(packet.payload, SequencerInstall) and not lost:
            lost.append(packet.dst)
            return True
        return False

    cluster.network.drop_filter = lose_first_install
    cluster.crash_active_sequencer()
    drive(cluster, 0.1)
    standby = cluster.network.endpoint("seq1")
    assert lost == ["seq1"]
    assert controller.failovers == 1
    assert standby.epoch == 2 and not standby.retired
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 9], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


@pytest.mark.parametrize("routes", [[None, "seq1"]],
                         ids=["chain-of-one-lost"])
def test_route_withdrawn_once_per_failure(routes, monkeypatch):
    """One failure, one withdrawal and one re-route: on the per-node
    runtime every route change is a broadcast to every peer process."""
    cluster = make_failover_cluster()
    installed = []
    install = cluster.network.install_sequencer_route

    def record(address):
        installed.append(address)
        install(address)

    monkeypatch.setattr(cluster.network, "install_sequencer_route", record)
    cluster.crash_active_sequencer()
    drive(cluster, 0.1)
    assert installed == routes


def test_falsely_suspected_sequencer_is_fenced_by_the_epoch():
    """Drop the live sequencer's pongs so the controller fails it over
    while it still runs. Nothing retires it, so it still stamps in
    epoch 1 — and once the replicas are in epoch 2, none may log what
    it stamps."""
    cluster = make_failover_cluster()
    client = cluster.make_client()
    for i in range(3):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    controller = cluster.controller
    old = cluster.network.endpoint(controller.active_address)
    cluster.network.drop_filter = (
        lambda p: p.src == old.address and p.dst == controller.address)
    drive(cluster, 0.05)
    cluster.network.drop_filter = None
    assert controller.failovers == 1 and controller.current_epoch == 2
    assert not old.crashed and old.epoch == 1
    # New-epoch traffic on both shards runs the §6.5 epoch change.
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 1], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    drive(cluster, 0.05)
    replicas = [r for group in cluster.replicas.values() for r in group]
    assert all(replica.epoch_num == 2 for replica in replicas)

    stale_id = TxnId(client="stale-client", seq=1)
    request = IndependentTxnRequest(IndependentTransaction(
        txn_id=stale_id, proc="ycsb_rmw", args={"keys": (0, 1)},
        participants=(0, 1), read_keys=frozenset([0, 1]),
        write_keys=frozenset([0, 1]), op_class="generic"))
    stamped = old.packets_stamped
    old.deliver(Packet(src="stale-client", dst=None, payload=request,
                       groupcast=GroupcastHeader((0, 1)), sequenced=True))
    drive(cluster, 0.05)
    assert old.packets_stamped == stamped + 1     # stamped in epoch 1
    for replica in replicas:
        assert stale_id not in logged_txn_ids(replica)
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)
