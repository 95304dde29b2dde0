"""Randomized property tests of the multi-stamp design (§5.3).

Driven by seeded stdlib ``random`` — fully deterministic, no extra
dependencies. Three properties the in-network concurrency control
relies on:

1. **gap-free counters** — within one epoch, each group's sequence
   numbers are exactly 1..n: every stamped packet is accounted for and
   a receiver can detect any drop as a hole;
2. **cross-group atomicity** — two packets sharing several destination
   groups are ordered the same way in *all* of them (the multi-stamp is
   assigned atomically), which is what makes the per-shard orders
   globally serializable;
3. **epoch monotonicity** — across sequencer failovers, epochs only
   increase, and within each epoch counters restart gap-free from 1.
"""

import random

from repro.net.controller import ControllerConfig, SDNController
from repro.net.endpoint import Node
from repro.net.network import NetConfig, Network
from repro.net.sequencer import MultiSequencer, SequencerProfile
from repro.obs import Tracer
from repro.sim.event_loop import EventLoop

from conftest import install_alone

N_GROUPS = 4


class Sink(Node):
    def __init__(self, address, network):
        super().__init__(address, network)
        self.packets = []

    def deliver(self, packet):
        self.packets.append(packet)


def build(n_sequencers=1):
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    net.tracer = Tracer(clock=lambda: loop.now)
    for g in range(N_GROUPS):
        addrs = [f"g{g}m0"]
        for a in addrs:
            Sink(a, net)
        net.groups.define(g, addrs)
    seqs = [MultiSequencer(f"seq{i}", net, SequencerProfile.in_switch())
            for i in range(n_sequencers)]
    install_alone(seqs[0])
    net.install_sequencer_route("seq0")
    sender = Sink("client", net)
    return loop, net, seqs, sender


def _random_groups(rng: random.Random) -> tuple[int, ...]:
    k = rng.randint(1, N_GROUPS)
    return tuple(sorted(rng.sample(range(N_GROUPS), k)))


def _stamp_events(net):
    return [e.data for e in net.tracer.select("stamp")]


def test_per_group_counters_are_gap_free():
    rng = random.Random(0xE415)
    loop, net, seqs, sender = build()
    expected = {g: 0 for g in range(N_GROUPS)}
    for _ in range(300):
        groups = _random_groups(rng)
        for g in groups:
            expected[g] += 1
        sender.send_groupcast(groups, "txn")
    loop.run_until_idle()
    seen: dict[int, list[int]] = {g: [] for g in range(N_GROUPS)}
    for stamp in _stamp_events(net):
        for gid, seq in stamp["stamps"]:
            seen[gid].append(seq)
    for g in range(N_GROUPS):
        # In assignment order: strictly increasing by exactly one, from
        # 1 to the number of packets addressed to the group — no gap,
        # no duplicate, nothing unaccounted.
        assert seen[g] == list(range(1, expected[g] + 1))


def test_cross_group_stamp_atomicity():
    rng = random.Random(0xA70)
    loop, net, seqs, sender = build()
    for _ in range(200):
        sender.send_groupcast(_random_groups(rng), "txn")
    loop.run_until_idle()
    stamps = [dict(s["stamps"]) for s in _stamp_events(net)]
    for i, a in enumerate(stamps):
        for b in stamps[i + 1:]:
            shared = sorted(set(a) & set(b))
            if len(shared) < 2:
                continue
            # a was stamped before b, so b's seq must be higher in
            # EVERY shared group — orders never cross.
            assert all(a[g] < b[g] for g in shared), \
                f"crossed stamp order on shared groups {shared}: {a} vs {b}"


def test_receivers_see_identical_multistamp():
    rng = random.Random(7)
    loop, net, seqs, sender = build()
    for _ in range(50):
        sender.send_groupcast(_random_groups(rng), "txn")
    loop.run_until_idle()
    by_cause: dict[int, set] = {}
    for g in range(N_GROUPS):
        for packet in net.endpoint(f"g{g}m0").packets:
            by_cause.setdefault(packet.trace_id, set()).add(
                (packet.multistamp.epoch, packet.multistamp.stamps))
    assert by_cause
    for cause, stamps in by_cause.items():
        assert len(stamps) == 1, \
            f"recipients of message {cause} saw different stamps: {stamps}"


def test_epoch_monotone_and_gap_free_across_failovers():
    rng = random.Random(0xEB0C)
    loop, net, seqs, sender = build(n_sequencers=3)
    controller = SDNController(
        "ctrl", net, [s.address for s in seqs],
        ControllerConfig(ping_interval=1e-3, failure_threshold=2,
                         reroute_delay=4e-3))
    controller.start()
    # Sends spread over 60 ms; two failovers forced mid-stream. Packets
    # hitting the withdrawn route are dropped — the properties must
    # hold for whatever *was* stamped.
    for _ in range(300):
        loop.schedule(rng.uniform(0.0, 60e-3), sender.send_groupcast,
                      _random_groups(rng), "txn")
    loop.schedule(15e-3, controller.force_failover)
    loop.schedule(35e-3, controller.force_failover)
    loop.run(until=80e-3)

    stamps = _stamp_events(net)
    assert controller.failovers == 2
    assert controller.current_epoch == 3
    epochs = [s["epoch"] for s in stamps]
    assert set(epochs) == {1, 2, 3}          # stamping happened in all
    assert epochs == sorted(epochs), "epoch went backwards"
    # Within each epoch, every group's counter restarts at 1, gap-free.
    per_space: dict[tuple[int, int], list[int]] = {}
    for stamp in stamps:
        for gid, seq in stamp["stamps"]:
            per_space.setdefault((stamp["epoch"], gid), []).append(seq)
    for (epoch, gid), seqs_seen in per_space.items():
        assert seqs_seen == list(range(1, len(seqs_seen) + 1)), \
            f"gap in epoch {epoch} group {gid}: {seqs_seen}"
    # Some sends landed in the black-hole window.
    assert net.tracer.count("drop") > 0


def test_install_epoch_must_increase_once_stamped():
    """Only a strictly higher epoch restarts the counters: an install in
    the same epoch keeps them, a lower one is refused."""
    loop, net, seqs, sender = build()
    sender.send_groupcast((0,), "txn")
    loop.run_until_idle()
    assert seqs[0].packets_stamped == 1
    assert not install_alone(seqs[0], epoch=0)  # lower: refused
    assert seqs[0].counters == {0: 1}
    assert install_alone(seqs[0], epoch=1)  # same epoch: kept
    assert seqs[0].counters == {0: 1}
    assert install_alone(seqs[0], epoch=2)  # higher: counters restart
    assert seqs[0].counters == {}
