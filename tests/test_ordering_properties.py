"""Property tests for the §5.2 multi-sequencing guarantees, measured
end to end through the simulated fabric."""

from hypothesis import given, settings
from hypothesis import strategies as st

import itertools

from repro.net.endpoint import Node
from repro.net.message import Packet
from repro.net.network import NetConfig, Network
from repro.net.sequencer import MultiSequencer, SequencerProfile
from repro.sim.event_loop import EventLoop

from conftest import install_alone


class Receiver(Node):
    def __init__(self, address, network, group):
        super().__init__(address, network)
        self.group = group
        self.stamps = []

    def deliver(self, packet: Packet) -> None:
        self.stamps.append(packet.multistamp)


def run_groupcasts(destinations: list[tuple[int, ...]], n_groups: int,
                   jitter: float = 5e-6):
    """Send one groupcast per entry; return receivers by group."""
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=jitter))
    receivers = {}
    for group in range(n_groups):
        receiver = Receiver(f"g{group}", net, group)
        receivers[group] = receiver
        net.groups.define(group, [receiver.address])
    install_alone(MultiSequencer("seq", net, SequencerProfile.in_switch()))
    net.install_sequencer_route("seq")
    sender = Receiver("client", net, -1)
    for groups in destinations:
        sender.send_groupcast(groups, payload := tuple(groups))
    loop.run_until_idle()
    return receivers


groups_strategy = st.lists(
    st.sets(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda s: tuple(sorted(s))),
    min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(groups_strategy)
def test_per_group_sequence_numbers_are_gapless(destinations):
    """Every receiver sees its group's sequence numbers 1..k with no
    gap and no duplicate (lossless network)."""
    receivers = run_groupcasts(destinations, n_groups=4)
    for group, receiver in receivers.items():
        seqs = sorted(s.seq_for(group) for s in receiver.stamps)
        assert seqs == list(range(1, len(seqs) + 1))


@settings(max_examples=60, deadline=None)
@given(groups_strategy)
def test_shared_destination_messages_are_comparable(destinations):
    """§5.2 partial ordering: any two messages sharing a destination
    group are comparable, and every common receiver agrees on their
    relative order."""
    receivers = run_groupcasts(destinations, n_groups=4)
    # Build per-group relative orders keyed by full stamp identity.
    orders = {}
    for group, receiver in receivers.items():
        orders[group] = {s.stamps: i
                         for i, s in enumerate(
                             sorted(receiver.stamps,
                                    key=lambda s: s.seq_for(group)))}
    for g1, g2 in itertools.combinations(orders, 2):
        shared = set(orders[g1]) & set(orders[g2])
        for a, b in itertools.combinations(shared, 2):
            first = orders[g1][a] < orders[g1][b]
            second = orders[g2][a] < orders[g2][b]
            assert first == second, (
                f"groups {g1} and {g2} disagree on the order of {a} "
                f"vs {b}")


@settings(max_examples=30, deadline=None)
@given(groups_strategy, st.integers(0, 2**32 - 1))
def test_multistamp_counters_independent_of_jitter(destinations, seed):
    """The assigned stamps depend only on sequencer arrival order, and
    per-group counts always equal the number of messages addressed to
    that group."""
    receivers = run_groupcasts(destinations, n_groups=4)
    for group, receiver in receivers.items():
        expected = sum(1 for d in destinations if group in d)
        assert len(receiver.stamps) == expected
