"""Table 1 — sequencer implementations: throughput and latency.

Paper: middlebox (Cavium Octeon) 6.19M packets/s at 13.64 us;
end-host (userspace Linux, 24-core Xeon) 1.61M packets/s at 24.60 us.

We drive each simulated sequencer profile with an open-loop packet
stream above its capacity and measure sustained stamping throughput and
the per-packet latency at light load.
"""

import pytest

from repro.net.endpoint import Node
from repro.net.network import NetConfig, Network
from repro.net.sequencer import MultiSequencer, SequencerInstall, \
    SequencerProfile
from repro.sim.event_loop import EventLoop

from bench_common import print_paper_comparison

PAPER = {
    "middlebox": (6.19e6, 13.64e-6),
    "endhost": (1.61e6, 24.60e-6),
}


class _Sink(Node):
    def __init__(self, address, network):
        super().__init__(address, network)
        self.arrivals = []

    def deliver(self, packet):
        self.arrivals.append(self.now)


def measure_profile(profile: SequencerProfile, offered_rate: float,
                    duration: float = 5e-3):
    loop = EventLoop()
    net = Network(loop, NetConfig(base_latency=0.0, jitter=0.0))
    sink = _Sink("sink", net)
    net.groups.define(0, ["sink"])
    sequencer = MultiSequencer("seq", net, profile)
    sequencer.apply_install(SequencerInstall(epoch=1))
    net.install_sequencer_route("seq")
    sender = _Sink("sender", net)
    interval = 1.0 / offered_rate
    count = int(duration / interval)
    for i in range(count):
        loop.schedule(i * interval, sender.send_groupcast, (0,), i)
    loop.run_until_idle(max_events=20_000_000)
    throughput = sequencer.packets_stamped / loop.now
    return throughput


def measure_latency(profile: SequencerProfile) -> float:
    loop = EventLoop()
    net = Network(loop, NetConfig(base_latency=0.0, jitter=0.0))
    sink = _Sink("sink", net)
    net.groups.define(0, ["sink"])
    MultiSequencer("seq", net, profile).apply_install(SequencerInstall(1))
    net.install_sequencer_route("seq")
    sender = _Sink("sender", net)
    sent_at = loop.now
    sender.send_groupcast((0,), "probe")
    loop.run_until_idle()
    return sink.arrivals[0] - sent_at


@pytest.mark.parametrize("name", ["middlebox", "endhost"])
def test_table1_sequencer_capacity(benchmark, name):
    profile = getattr(SequencerProfile, name)()
    paper_tput, paper_lat = PAPER[name]

    def run():
        tput = measure_profile(profile, offered_rate=paper_tput * 1.5)
        latency = measure_latency(profile)
        return tput, latency

    tput, latency = benchmark.pedantic(run, iterations=1, rounds=1)
    print_paper_comparison(
        f"Table 1 — {name} sequencer",
        ["metric", "paper", "measured"],
        [["throughput (pkt/s)", paper_tput, tput],
         ["latency (us)", paper_lat * 1e6, latency * 1e6]])
    # Sustained throughput saturates at the profile's capacity.
    assert tput == pytest.approx(paper_tput, rel=0.05)
    assert latency == pytest.approx(paper_lat, rel=0.05)


def test_table1_in_switch_outpaces_both(benchmark):
    def run():
        return measure_profile(SequencerProfile.in_switch(),
                               offered_rate=10e6, duration=2e-3)

    tput = benchmark.pedantic(run, iterations=1, rounds=1)
    print_paper_comparison(
        "Table 1 (extension) — in-switch sequencer",
        ["metric", "paper", "measured"],
        [["throughput (pkt/s)", "line rate", tput]])
    assert tput > PAPER["middlebox"][0]
