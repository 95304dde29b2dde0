"""Determinism and boundedness guarantees of the optimized simulator.

The event-loop performance pass (tuple-keyed heap, deferred
``reschedule``, heap compaction, fabric fast paths) must not change
*what* the simulator computes, only how fast: two runs with the same
seed must fire the identical ``(time, seq)`` event stream and reach the
identical protocol outcome — and that stream must be identical to the
pre-optimization implementation's, which is pinned here as a digest
captured from the naive heap (cancel-and-repush timers, Event-object
comparisons) on the exact same configuration.
"""

import hashlib

import pytest

from repro.harness import (
    ClusterConfig,
    ExperimentConfig,
    build_cluster,
    run_experiment,
)
from repro.net.controller import ControllerConfig
from repro.net.network import NetConfig, Network
from repro.sim.event_loop import EventLoop
from repro.sim.process import Timer
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import (
    Partitioner,
    YCSBConfig,
    YCSBWorkload,
    register_ycsb_procedures,
)
from repro.workloads.ycsb import load_ycsb

# Pinned from the pre-optimization event loop (naive heap) running this
# exact configuration: sha256 over one "repr(time):seq\n" line per fired
# event. The optimized loop must reproduce it bit-for-bit.
PRE_OPTIMIZATION_DIGEST = \
    "ba16d1cc90106f119f9e8a6661d9c7806df7900f2055bf49b373366de7ada8d2"
PRE_OPTIMIZATION_FIRED = 18524
PRE_OPTIMIZATION_COMMITTED = 1133
PRE_OPTIMIZATION_PACKETS_SENT = 6172
PRE_OPTIMIZATION_THROUGHPUT = 377666.6666666667

# The event stream through a sequencer failure, under a controller that
# detects within 2 ms: the paper's single sequencer killed (epoch
# failover to the standby). It must stay bit-identical.
FAST_CONTROLLER = ControllerConfig(ping_interval=1e-3, failure_threshold=2,
                                   reroute_delay=4e-3)
KILL_AT = 3e-3


def _kill_sequencer(cluster):
    cluster.crash_active_sequencer()


FAILOVER_PINS = {
    # name: (kill, digest, fired, committed)
    "sequencer-kill": (
        _kill_sequencer,
        "f4bb4d1e39b3b6be87c394e6e706d041997d13d32eb3bf25c8d85032fa0605db",
        63689, 4864),
}


def run_small_eris(tracing: bool = False, paranoid_codec: bool = False,
                   instrument: bool = False,
                   sample_series_to: str = "", kill=None):
    """One small fig6-style Eris measurement with an event fingerprint.

    ``instrument`` registers every component's pull-gauges (no sampler:
    nothing is scheduled, so the pinned digest must hold);
    ``sample_series_to`` additionally runs the metrics sampler on the
    simulated clock and exports the JSONL series to that path.
    ``kill(cluster)`` runs at :data:`KILL_AT` under a fast-detecting
    controller and a window long enough to fail over and commit again.
    """
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    partitioner = Partitioner(2)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=42, tracing=tracing,
                      net=NetConfig(paranoid_codec=paranoid_codec),
                      **({"controller": FAST_CONTROLLER} if kill else {})),
        registry, partitioner,
        loader=lambda stores, p: load_ycsb(stores, p, 500))
    digest = hashlib.sha256()
    fired = [0]

    def fingerprint(event):
        digest.update(f"{event.time!r}:{event.seq}\n".encode())
        fired[0] += 1

    cluster.loop.on_event = fingerprint
    sampler = None
    if instrument or sample_series_to:
        cluster.instrument_metrics()
    if sample_series_to:
        from repro.obs import MetricsSampler
        sampler = MetricsSampler(cluster.runtime, cluster.metrics,
                                 interval=1e-3)
        sampler.start()
    if kill is not None:
        cluster.loop.schedule_at(KILL_AT, kill, cluster)
    workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=500),
                            partitioner, SplitRandom(43))
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=20, warmup=1e-3, duration=20e-3 if kill else 3e-3,
        drain=1e-3))
    if sampler is not None:
        sampler.stop()
        sampler.export(sample_series_to)
    return {
        "digest": digest.hexdigest(),
        "fired": fired[0],
        "committed": result.committed,
        "throughput": result.throughput,
        "packets_sent": cluster.network.packets_sent,
        "packets_delivered": cluster.network.packets_delivered,
        "seq": cluster.loop._seq,
        "failovers": cluster.controller.failovers,
    }


def test_same_seed_runs_are_bit_identical():
    first = run_small_eris()
    second = run_small_eris()
    assert first == second


def test_optimized_loop_matches_pre_optimization_pinned_sequence():
    """The whole point of the pinned digest: the perf pass changed the
    data structures, not the event order or the protocol outcome."""
    run = run_small_eris()
    assert run["digest"] == PRE_OPTIMIZATION_DIGEST
    assert run["fired"] == PRE_OPTIMIZATION_FIRED
    assert run["committed"] == PRE_OPTIMIZATION_COMMITTED
    assert run["packets_sent"] == PRE_OPTIMIZATION_PACKETS_SENT
    assert run["throughput"] == pytest.approx(PRE_OPTIMIZATION_THROUGHPUT)


def test_tracing_does_not_perturb_the_event_stream():
    """Trace hooks observe; they must not schedule events or consume
    randomness. A traced run therefore fires the *identical* pinned
    event sequence — tracing is free of Heisenberg effects, so span
    analysis describes exactly the run you would have had without it."""
    run = run_small_eris(tracing=True)
    assert run["digest"] == PRE_OPTIMIZATION_DIGEST
    assert run["fired"] == PRE_OPTIMIZATION_FIRED
    assert run["committed"] == PRE_OPTIMIZATION_COMMITTED
    assert run["packets_sent"] == PRE_OPTIMIZATION_PACKETS_SENT


def test_paranoid_codec_mode_is_bit_identical():
    """With every delivered payload round-tripped through the wire
    codec (each recipient gets its own decoded copy, as over a real
    transport), the simulation still fires the pinned event stream and
    reaches the identical protocol outcome — proof that no handler
    mutates a received message or relies on fan-out copies aliasing one
    payload object."""
    run = run_small_eris(paranoid_codec=True)
    assert run["digest"] == PRE_OPTIMIZATION_DIGEST
    assert run["fired"] == PRE_OPTIMIZATION_FIRED
    assert run["committed"] == PRE_OPTIMIZATION_COMMITTED
    assert run["packets_sent"] == PRE_OPTIMIZATION_PACKETS_SENT
    assert run["throughput"] == pytest.approx(PRE_OPTIMIZATION_THROUGHPUT)


def _record_frame_magics(monkeypatch) -> list:
    """Wrap the codec's packet encoder so a run records the magic of
    every frame it puts on the simulated wire."""
    from repro.runtime import codec
    magics = []
    encode = codec.encode_packet

    def recording(packet):
        frame = encode(packet)
        magics.append(frame[:4])
        return frame

    monkeypatch.setattr(codec, "encode_packet", recording)
    return magics


def test_ewc2_paranoid_codec_mode_is_bit_identical(monkeypatch):
    """The paranoid round-trip really carries every delivered packet as
    an EWC2 frame — exactly one frame per delivery — and that traffic
    still reproduces the pinned event stream bit-exactly."""
    magics = _record_frame_magics(monkeypatch)
    run = run_small_eris(paranoid_codec=True)
    assert run["digest"] == PRE_OPTIMIZATION_DIGEST
    assert run["fired"] == PRE_OPTIMIZATION_FIRED
    assert run["committed"] == PRE_OPTIMIZATION_COMMITTED
    assert run["packets_sent"] == PRE_OPTIMIZATION_PACKETS_SENT
    assert run["throughput"] == pytest.approx(PRE_OPTIMIZATION_THROUGHPUT)
    assert len(magics) == run["packets_delivered"] > 0
    assert set(magics) == {b"EWC3"}


def test_paranoid_codec_carries_reads_of_absent_keys():
    """YCSB over 500 keys with only 100 loaded: most reads miss and
    return ``MISSING``, and every reply carrying one must cross the wire
    round-trip instead of raising inside the replica."""
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    partitioner = Partitioner(2)
    cluster = build_cluster(
        ClusterConfig(system="eris", n_shards=2, seed=42,
                      net=NetConfig(paranoid_codec=True)),
        registry, partitioner,
        loader=lambda stores, p: load_ycsb(stores, p, 100))
    workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=500),
                            partitioner, SplitRandom(43))
    result = run_experiment(cluster, workload, ExperimentConfig(
        n_clients=5, warmup=1e-3, duration=3e-3, drain=1e-3))
    assert result.committed > 0
    assert result.aborted == 0


@pytest.mark.parametrize("name", sorted(FAILOVER_PINS))
def test_failover_event_stream_matches_pinned_sequence(name):
    kill, digest, fired, committed = FAILOVER_PINS[name]
    run = run_small_eris(kill=kill)
    # The kill really failed the sequencer over.
    assert run["failovers"] == 1
    assert (run["digest"], run["fired"], run["committed"]) == \
        (digest, fired, committed)


def test_lossy_run_does_not_depend_on_the_hash_seed():
    """Under loss, the order of a node's sends decides which of them
    the loss RNG drops, so no send loop may follow a set's string-hash
    order: two interpreters with different ``PYTHONHASHSEED`` must
    print the same result row for the same seed."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    command = [sys.executable, "-m", "repro.harness.cli", "--system", "eris",
               "--workload", "mrmw", "--distributed", "0.5", "--shards", "2",
               "--clients", "40", "--drop-rate", "0.02", "--warmup", "0.002",
               "--duration", "0.02", "--seed", "7"]
    runs = [subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src,
                                      PYTHONHASHSEED=seed))
            for seed in ("1", "5")]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert "eris" in outputs[0]
    assert outputs[0] == outputs[1]


# -- telemetry vs the pinned stream ----------------------------------------

def test_metrics_instrumentation_leaves_pinned_sequence_untouched():
    """Registering every component's pull-gauges (the telemetry-off
    configuration of the observability stack) schedules nothing and
    consumes no randomness: the pinned pre-optimization digest must
    hold bit-for-bit with instrumentation on."""
    run = run_small_eris(instrument=True)
    assert run["digest"] == PRE_OPTIMIZATION_DIGEST
    assert run["fired"] == PRE_OPTIMIZATION_FIRED
    assert run["committed"] == PRE_OPTIMIZATION_COMMITTED
    assert run["packets_sent"] == PRE_OPTIMIZATION_PACKETS_SENT
    assert run["throughput"] == pytest.approx(PRE_OPTIMIZATION_THROUGHPUT)


def test_sampled_metrics_series_is_byte_stable(tmp_path):
    """With the sampler on, the sim backend's exported series derives
    entirely from simulated time and deterministic counters: two seeded
    reruns must produce byte-identical files (and identical protocol
    outcomes as each other — the sampler's timer events shift the
    fingerprint relative to the sampler-off pinned digest, but
    deterministically so)."""
    a = tmp_path / "series-a.jsonl"
    b = tmp_path / "series-b.jsonl"
    first = run_small_eris(sample_series_to=str(a))
    second = run_small_eris(sample_series_to=str(b))
    assert first == second
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data  # non-empty: the sampler actually sampled
    assert first["committed"] == PRE_OPTIMIZATION_COMMITTED


# -- boundedness under churn ----------------------------------------------

def test_event_heap_stays_bounded_under_timer_restart_churn():
    """Restartable timers re-armed millions of times must not grow the
    heap: the deferred reschedule keeps one entry per live timer (the
    naive implementation left one cancelled entry per restart)."""
    loop = EventLoop()
    timers = [Timer(loop, 1.0, lambda: None) for _ in range(50)]
    for round_no in range(2000):
        for timer in timers:
            timer.start()
    # One in-heap entry per live timer; nothing accumulated.
    assert len(loop._heap) == len(timers)
    assert loop.pending == len(timers)


def test_event_heap_compaction_bounds_cancel_churn():
    """Timers cancelled outright (stop without restart) accumulate
    lazily-deleted entries only until compaction kicks in."""
    loop = EventLoop()
    for _ in range(50_000):
        timer = Timer(loop, 1.0, lambda: None)
        timer.start()
        timer.stop()
    live = 100
    keep = [Timer(loop, 1.0, lambda: None) for _ in range(live)]
    for timer in keep:
        timer.start()
    assert loop.compactions > 0
    # Cancelled garbage never dominates a large heap: bounded by the
    # compaction threshold, not by the 50k cancels.
    assert len(loop._heap) <= max(2 * (live + 1), EventLoop.COMPACT_MIN + 1)
    assert loop.pending == live


def test_link_clock_stays_bounded_under_endpoint_churn():
    """Short-lived endpoints (clients come and go) must not leak FIFO
    link-clock entries."""
    from repro.net.endpoint import Node

    class Sink(Node):
        def handle(self, src, message, packet):
            pass

    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    server = Sink("server", net)
    for generation in range(200):
        client = Sink(f"client-{generation}", net)
        client.send("server", {"ping": generation})
        server.send(client.address, {"pong": generation})
        loop.run_until_idle()
        net.unregister(client.address)
    # Only links touching still-registered endpoints remain.
    assert len(net._link_clock) <= 2
    assert len(loop._heap) == 0


def test_unregister_prunes_both_link_directions():
    from repro.net.endpoint import Node

    class Sink(Node):
        def handle(self, src, message, packet):
            pass

    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    Sink("a", net)
    Sink("b", net)
    net.endpoint("a").send("b", 1)
    net.endpoint("b").send("a", 2)
    loop.run_until_idle()
    assert ("a", "b") in net._link_clock and ("b", "a") in net._link_clock
    net.unregister("b")
    assert not any("b" in link for link in net._link_clock)
    assert all("b" not in link for link in net._link_clock)
