"""Observability parity on the real-UDP backend.

The simulator's tracing/metrics stack must work unmodified over real
sockets: wall-clock traces feed the same 7-phase span decomposition
(with the PR 3 telescoping invariant intact), the metrics sampler
produces a real-time series, and the always-on flight recorder leaves
a dump on disk when a §6.7 checker fails.
"""

from __future__ import annotations

import pytest

from repro.core.replica import ErisReplica
from repro.errors import InvariantViolation
from repro.harness.udp_smoke import run_udp_smoke
from repro.obs import (
    MetricsRegistry,
    analyze_spans,
    build_spans,
    load_recorder_dump,
    load_series,
    load_trace,
)
from repro.runtime.asyncio_udp import AsyncioUdpRuntime


# -- tracer clock coupling (regression) ------------------------------------

def test_attach_tracer_uses_runtime_clock_never_wall_clock(monkeypatch):
    """Trace timestamps must come from the asyncio loop's monotonic
    clock: a wall-clock step (NTP, DST, a leap smear) must not be able
    to produce negative phase durations. Regression: even a tracer
    built with a bogus clock gets rebound to the runtime's."""
    import time

    monkeypatch.setattr(time, "time", lambda: 1.0e12)
    runtime = AsyncioUdpRuntime(seed=1)
    try:
        from repro.obs import Tracer

        tracer = runtime.attach_tracer(Tracer(clock=lambda: -12345.0))
        assert runtime.tracer is tracer
        before = runtime.now
        event = tracer.record("probe", "n")
        after = runtime.now
        assert before <= event.ts <= after
        assert event.ts != pytest.approx(1.0e12)
        assert event.ts != -12345.0
    finally:
        runtime.stop()


def test_attach_tracer_creates_one_when_not_given():
    runtime = AsyncioUdpRuntime(seed=1)
    try:
        tracer = runtime.attach_tracer()
        assert runtime.tracer is tracer
        # Bound, not equality: the loop clock advances between reads.
        assert abs(tracer.clock() - runtime.now) < 0.01
    finally:
        runtime.stop()


# -- runtime health metrics ------------------------------------------------

def test_instrument_registers_udp_health_metrics():
    from repro.net.endpoint import Node

    class Echo(Node):
        def handle(self, src, message, packet):
            if message != "pong":
                self.send(src, "pong")

    runtime = AsyncioUdpRuntime(seed=2)
    registry = MetricsRegistry()
    runtime.instrument(registry)
    try:
        a = Echo("a", runtime)
        Echo("b", runtime)
        runtime.start()
        a.send("b", "ping")
        assert runtime.run_until(lambda: runtime.packets_delivered >= 2,
                                 timeout=5.0)
        # Give the 5ms lag probe a few periods to fire.
        runtime.run_for(0.03)
        snap = registry.snapshot()
        udp = snap["udp"]
        assert udp["packets_sent"] >= 2
        assert udp["packets_delivered"] >= 2
        assert udp["datagrams_sent"] >= 2
        assert udp["send_errors"] == 0
        assert udp["socket_errors"] == 0
        assert udp["endpoints"] == 2
        # Push histogram saw every datagram.
        assert udp["datagram_bytes"]["count"] == udp["datagrams_sent"]
        # The loop-lag probe runs while the loop runs.
        assert snap["runtime"]["loop_lag"]["count"] >= 1
    finally:
        runtime.stop()


def test_loop_lag_p99_resolves_sub_millisecond_differences():
    """The loop-lag histogram's buckets are fine enough that lags of
    1.2 and 1.5 ms read apart, each within 10% of the truth (power-of-
    two buckets read 2.048 ms for both)."""
    p99s = []
    for lag in (1.2e-3, 1.5e-3):
        runtime = AsyncioUdpRuntime(seed=2)
        registry = MetricsRegistry()
        try:
            runtime.instrument(registry)
            hist = runtime._hist_loop_lag
            for _ in range(99):
                hist.record(lag)
            hist.record(50e-3)        # a stall above the p99
            p99 = registry.snapshot()["runtime"]["loop_lag"]["p99"]
        finally:
            runtime.stop()
        assert p99 == pytest.approx(lag, rel=0.10)
        p99s.append(p99)
    assert p99s[0] < p99s[1]


def test_counter_gauges_are_marked_monotone():
    """The sampler's delta/rate treatment keys off the monotone flag;
    the runtime's counter-style gauges must declare it."""
    runtime = AsyncioUdpRuntime(seed=2)
    registry = MetricsRegistry()
    runtime.instrument(registry)
    try:
        flags = {name: getattr(inst, "monotone", None)
                 for comp, name, inst in registry.instruments()
                 if comp == "udp"}
        for name in ("packets_sent", "packets_delivered", "datagrams_sent",
                     "frames_sent", "send_errors", "socket_errors",
                     "recv_wakeups", "recv_datagrams"):
            assert flags[name] is True, name
        assert flags["endpoints"] is False
    finally:
        runtime.stop()


# -- end-to-end: traced smoke run ------------------------------------------

def test_traced_udpsmoke_phases_telescope_exactly(tmp_path):
    """The PR 3 invariant on the real transport: per-transaction phase
    durations, all timestamped by one monotonic loop clock, sum exactly
    to the client-observed end-to-end latency."""
    trace = str(tmp_path / "udp.jsonl")
    result = run_udp_smoke(min_commits=10, n_clients=2,
                           trace_path=trace,
                           recorder_path=str(tmp_path / "fr.jsonl"))
    assert result.checks_passed
    assert result.trace_events > 0
    forest = build_spans(load_trace(trace))
    attributed = forest.attributed()
    assert len(attributed) >= 10
    for txn in attributed:
        assert sum(txn.phases.values()) == pytest.approx(txn.end_to_end)
        assert all(d >= 0 for d in txn.phases.values())
    report = analyze_spans(forest)
    assert report["txns"]["attributed"] == len(attributed)
    assert report["consistency"]["residual_us"] == pytest.approx(0.0)


def test_udpsmoke_exports_metrics_series(tmp_path):
    series = str(tmp_path / "metrics.jsonl")
    result = run_udp_smoke(min_commits=10, n_clients=2,
                           metrics_path=series, metrics_interval=0.02,
                           recorder_path=str(tmp_path / "fr.jsonl"))
    assert result.metrics_samples >= 1
    meta, samples = load_series(series)
    assert meta["backend"] == "asyncio-udp"
    last = samples[-1]["metrics"]
    assert last["udp"]["packets_delivered"]["v"] > 0
    assert last["udp"]["datagram_bytes"]["count"] > 0
    assert "loop_lag" in last["runtime"]


def test_udpsmoke_clean_run_leaves_no_recorder_dump(tmp_path):
    fr = tmp_path / "fr.jsonl"
    result = run_udp_smoke(min_commits=10, n_clients=2,
                           recorder_path=str(fr))
    assert result.checks_passed
    assert result.recorder_dump is None
    assert not fr.exists()


def test_udpsmoke_injected_violation_dumps_flight_recorder(tmp_path):
    """The acceptance-criteria demonstration: a failing §6.7 checker on
    a udpsmoke run leaves the last-N-events window on disk, even though
    full tracing was never requested (ring-only mode)."""
    fr = tmp_path / "fr.jsonl"

    def corrupt_follower_log(cluster):
        import dataclasses

        replicas = [r for r in cluster.replicas[0]
                    if isinstance(r, ErisReplica)]
        victim = next(r for r in replicas if not r.is_dl)
        entry = victim.log.entries()[0]
        flipped = "noop" if entry.kind == "txn" else "txn"
        victim.log._entries[0] = dataclasses.replace(entry, kind=flipped)

    with pytest.raises(InvariantViolation, match="divergence"):
        run_udp_smoke(min_commits=10, n_clients=2,
                      recorder_path=str(fr), recorder_capacity=256,
                      _inject_fault=corrupt_follower_log)
    assert fr.exists()
    header, events = load_recorder_dump(str(fr))
    assert header["origin"] == "run_all_checks"
    assert "divergence" in header["reason"]
    assert 0 < header["recorded"] <= 256
    assert len(events) == header["recorded"]
    # The window holds real packet-lifecycle events from the run.
    assert {"send", "deliver"} & {e["kind"] for e in events}
