"""Closed-loop experiment driver (§8 methodology).

"As is common, we used closed-loop clients with no wait time": each
client submits one transaction, waits for it to complete, submits the
next. Throughput and latency are measured inside a window that opens
after a warmup period, so cold-start and drain effects stay out of the
numbers. Varying ``n_clients`` traces out the latency-throughput curves
of Figure 6; a large ``n_clients`` saturates the system for the
maximum-throughput figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.baselines.common import WorkloadOp
from repro.harness.cluster import Cluster, SystemClient
from repro.net.endpoint import OpResult
from repro.sim.stats import LatencyRecorder, ThroughputMeter, TimeSeries


@dataclass
class ExperimentConfig:
    n_clients: int = 20
    warmup: float = 20e-3
    duration: float = 100e-3
    drain: float = 20e-3
    #: Count only ops matching this filter toward throughput (e.g.
    #: TPC-C new-order); latency is recorded for the same subset.
    count_filter: Optional[Callable[[WorkloadOp], bool]] = None
    #: Optional bucket width for a throughput time series (Fig 14).
    timeseries_bucket: Optional[float] = None
    #: Export the cluster's causal trace as JSONL here after the run.
    #: Tracing is enabled on the cluster if it is not already.
    trace_path: Optional[str] = None


@dataclass
class ExperimentResult:
    system: str
    throughput: float            # committed (filtered) txns per second
    mean_latency: float
    median_latency: float
    p99_latency: float
    committed: int
    aborted: int
    retries: int
    n_clients: int
    duration: float
    timeseries: list[tuple[float, float]] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.system}: {self.throughput:,.0f} txn/s, "
                f"mean {self.mean_latency * 1e6:.1f} us, "
                f"p99 {self.p99_latency * 1e6:.1f} us "
                f"({self.committed} committed, {self.aborted} failed)")


def closed_loop(client: SystemClient, next_op: Callable[[], WorkloadOp],
                on_complete: Callable[[WorkloadOp, OpResult], None],
                keep_going: Callable[[], bool]) -> None:
    """Drive one client closed-loop: submit ``next_op()``, hand the op
    and its result to ``on_complete``, and submit the next op while
    ``keep_going()`` holds."""
    def issue() -> None:
        op = next_op()
        client.submit(op, lambda result: done(op, result))

    def done(op: WorkloadOp, result: OpResult) -> None:
        on_complete(op, result)
        if keep_going():
            issue()

    issue()


def run_experiment(cluster: Cluster, workload,
                   config: Optional[ExperimentConfig] = None
                   ) -> ExperimentResult:
    """Run one measurement on an already-built cluster.

    The cluster must be freshly built (simulated time at zero) or the
    caller accepts that warmup is relative to the current clock.
    """
    config = config or ExperimentConfig()
    if config.trace_path is not None:
        cluster.enable_tracing()
    loop = cluster.loop
    start = loop.now
    window_start = start + config.warmup
    window_end = window_start + config.duration

    meter = ThroughputMeter()
    meter.open_window(window_start, window_end)
    latencies = LatencyRecorder()
    latencies.open_window(window_start, window_end)
    series = (TimeSeries(config.timeseries_bucket, origin=start)
              if config.timeseries_bucket else None)
    counters = {"aborted": 0, "retries": 0}
    count_filter = config.count_filter

    def on_complete(op: WorkloadOp, result: OpResult) -> None:
        counters["retries"] += result.retries
        if not result.committed:
            counters["aborted"] += 1
            return
        if count_filter is not None and not count_filter(op):
            return
        meter.record(loop.now)
        latencies.record(loop.now, result.latency)
        if series is not None:
            series.record(loop.now)

    def in_window() -> bool:
        return loop.now < window_end

    for i in range(config.n_clients):
        # Stagger starts slightly so the first wave is not a thundering
        # herd of identical timestamps.
        loop.schedule(i * 1e-6, closed_loop, cluster.make_client(),
                      workload.next_op, on_complete, in_window)

    loop.run(until=window_end + config.drain)

    if config.trace_path is not None:
        cluster.tracer.export(config.trace_path)

    mean = latencies.mean()
    return ExperimentResult(
        system=cluster.config.system,
        throughput=meter.rate(),
        mean_latency=mean if not math.isnan(mean) else 0.0,
        median_latency=latencies.median(),
        p99_latency=latencies.percentile(99),
        committed=meter.count,
        aborted=counters["aborted"],
        retries=counters["retries"],
        n_clients=config.n_clients,
        duration=config.duration,
        timeseries=series.series() if series is not None else [],
    )
