"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event queue
(:mod:`repro.sim.event_loop`), deterministic seeded randomness
(:mod:`repro.sim.randomness`), and measurement utilities
(:mod:`repro.sim.stats`). Everything above it — the network fabric,
protocol nodes, clients — is expressed as callbacks scheduled on one
:class:`~repro.sim.event_loop.EventLoop`. Timers are the runtime's
(:class:`repro.runtime.interface.Timer` and
:class:`~repro.runtime.interface.PeriodicTimer`), armed on the loop
through :class:`repro.net.network.Network`.
"""

from repro.sim.event_loop import Event, EventLoop
from repro.sim.randomness import SplitRandom
from repro.sim.stats import LatencyRecorder, ThroughputMeter, TimeSeries

__all__ = [
    "Event",
    "EventLoop",
    "SplitRandom",
    "LatencyRecorder",
    "ThroughputMeter",
    "TimeSeries",
]
