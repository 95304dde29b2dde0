"""The benchmark's own load driver.

Written against ``Runtime.now`` / ``call_later`` / ``call_at`` only, so
one driver loads the simulator and the real-socket backend alike; the
backend-specific "advance the clock" call stays with the caller.

Two load models:

- **closed loop** — N logical clients, each submits its next op when
  the previous one completes, so a slow system receives less load;
- **open loop** — ops are submitted on a seeded Poisson schedule no
  matter what is outstanding; latency is timed from the *due* time, so
  a stall is charged to every request that came due during it, and the
  generator's own lateness is recorded.

An op belongs to the measurement window when its reference time (submit
time in the closed loop, due time in the open loop) falls inside it.
Every op of the window is waited for; the ones that abort, time out or
are still outstanding when the caller gives up are the window's
failures.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Optional, Sequence


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence: the
    ``ceil(p/100 * n)``-th smallest value (p=0 gives the minimum)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def poisson_schedule(seed: int, rate: float, duration: float) -> list[float]:
    """Due times (offsets from 0, ascending, all < ``duration``) of a
    Poisson process of ``rate`` arrivals per second. A pure function
    of its arguments."""
    rng = random.Random(seed)
    due: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


class LoadDriver:
    """Warm-up, one measurement window, then stop issuing.

    ``clients`` expose ``submit(op, done)``; ``next_op()`` yields the op
    stream. With ``schedule=None`` the loop is closed (one outstanding
    op per client); otherwise ``schedule`` holds the due offsets from
    :meth:`start` and ops go round-robin over the clients.
    """

    def __init__(self, runtime, clients, next_op: Callable[[], object],
                 warmup: float, window: float,
                 schedule: Optional[list[float]] = None):
        self.runtime = runtime
        self.clients = clients
        self.next_op = next_op
        self.warmup = warmup
        self.window = window
        self.schedule = schedule
        self.t_start = math.inf
        self.t_end = math.inf
        self.first_submit_perf: Optional[float] = None
        self.attempted = 0
        self.outstanding = 0
        self.aborted = 0
        self.retries = 0          # retransmissions of the window's ops
        self.window_attempted = 0
        #: (reference time, latency) of every committed op of the window.
        self.samples: list[tuple[float, float]] = []
        self.sched_lag: list[float] = []
        self._next_due = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        runtime = self.runtime
        t0 = runtime.now
        self.t0 = t0
        self.t_start = t0 + self.warmup
        self.t_end = self.t_start + self.window
        if self.schedule is None:
            for client in self.clients:
                self._issue(client, runtime.now)
        elif self.schedule:
            runtime.call_at(t0 + self.schedule[0], self._fire_due)

    # -- issuing -----------------------------------------------------------
    def _issue(self, client, reference: float) -> None:
        if self.first_submit_perf is None:
            self.first_submit_perf = time.perf_counter()
        in_window = self.t_start <= reference < self.t_end
        self.attempted += 1
        self.outstanding += 1
        if in_window:
            self.window_attempted += 1
        client.submit(self.next_op(),
                      lambda result: self._done(client, reference,
                                                in_window, result))

    def _done(self, client, reference: float, in_window: bool,
              result) -> None:
        now = self.runtime.now
        self.outstanding -= 1
        if in_window:
            self.retries += result.retries
        if not result.committed:
            self.aborted += 1
        elif in_window:
            self.samples.append((reference, now - reference))
        if self.schedule is None and now < self.t_end:
            self._issue(client, now)

    def _fire_due(self) -> None:
        runtime = self.runtime
        schedule = self.schedule
        t0 = self.t0
        now = runtime.now
        # Submit everything that is due, so a late wakeup bursts rather
        # than silently stretching the schedule.
        while self._next_due < len(schedule) \
                and t0 + schedule[self._next_due] <= now:
            due = t0 + schedule[self._next_due]
            client = self.clients[self._next_due % len(self.clients)]
            self._next_due += 1
            if self.t_start <= due < self.t_end:
                self.sched_lag.append(now - due)
            self._issue(client, due)
        if self._next_due < len(schedule):
            runtime.call_at(t0 + schedule[self._next_due], self._fire_due)

    # -- results -----------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.outstanding == 0

    def longest_gap_after(self, instant: float) -> float:
        """Seconds (runtime clock) from ``instant`` to the end of the
        longest commit-free interval that starts at or after it."""
        times = sorted(ref + lat for ref, lat in self.samples
                       if ref + lat >= instant)
        best_len, best_end, previous = 0.0, instant, instant
        for t in times:
            if t - previous > best_len:
                best_len, best_end = t - previous, t
            previous = t
        return best_end - instant
