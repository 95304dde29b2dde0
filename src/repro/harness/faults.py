"""Scheduled fault injection for the §8.3 resilience experiments.

A :class:`FaultPlan` schedules mutations of a running cluster at
absolute simulation times: packet-drop rates (Figure 13), sequencer
kills triggering controller failover + epoch change (Figure 14),
replica kills triggering DL view changes.
"""

from __future__ import annotations

from repro.harness.cluster import Cluster


class FaultPlan:
    """Queue of timed fault actions against one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.injected: list[tuple[float, str]] = []

    def _log(self, label: str) -> None:
        self.injected.append((self.cluster.loop.now, label))

    def set_drop_rate_at(self, at_time: float, rate: float) -> "FaultPlan":
        def apply() -> None:
            self.cluster.set_drop_rate(rate)
            self._log(f"drop_rate={rate}")
        self.cluster.loop.schedule_at(at_time, apply)
        return self

    def kill_sequencer_at(self, at_time: float) -> "FaultPlan":
        def apply() -> None:
            self.cluster.crash_active_sequencer()
            self._log("sequencer-killed")
        self.cluster.loop.schedule_at(at_time, apply)
        return self

    def kill_replica_at(self, at_time: float, shard: int,
                        index: int) -> "FaultPlan":
        def apply() -> None:
            self.cluster.crash_replica(shard, index)
            self._log(f"replica-killed shard={shard} index={index}")
        self.cluster.loop.schedule_at(at_time, apply)
        return self
