"""Experiment harness: build clusters, drive closed-loop load, check
invariants, and format results (§8 methodology).

- :mod:`repro.harness.cluster` — wires up any of the six systems
  (eris, eris-oum, granola, tapir, lockstore, ntur) on the simulated
  fabric and exposes a uniform client interface.
- :mod:`repro.harness.experiment` — warmup/measure closed-loop runs.
- :mod:`repro.harness.checkers` — serializability / atomicity /
  replica-consistency checkers over recorded executions.
- :mod:`repro.harness.faults` — drop-rate injection, sequencer and
  replica kills.
- :mod:`repro.harness.results` — text tables for benchmark output.
- :mod:`repro.harness.topology` — the Eris address plan, its roles,
  and the one role builder every process layout uses.
- :mod:`repro.harness.udp_smoke` — Eris over real UDP loopback sockets
  with invariant checks, in one process or one process per node.
"""

from repro.harness.cluster import Cluster, ClusterConfig, build_cluster
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    failover_window,
    run_experiment,
    run_failover_experiment,
)
from repro.harness.checkers import (
    check_atomicity,
    check_replica_consistency,
    check_serializability,
    check_trace_atomicity,
    check_trace_chain_gapless_logs,
    check_trace_chain_no_stale_release,
    check_trace_chain_stamp_monotonicity,
    check_trace_replica_consistency,
    check_trace_serializability,
    run_all_checks,
    run_trace_checks,
)
from repro.harness.faults import FaultPlan
from repro.harness.results import format_metrics, format_table
from repro.harness.udp_smoke import SmokeResult, run_udp_smoke

__all__ = [
    "Cluster",
    "ClusterConfig",
    "build_cluster",
    "ExperimentConfig",
    "ExperimentResult",
    "failover_window",
    "run_experiment",
    "run_failover_experiment",
    "check_atomicity",
    "check_replica_consistency",
    "check_serializability",
    "check_trace_atomicity",
    "check_trace_chain_gapless_logs",
    "check_trace_chain_no_stale_release",
    "check_trace_chain_stamp_monotonicity",
    "check_trace_replica_consistency",
    "check_trace_serializability",
    "run_trace_checks",
    "FaultPlan",
    "format_metrics",
    "format_table",
    "SmokeResult",
    "run_udp_smoke",
]
