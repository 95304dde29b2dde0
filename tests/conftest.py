"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import pytest

from repro.harness import ClusterConfig, build_cluster
from repro.net.message import Packet
from repro.net.network import NetConfig
from repro.runtime.codec import (
    decode_datagram,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
)
from repro.sim.event_loop import EventLoop
from repro.sim.randomness import SplitRandom
from repro.store import ProcedureRegistry
from repro.workloads import Partitioner, register_ycsb_procedures
from repro.workloads.ycsb import load_ycsb


def install_alone(sequencer, epoch: int = 1) -> bool:
    """Install ``sequencer`` as the paper's single sequencer, as the
    SDN controller would; True when the element adopts the install."""
    from repro.net.sequencer import SequencerInstall

    return sequencer.apply_install(SequencerInstall(epoch=epoch))


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def rng() -> SplitRandom:
    return SplitRandom(1234)


def make_ycsb_cluster(system: str = "eris", n_shards: int = 2,
                      n_replicas: int = 3, n_keys: int = 200,
                      seed: int = 1, drop_rate: float = 0.0,
                      **config_kwargs):
    """A small cluster with YCSB procedures registered and keys loaded."""
    registry = ProcedureRegistry()
    register_ycsb_procedures(registry)
    partitioner = Partitioner(n_shards)
    config = ClusterConfig(system=system, n_shards=n_shards,
                           n_replicas=n_replicas, seed=seed,
                           net=NetConfig(drop_rate=drop_rate),
                           **config_kwargs)
    cluster = build_cluster(
        config, registry, partitioner,
        loader=lambda stores, p: load_ycsb(stores, p, n_keys))
    return cluster


def logged_txn_ids(replica) -> list:
    """The transaction ids a replica's log holds, in log order: the
    multi-shard ones of its cut prefix (all its summary keeps), then
    every one above the base."""
    log = replica.log
    return [txn_id for txn_id, _ in log.summary().txns()] + [
        entry.record.txn.txn_id for entry in log if entry.kind == "txn"]


def submit_and_wait(cluster, client, op, timeout: float = 0.5):
    """Submit one op on a SystemClient and drive the loop until done."""
    results = []
    client.submit(op, results.append)
    deadline = cluster.loop.now + timeout
    while not results and cluster.loop.now < deadline:
        cluster.loop.run(until=min(deadline, cluster.loop.now + 1e-3))
        if cluster.loop.pending == 0 and not results:
            break
    assert results, "operation did not complete in time"
    return results[0]


def drive(cluster, duration: float) -> None:
    cluster.loop.run(until=cluster.loop.now + duration)


def run_traced_udp_smoke(tmp_path, processes: str, min_commits: int = 15,
                         timeout: float = 60.0, **kwargs):
    """The end-to-end smoke body every process layout must pass: a
    short traced closed-loop run commits, the state- and trace-backed
    §6.7 checkers pass, and the exported trace is the one counted."""
    from repro.harness.udp_smoke import run_udp_smoke
    from repro.obs import load_trace

    trace = str(tmp_path / "trace.jsonl")
    result = run_udp_smoke(processes=processes, n_clients=3,
                           min_commits=min_commits, n_keys=120,
                           timeout=timeout,
                           trace_path=trace,
                           recorder_path=str(tmp_path / "rec.jsonl"),
                           **kwargs)
    assert result.committed >= min_commits
    assert result.checks_passed
    assert result.packets_delivered > 0
    # One datagram carries one frame.
    assert result.frames_sent == result.datagrams_sent > 0
    assert result.trace_path == trace
    events = load_trace(trace)
    assert result.trace_events == len(events) > 0
    return result, events


# -- wire carriages ---------------------------------------------------------

class Carriage(NamedTuple):
    """One way a value crosses the wire: ``encode`` turns it into a
    frame, ``decode`` turns a (possibly damaged) frame back into the
    value, and ``decode_packet`` does the same for a whole packet frame."""

    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]
    decode_packet: Callable[[bytes], Any]


def _in_packet(value: Any) -> bytes:
    return encode_packet(Packet(src="client-1", dst="r0.0", payload=value))


#: Codec contracts must hold however a value crosses the wire. ``ewc2``
#: sends it as a bare message frame. ``ewc1`` sends it as the payload of
#: a packet frame received through ``decode_datagram``, as a transport
#: receives it. The case ids are the names these cases ran under when
#: the suite covered two wire formats; they are kept so per-test results
#: stay comparable across versions.
CARRIAGES = pytest.mark.parametrize("carriage", [
    Carriage(_in_packet, lambda frame: decode_datagram(frame).payload,
             decode_datagram),
    Carriage(encode_message, decode_message, decode_packet),
], ids=["ewc1", "ewc2"])
