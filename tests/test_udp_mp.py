"""Multi-process UDP cluster: topology, worker runtime, snapshots,
trace-shard merging, the launcher's fault handling, and the end-to-end
process-per-node smoke run."""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading

import pytest

from repro.errors import ExperimentError, InvariantViolation
from repro.harness.checkers import run_all_checks
from repro.core.log import ReplicaSnapshot
from repro.harness.cluster import ClusterConfig
from repro.harness.topology import (
    eris_topology,
    role_addresses,
    topology_roles,
)
from repro.harness.udp_smoke import run_udp_smoke
from repro.obs import CAUSE_ID_STRIDE, Tracer, load_trace
from repro.obs.trace import merge_trace_shards
from repro.runtime.codec import decode_datagram, encode_message, decode_message
from repro.runtime.asyncio_udp import (
    AsyncioUdpRuntime,
    RouteInstall,
    control_address,
)

from conftest import make_ycsb_cluster, run_traced_udp_smoke


# -- topology / role derivation --------------------------------------------

def test_topology_matches_single_process_address_plan():
    """Worker processes and the single-process builder must derive the
    identical address strings from the same config — those strings are
    what travels in packets."""
    config = ClusterConfig(system="eris", n_shards=2, n_replicas=3)
    topo = eris_topology(config)
    assert topo.shard_addrs == {0: ["eris-r0.0", "eris-r0.1", "eris-r0.2"],
                                1: ["eris-r1.0", "eris-r1.1", "eris-r1.2"]}
    assert topo.standby_addrs == ("seq0", "seq1")
    assert topo.fc_address == "fc"
    assert topo.controller_address == "controller"
    assert topo.shard_sizes == {0: 3, 1: 3}


def test_topology_roles_cover_every_address_once():
    config = ClusterConfig(system="eris", n_shards=2, n_replicas=3)
    topo = eris_topology(config)
    roles = topology_roles(topo)
    # 6 replicas + sequencers + controller + fc.
    assert len(roles) == 6 + len(topo.standby_addrs) + 2
    addresses = [addr for role in roles
                 for addr in role_addresses(topo, role)]
    assert len(addresses) == len(set(addresses))
    assert "eris-r1.2" in addresses and "fc" in addresses


def test_role_addresses_rejects_unknown_role():
    from repro.errors import ConfigurationError
    topo = eris_topology(ClusterConfig(system="eris"))
    with pytest.raises(ConfigurationError):
        role_addresses(topo, "switch:0")


# -- the runtime of one process in a cluster ------------------------------

class _Sink:
    def __init__(self, address, runtime):
        self.address = address
        self.runtime = runtime
        self.got = []
        runtime.register(self)

    def deliver(self, packet):
        self.got.append(packet)


def test_worker_runtime_resolves_local_before_remote():
    runtime = AsyncioUdpRuntime(seed=3, rank=1)
    try:
        sink = _Sink("a", runtime)
        local_port = runtime._port
        runtime.install_port_map("127.0.0.1", {"a": 99999, "b": 4242})
        assert runtime._resolve("a") == ("127.0.0.1", local_port)
        assert runtime._resolve("b") == ("127.0.0.1", 4242)
        assert runtime._resolve("missing") is None
        assert sink.got == []
    finally:
        runtime.stop()


def test_worker_runtime_delivers_over_real_sockets():
    """Two worker runtimes in one process, wired only through the port
    map: datagrams cross real sockets and land via the drained reader
    (wakeup/datagram counters move)."""
    a = AsyncioUdpRuntime(seed=3, rank=1)
    b = AsyncioUdpRuntime(seed=4, rank=2)
    try:
        _Sink("alpha", a)
        sink_b = _Sink("beta", b)
        port_map = (dict.fromkeys(a._endpoints, a._port)
                    | dict.fromkeys(b._endpoints, b._port))
        a.install_port_map("127.0.0.1", port_map)
        b.install_port_map("127.0.0.1", port_map)
        a.start()
        from repro.net.message import Packet
        a.send(Packet(src="alpha", dst="beta", payload=("hi", 1)))
        # b's sockets are bound but its readers run on its own loop;
        # pump it until the datagram lands.
        b.start()
        b.run_until(lambda: sink_b.got, timeout=5.0)
        assert len(sink_b.got) == 1
        assert sink_b.got[0].src == "alpha"
        assert b.recv_wakeups >= 1
        assert b.recv_datagrams >= 1
        assert b.recv_wakeups <= b.recv_datagrams
    finally:
        a.stop()
        b.stop()


def test_route_install_broadcasts_to_peer_controls():
    """install_sequencer_route must reach every peer process's runtime
    control endpoint as a RouteInstall packet on the wire."""
    runtime = AsyncioUdpRuntime(seed=3, rank=0)
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(5.0)
    try:
        runtime.install_port_map(
            "127.0.0.1",
            {control_address(1): peer.getsockname()[1]})
        assert runtime._peer_controls == [control_address(1)]
        runtime.start()
        runtime.install_sequencer_route("seq0")
        assert runtime.sequencer_address == "seq0"
        data, _ = peer.recvfrom(65536)
        packet = decode_datagram(data)
        assert packet.dst == control_address(1)
        assert isinstance(packet.payload, RouteInstall)
        assert packet.payload.address == "seq0"
    finally:
        peer.close()
        runtime.stop()


def test_route_install_receive_path_installs_locally():
    runtime = AsyncioUdpRuntime(seed=3, rank=2)
    try:
        assert runtime.sequencer_address is None
        from repro.net.message import Packet
        runtime._control.deliver(Packet(
            src=control_address(0), dst=control_address(2),
            payload=RouteInstall("seq1")))
        assert runtime.sequencer_address == "seq1"
        assert runtime.route_installs == 1
    finally:
        runtime.stop()


def test_worker_runtime_rejects_bad_knobs():
    from repro.errors import NetworkError
    with pytest.raises(NetworkError):
        AsyncioUdpRuntime(rank=-1)


# -- snapshots + distributed checkers --------------------------------------

def _run_small_sim_cluster():
    from repro.harness import ExperimentConfig, run_experiment
    from repro.sim.randomness import SplitRandom
    from repro.workloads import YCSBConfig, YCSBWorkload

    cluster = make_ycsb_cluster(n_keys=300)
    workload = YCSBWorkload(
        YCSBConfig(workload="mrmw", n_keys=300,
                   distributed_fraction=0.5),
        cluster.partitioner, SplitRandom(5))
    run_experiment(cluster, workload,
                   ExperimentConfig(n_clients=8, warmup=2e-3,
                                    duration=8e-3, drain=5e-3))
    return cluster


def test_snapshot_cluster_round_trips_through_codec_and_passes_checks():
    """Snapshots survive the wire codec and the checkers accept the
    shipped list."""
    cluster = _run_small_sim_cluster()
    snapshots = []
    for replicas in cluster.replicas.values():
        for replica in replicas:
            snap = ReplicaSnapshot.of(replica)
            decoded = decode_message(encode_message(snap))
            assert isinstance(decoded, ReplicaSnapshot)
            assert decoded == snap
            snapshots.append(decoded)
    assert any(snap.entries for snap in snapshots)
    assert all(snap.store for snap in snapshots)
    assert {snap.shard for snap in snapshots} == set(cluster.replicas)
    run_all_checks(snapshots)


def test_snapshot_checkers_catch_tampered_state():
    """The distributed checkers keep their teeth: divergence planted in
    one snapshot's store is an InvariantViolation."""
    cluster = _run_small_sim_cluster()
    snapshots = [ReplicaSnapshot.of(r)
                 for replicas in cluster.replicas.values()
                 for r in replicas]
    victim = next(s for s in snapshots if s.store)
    key, value = victim.store[0]
    tampered = dataclasses.replace(
        victim, store=((key, (value or 0) + 12345),) + victim.store[1:])
    snapshots = [tampered if s is victim else s for s in snapshots]
    with pytest.raises(InvariantViolation):
        run_all_checks(snapshots)


# -- trace shard merging ---------------------------------------------------

def _make_shard(tmp_path, name, cause_base, ts_values):
    tracer = Tracer(clock=lambda: 0.0, cause_base=cause_base)
    for ts in ts_values:
        tracer.clock = lambda t=ts: t
        tracer.record("send", f"node-{name}",
                      cause=next(tracer._causes))
    path = str(tmp_path / f"trace-{name}.jsonl")
    tracer.export(path)
    return path


def test_merge_trace_shards_sorts_by_timestamp(tmp_path):
    a = _make_shard(tmp_path, "a", 0, [0.3, 0.1])
    b = _make_shard(tmp_path, "b", CAUSE_ID_STRIDE, [0.2, 0.4])
    out = str(tmp_path / "merged.jsonl")
    events = merge_trace_shards([a, b], out)
    assert [e["ts"] for e in events] == [0.1, 0.2, 0.3, 0.4]
    assert load_trace(out) == events


def test_merge_trace_shards_rejects_cause_collision(tmp_path):
    """Two shards assigning the same send cause id means two processes
    shared an id space — the merge must refuse to fuse them."""
    a = _make_shard(tmp_path, "a", 0, [0.1])
    b = _make_shard(tmp_path, "b", 0, [0.2])  # same cause_base: collide
    with pytest.raises(ValueError, match="cause"):
        merge_trace_shards([a, b])


def test_cause_base_makes_id_spaces_disjoint():
    low = Tracer(clock=lambda: 0.0, cause_base=0)
    high = Tracer(clock=lambda: 0.0, cause_base=3 * CAUSE_ID_STRIDE)
    low_ids = {next(low._causes) for _ in range(100)}
    high_ids = {next(high._causes) for _ in range(100)}
    assert not low_ids & high_ids
    assert min(high_ids) > max(low_ids)


def test_trace_merge_cli(tmp_path, capsys):
    from repro.harness.cli import main
    a = _make_shard(tmp_path, "a", 0, [0.2])
    b = _make_shard(tmp_path, "b", CAUSE_ID_STRIDE, [0.1])
    out = str(tmp_path / "merged.jsonl")
    assert main(["trace", "merge", a, b, "-o", out]) == 0
    assert "2 events" in capsys.readouterr().out
    assert [e["ts"] for e in load_trace(out)] == [0.1, 0.2]


# -- control-plane framing -------------------------------------------------

def test_launcher_messages_round_trip_through_codec():
    from repro.runtime.launcher import (
        ClusterStart,
        ClusterStop,
        StopAck,
        WorkerHello,
    )
    hello = WorkerHello(role="replica:0:1", rank=3, pid=123,
                        ports=(("eris-r0.1", 40001), ("_rt.3", 40002)))
    assert decode_message(encode_message(hello)) == hello
    start = ClusterStart(host="127.0.0.1",
                         port_map=(("a", 1), ("b", 2)))
    assert decode_message(encode_message(start)) == start
    snap = ReplicaSnapshot(address="eris-r0.0", shard=0, replica_index=0,
                           view_num=1, is_dl=True, crashed=False, fed=4,
                           entries=(), store=((5, 7),))
    stop = ClusterStop(drain=0.06)
    assert decode_message(encode_message(stop)) == stop
    ack = StopAck(rank=1, role="replica:0:0", snapshots=(snap,),
                  counters=(("packets_sent", 10),))
    assert decode_message(encode_message(ack)) == ack


# -- the per-node worker ---------------------------------------------------

def test_worker_builds_no_role_before_cluster_start(tmp_path):
    """A worker reports its role's addresses, all on its one socket,
    but builds the role only on ClusterStart: with no ClusterStart, a
    follower's DL timer never fires, however long the other processes
    take to report in."""
    import asyncio

    from repro.harness.udp_smoke import _UDP_ERIS
    from repro.runtime.worker import Worker

    worker = Worker("replica:0:1", rank=5, spec={
        "shards": 2, "replicas": 3, "keys": 50, "seed": 7,
        "run_dir": str(tmp_path)})
    try:
        worker.runtime.aloop.run_until_complete(
            asyncio.sleep(_UDP_ERIS["view_change_timeout"] + 0.1))
        assert not [e for e in worker.recorder.events()
                    if e.kind == "view_change_start"]
        assert not worker.cluster.replicas
        port = worker.runtime._port
        assert worker.ports == {"eris-r0.1": port, control_address(5): port}
    finally:
        worker.runtime.stop()


# -- end-to-end multi-process runs -----------------------------------------

def test_mp_smoke_end_to_end(tmp_path):
    """The full stack across real OS processes, on the coordination-free
    counters workload, whose reads take the fast path: ≥8 processes, the
    merged-state §6.7 checkers, and collision-free merged tracing."""
    run_dir = tmp_path / "run"
    result, events = run_traced_udp_smoke(
        tmp_path, "per-node", run_dir=str(run_dir),
        workload="counters")
    assert result.processes >= 8
    assert result.run_dir == str(run_dir)
    # Events from the driver shard and at least one worker shard made
    # it into the merge (cause ids above the stride ⇒ worker-assigned).
    causes = [e.get("cause") for e in events if e.get("cause")]
    assert any(c >= CAUSE_ID_STRIDE for c in causes)
    assert any(0 < c < CAUSE_ID_STRIDE for c in causes)
    assert (run_dir / "trace-1.jsonl").exists()


def test_mp_launcher_detects_killed_worker(tmp_path):
    """Supervision: a worker dying mid-run tears the cluster down and
    raises an error naming the dead worker's log (and its recorder
    dump, which the SIGTERM handler writes on the way out); the
    driver's own recorder window lands at ``recorder_path``."""
    seen = {}

    def kill_one(host):
        launcher = host.launcher
        worker = launcher.workers[1]
        seen["log"] = worker.log_path
        worker.proc.send_signal(signal.SIGTERM)
        seen["launcher"] = launcher

    recorder = tmp_path / "driver-recorder.jsonl"
    with pytest.raises(ExperimentError) as err:
        run_udp_smoke(processes="per-node", min_commits=100000,
                      n_clients=3, n_keys=120, timeout=60.0,
                      run_dir=str(tmp_path / "run"),
                      recorder_path=str(recorder), _mid_run=kill_one)
    message = str(err.value)
    assert "exited with code" in message
    assert seen["log"] in message
    # Teardown is complete: no worker process left running.
    for worker in seen["launcher"].workers.values():
        assert worker.proc.poll() is not None
    assert recorder.exists()


def test_mp_missed_commits_not_hidden_by_collect_timeout(tmp_path,
                                                        monkeypatch):
    """A per-node run that misses ``min_commits`` reports the missed
    commit count, even when the cluster is too wedged to answer the
    stop exchange."""
    import asyncio

    from repro.harness import udp_smoke
    from repro.runtime.launcher import ClusterLauncher

    async def wedged(self, drain=0.0, timeout=15.0):
        raise asyncio.TimeoutError

    monkeypatch.setattr(udp_smoke._PerNode, "start",
                        lambda self, timeout, interrupted: None)
    monkeypatch.setattr(udp_smoke._PerNode, "wait",
                        lambda self, predicate, timeout: False)
    monkeypatch.setattr(ClusterLauncher, "shutdown", wedged)
    with pytest.raises(ExperimentError, match="transactions committed"):
        run_udp_smoke(processes="per-node", min_commits=10, n_clients=1,
                      timeout=0.1, run_dir=str(tmp_path / "run"),
                      recorder_path=str(tmp_path / "rec.jsonl"))


def test_udp_smoke_sigint_drains_and_exports(tmp_path):
    """A SIGINT mid-run ends the single-process smoke gracefully: no
    exception, the interruption is noted, and the metrics series is
    still exported."""
    timer = threading.Timer(0.8, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        metrics_path = str(tmp_path / "metrics.jsonl")
        result = run_udp_smoke(processes="single", min_commits=10 ** 9,
                               timeout=30.0, n_clients=2, n_keys=120,
                               metrics_path=metrics_path,
                               recorder_path=str(tmp_path / "rec.jsonl"))
    finally:
        timer.cancel()
    assert any("interrupted by SIGINT" in note for note in result.notes)
    assert not result.checks_passed
    assert result.metrics_samples > 0
    assert os.path.exists(metrics_path)
