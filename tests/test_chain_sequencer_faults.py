"""Fault matrix for a sequencing chain longer than one (`repro.net.sequencer`).

Every scenario drives real transactions through a chain-fronted Eris
cluster, injects the fault, and then holds the execution to the §6.7
trace checkers — including the three chain-specific invariants (stamp
monotonicity across repair, gapless replica logs, no stale-tail
release). The matrix mirrors the epoch-change tests: crashes at every
chain position, false suspicion (stale tail fenced, not crashed),
crashes under packet loss and under non-FIFO links, and the
whole-chain-lost fallback to the paper's epoch-change path.
"""

import pytest

from repro.baselines.common import WorkloadOp
from repro.harness.checkers import run_all_checks, run_trace_checks
from repro.harness.faults import FaultPlan
from repro.net.controller import ControllerConfig
from repro.net.sequencer import ChainInstall

from conftest import drive, make_ycsb_cluster, submit_and_wait


def rmw_op(keys, partitioner):
    return WorkloadOp(proc="ycsb_rmw", args={"keys": tuple(keys)},
                      participants=partitioner.participants_for(keys),
                      read_keys=frozenset(keys), write_keys=frozenset(keys))


def fast_controller(**overrides):
    defaults = dict(ping_interval=3e-3, failure_threshold=2,
                    reroute_delay=10e-3, chain_repair_delay=3e-3)
    defaults.update(overrides)
    return ControllerConfig(**defaults)


def make_chain_cluster(chain=3, **kwargs):
    kwargs.setdefault("controller", fast_controller())
    kwargs.setdefault("tracing", True)
    return make_ycsb_cluster(n_shards=2, sequencer_chain=chain, **kwargs)


def chain_nodes(cluster):
    return [cluster.network.endpoint(a) for a in cluster.controller.chain]


# -- normal operation ------------------------------------------------------

def test_chain_normal_operation_head_stamps_tail_releases():
    cluster = make_chain_cluster(chain=3)
    client = cluster.make_client()
    for i in range(8):
        result = submit_and_wait(cluster, client,
                                 rmw_op([i, 8 + i % 4], cluster.partitioner))
        assert result.committed
    head, mid, tail = chain_nodes(cluster)
    assert head.is_head and tail.is_tail
    assert head.packets_stamped == 8
    assert mid.packets_stamped == 0 and tail.packets_stamped == 0
    assert head.forwards_propagated == 8 and mid.forwards_propagated == 8
    assert tail.releases == 8
    # Counter state is fully replicated once a stamp is released.
    assert head.counters == mid.counters == tail.counters
    # No read yet, so the head does not track; every later element
    # installs each write's dirty entries as it passes, ready for a
    # splice to make it head.
    assert not head.tracking and not head._dirty
    written = {key for i in range(8) for key in (i, 8 + i % 4)}
    assert set(mid._dirty) == set(tail._dirty) == written
    assert cluster.controller.chain_repairs == 0
    assert cluster.controller.failovers == 0
    run_all_checks(cluster)


# -- single-node crashes at every chain position ---------------------------

@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["head", "middle", "tail"])
def test_chain_node_crash_mid_stamp_splices_without_epoch_bump(index):
    cluster = make_chain_cluster(chain=3)
    clients = [cluster.make_client() for _ in range(4)]
    done = []

    def pump(client, count):
        if count == 0:
            return
        client.submit(rmw_op([count % 6, 6 + count % 3], cluster.partitioner),
                      lambda r: (done.append(r), pump(client, count - 1)))

    for c in clients:
        pump(c, 25)
    FaultPlan(cluster).kill_chain_node_at(cluster.loop.now + 2e-3, index)
    drive(cluster, 1.0)
    committed = [r for r in done if r.committed]
    assert len(committed) >= 4 * 25 - 4      # clients retry through it
    controller = cluster.controller
    assert controller.chain_repairs >= 1
    # Splice repair, not the paper's stop-the-world path: no failover,
    # no epoch bump anywhere in the system.
    assert controller.failovers == 0
    assert controller.current_epoch == 1
    assert len(controller.chain) == 2
    for replicas in cluster.replicas.values():
        for replica in replicas:
            assert replica.epoch_num == 1
    # Fresh traffic commits through the spliced chain.
    result = submit_and_wait(cluster, clients[0],
                             rmw_op([0, 7], cluster.partitioner), timeout=1.0)
    assert result.committed
    assert cluster.tracer.count("chain_repair") >= 1
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


# -- false suspicion: the fenced node is still alive -----------------------

def test_stale_tail_fenced_after_repair():
    """Drop the tail's health-check pongs so the controller splices out
    a perfectly healthy tail. The install must fence it (retired), and
    any of its late releases must be version-rejected — the no-stale-
    release invariant holds even though the node never crashed."""
    cluster = make_chain_cluster(chain=3)
    client = cluster.make_client()
    for i in range(5):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    tail_addr = cluster.controller.chain[-1]
    cluster.network.drop_filter = (
        lambda p: p.src == tail_addr and p.dst == "controller")
    drive(cluster, 0.05)
    cluster.network.drop_filter = None
    controller = cluster.controller
    assert controller.chain_repairs >= 1
    assert tail_addr not in controller.chain
    assert controller.current_epoch == 1 and controller.failovers == 0
    old_tail = cluster.network.endpoint(tail_addr)
    assert old_tail.retired and not old_tail.crashed
    # The spliced chain keeps serving; stamps continue monotonically
    # from the counters the old tail had already replicated.
    for i in range(5):
        result = submit_and_wait(cluster, client,
                                 rmw_op([i, 8 + i], cluster.partitioner),
                                 timeout=1.0)
        assert result.committed
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


def test_stale_forward_version_rejected_after_repair():
    """A ChainForward from the pre-repair incarnation reaching a
    repaired node is dropped by the version fence (never released)."""
    from repro.net.sequencer import ChainForward

    cluster = make_chain_cluster(chain=2)
    client = cluster.make_client()
    for i in range(3):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    head_addr, tail_addr = cluster.controller.chain
    tail = cluster.network.endpoint(tail_addr)
    old_version = tail.version
    cluster.crash_chain_node(0)              # head dies; tail survives
    drive(cluster, 0.1)
    assert cluster.controller.chain == [tail_addr]
    assert tail.version > old_version
    releases_before = tail.releases
    stale = ChainForward(version=old_version, epoch=1,
                         stamps=((0, 999),), origin="client-1",
                         payload=None, groups=(0,))
    tail.on_ChainForward(head_addr, stale, None)
    assert tail.releases == releases_before
    assert tail.stale_rejected >= 1
    assert tail.counters.get(0, 0) < 999     # stale write not absorbed
    run_trace_checks(cluster.tracer)


# -- crashes under adverse network conditions ------------------------------

@pytest.mark.parametrize("drop_rate", [0.05, 0.2])
def test_head_crash_under_packet_loss(drop_rate):
    """Chain repair's own control messages (state request, installs,
    acks) get dropped; the controller's retransmission must push the
    splice through anyway."""
    cluster = make_chain_cluster(chain=3)
    client = cluster.make_client()
    for i in range(4):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    now = cluster.loop.now
    plan = FaultPlan(cluster)
    plan.kill_chain_node_at(now + 1e-3, 0)
    plan.set_drop_rate_at(now + 1e-3, drop_rate)
    plan.set_drop_rate_at(now + 0.25, 0.0)
    drive(cluster, 0.6)
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 9], cluster.partitioner),
                             timeout=2.0)
    assert result.committed
    drive(cluster, 0.2)
    controller = cluster.controller
    assert controller.chain_repairs >= 1
    assert cluster.tracer.count("drop") > 0
    # Loss may fell more members (dropped pongs -> more splices, or in
    # the worst case the epoch fallback); whatever path ran, the
    # invariants must hold and the system must be live.
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


def test_tail_crash_with_reordered_links():
    cluster = make_chain_cluster(chain=3)
    cluster.network.config.fifo_links = False
    cluster.network.config.jitter = 30e-6    # >> back-to-back send gaps
    clients = [cluster.make_client() for _ in range(5)]
    done = []
    for c in clients:
        for i in range(8):
            c.submit(rmw_op([i % 4, 4 + i % 3], cluster.partitioner),
                     done.append)
    FaultPlan(cluster).kill_chain_node_at(cluster.loop.now + 2e-3, -1)
    drive(cluster, 1.0)
    committed = [r for r in done if r.committed]
    assert len(committed) >= 5 * 8 - 5
    assert cluster.tracer.count("reorder") > 0
    assert cluster.controller.chain_repairs >= 1
    assert cluster.controller.current_epoch == 1
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


# -- whole chain lost: the epoch-change fallback ---------------------------

def test_whole_chain_lost_falls_back_to_epoch_change():
    cluster = make_chain_cluster(chain=2)
    client = cluster.make_client()
    for i in range(5):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    cluster.crash_chain_node(0)
    cluster.crash_chain_node(1)
    drive(cluster, 0.3)
    controller = cluster.controller
    assert controller.failovers == 1
    assert controller.current_epoch == 2
    assert controller.active_address.startswith("seq")
    # New-epoch traffic triggers the §6.5 epoch change lazily.
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 8], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    drive(cluster, 0.2)
    assert cluster.tracer.count("chain_lost") == 1
    for replicas in cluster.replicas.values():
        for replica in replicas:
            if not replica.crashed:
                assert replica.epoch_num == 2
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


class _SequencersLookRemote:
    """The controller's runtime with every sequencing element in
    another process: installs into them must travel as messages."""

    def __init__(self, runtime, remote):
        self._runtime = runtime
        self._remote = set(remote)

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def has_endpoint(self, address):
        return address not in self._remote \
            and self._runtime.has_endpoint(address)


def test_lost_failover_install_is_resent_until_acked():
    """The paper's single sequencer dies and the install into the
    standby is lost on the wire. The controller must resend it until
    the standby acks; the standby must not stamp before it arrives
    (it would reuse the dead sequencer's epoch-1 stamps)."""
    cluster = make_chain_cluster(chain=0)
    client = cluster.make_client()
    for i in range(3):
        submit_and_wait(cluster, client, rmw_op([i], cluster.partitioner))
    controller = cluster.controller
    controller.runtime = _SequencersLookRemote(cluster.network,
                                               controller.sequencers)
    lost = []

    def lose_first_install(packet):
        if isinstance(packet.payload, ChainInstall) and not lost:
            lost.append(packet.dst)
            return True
        return False

    cluster.network.drop_filter = lose_first_install
    cluster.crash_active_sequencer()
    drive(cluster, 0.1)
    standby = cluster.network.endpoint("seq1")
    assert lost == ["seq1"]
    assert controller.failovers == 1
    assert standby.epoch == 2 and standby.is_head and standby.is_tail
    result = submit_and_wait(cluster, client,
                             rmw_op([0, 9], cluster.partitioner),
                             timeout=1.0)
    assert result.committed
    run_trace_checks(cluster.tracer)
    run_all_checks(cluster)


@pytest.mark.parametrize("chain, kill, routes", [
    (0, "all", [None, "seq1"]),
    (2, "all", [None, "seq1"]),
    (3, "head", [None, "chain1"]),
], ids=["chain-of-one-lost", "chain-of-two-lost", "head-of-three-killed"])
def test_route_withdrawn_once_per_failure(chain, kill, routes, monkeypatch):
    """One failure, one withdrawal and one re-route: on the per-node
    runtime every route change is a broadcast to every peer process."""
    cluster = make_chain_cluster(chain=chain)
    installed = []
    install = cluster.network.install_sequencer_route

    def record(address):
        installed.append(address)
        install(address)

    monkeypatch.setattr(cluster.network, "install_sequencer_route", record)
    members = len(cluster.controller.chain) if kill == "all" else 1
    for index in range(members):
        cluster.crash_chain_node(index)
    drive(cluster, 0.1)
    assert installed == routes


# -- the acceptance criterion: repair beats the epoch bump -----------------

def test_chain_repair_window_strictly_smaller_than_epoch_bump():
    """Extended fig14 at test scale: identical workload and controller
    timing, one run with the paper's single sequencer (epoch bump on
    failure) and one with a 2-node chain (splice repair). The chain's
    outage window must be strictly smaller, and both executions must
    pass every §6.7 checker."""
    from repro.harness import ExperimentConfig, build_cluster, \
        run_failover_experiment
    from repro.harness.cluster import ClusterConfig
    from repro.net.network import NetConfig
    from repro.sim.randomness import SplitRandom
    from repro.store import ProcedureRegistry
    from repro.workloads import (Partitioner, YCSBConfig, YCSBWorkload,
                                 register_ycsb_procedures)
    from repro.workloads.ycsb import load_ycsb

    kill_at = 25e-3
    controller = ControllerConfig(ping_interval=3e-3, failure_threshold=2,
                                  reroute_delay=20e-3,
                                  chain_repair_delay=3e-3)

    def measure(chain):
        registry = ProcedureRegistry()
        register_ycsb_procedures(registry)
        partitioner = Partitioner(2)
        config = ClusterConfig(system="eris", n_shards=2, seed=7,
                               net=NetConfig(), controller=controller,
                               sequencer_chain=chain, tracing=True)
        cluster = build_cluster(
            config, registry, partitioner,
            loader=lambda stores, p: load_ycsb(stores, p, 200))
        workload = YCSBWorkload(YCSBConfig(workload="srw", n_keys=200),
                                partitioner, SplitRandom(8))
        result, window = run_failover_experiment(
            cluster, workload, kill_at,
            ExperimentConfig(n_clients=10, warmup=5e-3, duration=80e-3,
                             drain=20e-3, timeseries_bucket=5e-3))
        run_all_checks(cluster)
        return cluster, result, window

    epoch_cluster, epoch_result, epoch_window = measure(chain=0)
    chain_cluster, chain_result, chain_window = measure(chain=2)

    assert epoch_cluster.controller.failovers == 1
    assert epoch_cluster.controller.current_epoch == 2
    assert chain_cluster.controller.chain_repairs == 1
    assert chain_cluster.controller.failovers == 0
    assert chain_cluster.controller.current_epoch == 1
    # Both killed the serving element and saw a real outage...
    assert 0 < chain_window < float("inf")
    assert 0 < epoch_window < float("inf")
    # ...but splice repair reopens strictly sooner than the epoch bump.
    assert chain_window < epoch_window
