"""Cluster construction for every system under evaluation.

``build_cluster(config, registry, loader)`` assembles the simulated
deployment — network, sequencers + SDN controller + FC (Eris), VR
groups (Granola/Lock-Store), bare replicas (TAPIR), single nodes
(NT-UR) — and returns a :class:`Cluster` whose ``make_client`` yields a
uniform submit interface, so the experiment driver and benchmarks are
system-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.baselines.common import DoneFn, OpResult, WorkloadOp
from repro.baselines.granola import GranolaClient, GranolaReplica
from repro.baselines.lockstore import LockStoreClient, LockStoreReplica
from repro.baselines.ntur import NTURClient, NTURServer
from repro.baselines.tapir import TapirClient, TapirReplica
from repro.core.client import ErisClient
from repro.core.fc import FailureCoordinator
from repro.core.general import GeneralTransactionManager
from repro.core.replica import ErisConfig
from repro.errors import ConfigurationError
from repro.net.controller import ControllerConfig, SDNController
from repro.net.network import NetConfig, Network
from repro.net.sequencer import MultiSequencer, SequencerProfile
from repro.obs import MetricsRegistry, Tracer
from repro.replication.vr import VRConfig
from repro.sim.event_loop import EventLoop
from repro.sim.randomness import SplitRandom
from repro.store.kv import KVStore
from repro.store.procedures import ProcedureRegistry
from repro.workloads.partition import Partitioner

SYSTEMS = ("eris", "eris-oum", "granola", "tapir", "lockstore", "ntur")

_PROFILES = {
    "in-switch": SequencerProfile.in_switch,
    "middlebox": SequencerProfile.middlebox,
    "endhost": SequencerProfile.endhost,
}


@dataclass
class ClusterConfig:
    """Deployment shape and cost model for one experiment."""

    system: str = "eris"
    n_shards: int = 3
    n_replicas: int = 3
    seed: int = 42
    #: Runtime backend: "sim" (discrete-event simulator; deterministic)
    #: or "udp" (asyncio + real UDP sockets on loopback). The protocol
    #: classes are identical under both; only the fabric changes.
    backend: str = "sim"
    net: NetConfig = field(default_factory=NetConfig)
    sequencer_profile: str = "middlebox"
    n_sequencers: int = 2              # primary + standbys (Eris)
    #: Chain-replicated sequencer (Eris only): length of the chain of
    #: ``ChainSequencerNode`` elements fronting the system. 0 keeps the
    #: paper's single soft-state sequencer; 2–3 enables splice repair
    #: (``n_sequencers`` then counts the epoch-fallback standbys).
    sequencer_chain: int = 0
    server_service_time: float = 2e-6  # CPU per received message
    execution_cost: float = 0.5e-6     # CPU per executed transaction
    client_retry_timeout: float = 2e-3
    #: Ablation: one-phase commit for single-shard Lock-Store txns
    #: (the paper's Lock-Store always runs the full 2PC exchange).
    lockstore_one_phase: bool = False
    #: Coordination-free read fast path (Eris only, default-off; see
    #: DESIGN.md "The dirty-set protocol"): the sequencer serves
    #: READ_ONLY transactions over clean keys from a single replica.
    read_fast_path: bool = False
    #: Attach a causal tracer (``repro.obs``) at build time. Off by
    #: default: benchmarks pay only a per-packet None check.
    tracing: bool = False
    eris: ErisConfig = field(default_factory=ErisConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    vr: VRConfig = field(default_factory=VRConfig)

    def validate(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigurationError(
                f"unknown system {self.system!r}; pick one of {SYSTEMS}")
        if self.backend not in ("sim", "udp"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; pick 'sim' or 'udp'")
        if self.n_shards < 1 or self.n_replicas < 1:
            raise ConfigurationError("need >= 1 shard and >= 1 replica")
        if self.sequencer_profile not in _PROFILES:
            raise ConfigurationError(
                f"unknown sequencer profile {self.sequencer_profile!r}")
        if self.sequencer_chain:
            if self.system != "eris":
                raise ConfigurationError(
                    "sequencer_chain requires system='eris'")
            if not 2 <= self.sequencer_chain <= 3:
                raise ConfigurationError(
                    f"sequencer_chain must be 2 or 3, "
                    f"got {self.sequencer_chain}")
        if self.read_fast_path and self.system != "eris":
            raise ConfigurationError(
                "read_fast_path requires system='eris' "
                f"(got {self.system!r}); the OUM ablation and the "
                "baselines have no dirty-set sequencer")


class SystemClient:
    """Uniform client: ``submit(op, done)`` regardless of system."""

    def __init__(self, submit_fn: Callable[[WorkloadOp, DoneFn], None],
                 node):
        self._submit = submit_fn
        self.node = node

    def submit(self, op: WorkloadOp, done: DoneFn) -> None:
        self._submit(op, done)


class Cluster:
    """One fully wired deployment of one system."""

    def __init__(self, config: ClusterConfig, registry: ProcedureRegistry,
                 partitioner: Partitioner, runtime=None):
        config.validate()
        self.config = config
        self.registry = registry
        self.partitioner = partitioner
        if runtime is not None:
            # One process of a per-node deployment: it brings the
            # runtime that hosts its slice.
            self.runtime = runtime
        elif config.backend == "udp":
            from repro.runtime.asyncio_udp import AsyncioUdpRuntime
            self.runtime = AsyncioUdpRuntime(seed=config.seed)
        else:
            self.loop = EventLoop()
            self.rng = SplitRandom(config.seed)
            self.runtime = Network(self.loop, config.net, self.rng)
        #: Historical alias: the simulator's fabric is the runtime, and
        #: the builders/tests reach it as ``cluster.network``.
        self.network = self.runtime
        self.stores: dict[int, list[KVStore]] = {}
        self.replicas: dict[int, list] = {}
        self.sequencers: list[MultiSequencer] = []
        self.controller: Optional[SDNController] = None
        self.fc: Optional[FailureCoordinator] = None
        self._clients: list[SystemClient] = []
        self._client_counter = 0
        self.tracer: Optional[Tracer] = None
        self.metrics = MetricsRegistry()

    # -- observability -----------------------------------------------------
    def enable_tracing(self) -> Tracer:
        """Attach a causal tracer to the fabric (idempotent) and wire
        the per-component metrics registry."""
        if self.tracer is None:
            self.tracer = self.runtime.attach_tracer(Tracer())
        self.instrument_metrics()
        return self.tracer

    def instrument_metrics(self) -> None:
        """Register pull-gauges for every component that supports them
        (event loop, fabric, sequencers, Eris replicas, FC). Safe to
        call repeatedly; zero hot-path cost."""
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.instrument(self.metrics)
        self.runtime.instrument(self.metrics)
        for sequencer in self.sequencers:
            sequencer.instrument(self.metrics)
        if self.fc is not None:
            self.fc.instrument(self.metrics)
        for replicas in self.replicas.values():
            for replica in replicas:
                instrument = getattr(replica, "instrument", None)
                if instrument is not None:
                    instrument(self.metrics)

    def metrics_snapshot(self) -> dict:
        """Current per-component metric values (instruments lazily)."""
        self.instrument_metrics()
        return self.metrics.snapshot()

    # -- store access (used by loaders and checkers) -----------------------
    def shard_stores(self, shard: int) -> list[KVStore]:
        return self.stores[shard]

    def authoritative_store(self, shard: int) -> KVStore:
        """The store that reflects all executed transactions: the DL /
        leader / single node of ``shard``."""
        if self.config.system == "eris" or self.config.system == "eris-oum":
            for replica in self.replicas[shard]:
                if replica.is_dl:
                    return replica.store
        return self.stores[shard][0]

    # -- client creation ----------------------------------------------------
    def make_client(self, name: Optional[str] = None) -> SystemClient:
        self._client_counter += 1
        address = name or f"client-{self._client_counter}"
        client = self._build_client(address)
        self._clients.append(client)
        return client

    def _build_client(self, address: str) -> SystemClient:
        raise ConfigurationError("cluster not built; use build_cluster()")

    # -- fault injection hooks ---------------------------------------------
    def set_drop_rate(self, rate: float) -> None:
        self.network.config.drop_rate = rate

    def crash_active_sequencer(self) -> None:
        if self.controller is None:
            raise ConfigurationError("no controller in this deployment")
        self.network.endpoint(self.controller.active_address).crash()

    def crash_replica(self, shard: int, index: int) -> None:
        self.replicas[shard][index].crash()

    def crash_chain_node(self, index: int) -> None:
        """Crash the ``index``-th element of the *current* sequencer
        chain (0 = head, -1 = tail)."""
        if self.controller is None or not self.controller.chain:
            raise ConfigurationError("no sequencer chain in this deployment")
        self.network.endpoint(self.controller.chain[index]).crash()


def build_cluster(config: ClusterConfig, registry: ProcedureRegistry,
                  partitioner: Partitioner,
                  loader: Optional[Callable[[dict[int, list[KVStore]],
                                             Partitioner], None]] = None
                  ) -> Cluster:
    """Assemble the deployment for ``config.system`` and load data."""
    cluster = Cluster(config, registry, partitioner)
    builder = _BUILDERS[config.system]
    builder(cluster)
    if config.tracing:
        cluster.enable_tracing()
    if loader is not None:
        loader(cluster.stores, partitioner)
    return cluster


# -- per-system wiring ----------------------------------------------------

def _make_stores(cluster: Cluster, per_shard: int) -> None:
    for shard in range(cluster.config.n_shards):
        cluster.stores[shard] = [KVStore() for _ in range(per_shard)]


def _build_eris(cluster: Cluster) -> None:
    """Every Eris role on the one runtime, in ``topology_roles`` order."""
    from repro.harness.topology import (
        build_role,
        replica_config,
        topology_roles,
    )

    topology = wire_eris(cluster)
    eris_config = replica_config(cluster.config)
    for role in topology_roles(topology):
        build_role(cluster, role, topology, eris_config)
        if role == topology.controller_address:
            cluster.controller.start()
    if topology.controller_address is None:
        cluster.runtime.install_sequencer_route(topology.standby_addrs[0])


def wire_eris(cluster: Cluster):
    """Make ``cluster.runtime`` ready to host Eris roles and clients,
    and return the :class:`~repro.harness.topology.ErisTopology`.

    Every process of a deployment needs this, whichever roles it
    hosts: sequencers fan stamped copies out by group, and clients
    submit through the same closure — independent txns straight to the
    :class:`ErisClient`, general txns through the
    :class:`GeneralTransactionManager`.
    """
    from repro.harness.topology import eris_topology

    config = cluster.config
    runtime = cluster.runtime
    topology = eris_topology(config)
    for shard, addrs in topology.shard_addrs.items():
        runtime.groups.define(shard, addrs)
    shard_sizes = topology.shard_sizes
    retry_timeout = config.client_retry_timeout

    def build_client(address: str) -> SystemClient:
        node = ErisClient(address, runtime, shard_sizes,
                          retry_timeout=retry_timeout)
        general = GeneralTransactionManager(node)

        def submit(op: WorkloadOp, done: DoneFn) -> None:
            if op.is_general:
                general.execute(
                    op.read_keys, op.write_keys, op.participants,
                    op.compute or (lambda values: {}),
                    lambda outcome: done(OpResult(
                        committed=outcome.committed,
                        latency=outcome.latency)),
                )
            else:
                node.submit(
                    op.proc, op.args, op.participants,
                    lambda outcome: done(OpResult(
                        committed=outcome.committed,
                        latency=outcome.latency,
                        result=outcome.results,
                        retries=outcome.retries)),
                    read_keys=op.read_keys,
                    write_keys=op.write_keys,
                    op_class=op.op_class,
                )

        return SystemClient(submit, node)

    cluster._build_client = build_client
    return topology


def _build_lockstore(cluster: Cluster) -> None:
    config = cluster.config
    _make_stores(cluster, config.n_replicas)
    leaders: dict[int, str] = {}
    for shard in range(config.n_shards):
        group = [f"ls-r{shard}.{i}" for i in range(config.n_replicas)]
        leaders[shard] = group[0]
        replicas = []
        for index, address in enumerate(group):
            replica = LockStoreReplica(
                address, cluster.network, shard, group, index,
                cluster.stores[shard][index], cluster.registry,
                owns=cluster.partitioner.owns_fn(shard),
                execution_cost=config.execution_cost,
                vr_config=config.vr,
            )
            replica.msg_service_time = config.server_service_time
            replicas.append(replica)
        cluster.replicas[shard] = replicas

    def build_client(address: str) -> SystemClient:
        node = LockStoreClient(address, cluster.network, leaders,
                               retry_timeout=config.client_retry_timeout,
                               one_phase=config.lockstore_one_phase)
        return SystemClient(node.submit, node)

    cluster._build_client = build_client


def _build_tapir(cluster: Cluster) -> None:
    config = cluster.config
    _make_stores(cluster, config.n_replicas)
    shard_replicas: dict[int, list[str]] = {}
    for shard in range(config.n_shards):
        group = [f"tapir-r{shard}.{i}" for i in range(config.n_replicas)]
        shard_replicas[shard] = group
        replicas = []
        for index, address in enumerate(group):
            replica = TapirReplica(
                address, cluster.network, shard, index,
                cluster.stores[shard][index], cluster.registry,
                owns=cluster.partitioner.owns_fn(shard),
                execution_cost=config.execution_cost,
            )
            replica.msg_service_time = config.server_service_time
            replicas.append(replica)
        cluster.replicas[shard] = replicas

    def build_client(address: str) -> SystemClient:
        node = TapirClient(address, cluster.network, shard_replicas,
                           retry_timeout=config.client_retry_timeout)
        return SystemClient(node.submit, node)

    cluster._build_client = build_client


def _build_granola(cluster: Cluster) -> None:
    config = cluster.config
    _make_stores(cluster, config.n_replicas)
    groups = {shard: [f"gr-r{shard}.{i}" for i in range(config.n_replicas)]
              for shard in range(config.n_shards)}
    leaders = {shard: group[0] for shard, group in groups.items()}
    for shard, group in groups.items():
        replicas = []
        for index, address in enumerate(group):
            replica = GranolaReplica(
                address, cluster.network, shard, group, index,
                cluster.stores[shard][index], cluster.registry,
                peer_leaders=leaders,
                owns=cluster.partitioner.owns_fn(shard),
                execution_cost=config.execution_cost,
                vr_config=config.vr,
            )
            replica.msg_service_time = config.server_service_time
            replicas.append(replica)
        cluster.replicas[shard] = replicas

    def build_client(address: str) -> SystemClient:
        node = GranolaClient(address, cluster.network, leaders,
                             retry_timeout=config.client_retry_timeout)
        return SystemClient(node.submit, node)

    cluster._build_client = build_client


def _build_ntur(cluster: Cluster) -> None:
    config = cluster.config
    _make_stores(cluster, 1)
    servers: dict[int, str] = {}
    for shard in range(config.n_shards):
        address = f"ntur-{shard}"
        servers[shard] = address
        server = NTURServer(address, cluster.network, shard,
                            cluster.stores[shard][0], cluster.registry,
                            owns=cluster.partitioner.owns_fn(shard),
                            execution_cost=config.execution_cost)
        server.msg_service_time = config.server_service_time
        cluster.replicas[shard] = [server]

    def build_client(address: str) -> SystemClient:
        node = NTURClient(address, cluster.network, servers)
        return SystemClient(node.submit, node)

    cluster._build_client = build_client


_BUILDERS = {
    "eris": _build_eris,
    "eris-oum": _build_eris,
    "lockstore": _build_lockstore,
    "tapir": _build_tapir,
    "granola": _build_granola,
    "ntur": _build_ntur,
}
