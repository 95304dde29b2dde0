"""Static Eris topology: addresses and roles derived from the config.

One deployment shape, two consumers. The single-process builders in
:mod:`repro.harness.cluster` construct every protocol object in one
runtime; the multi-process launcher (:mod:`repro.runtime.launcher`)
spawns one OS process per **role** and each worker constructs only its
own slice. Both must agree exactly on the address plan — replica group
membership, sequencer names, the FC and controller addresses — because
those strings are what travels in packets. Deriving everything from
:class:`~repro.harness.cluster.ClusterConfig` here makes the agreement
structural rather than conventional.

A *role* is a string naming one process's responsibility:

========================  ==============================================
role                       hosts
========================  ==============================================
``replica:<shard>:<i>``    one :class:`~repro.core.replica.ErisReplica`
``chain:<i>``              one chain-replicated sequencer element
``seq:<i>``                one multi-sequencer (primary or standby)
``controller``             the SDN controller
``fc``                     the failure coordinator
========================  ==============================================

The driver process (rank 0) hosts the clients and is not a role.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ErisTopology:
    """The complete address plan of one Eris deployment."""

    #: shard -> replica addresses, in replica-index order.
    shard_addrs: dict[int, list[str]]
    #: Chain-replicated sequencer elements, head first (empty = no chain).
    chain_addrs: tuple[str, ...]
    #: Multi-sequencers (primary + epoch-fallback standbys).
    standby_addrs: tuple[str, ...]
    fc_address: str = "fc"
    controller_address: str = "controller"

    @property
    def shard_sizes(self) -> dict[int, int]:
        return {shard: len(addrs)
                for shard, addrs in self.shard_addrs.items()}


def eris_topology(config) -> ErisTopology:
    """Derive the address plan from a ``ClusterConfig`` — the same
    names, in the same order, as the single-process ``_build_eris``."""
    shard_addrs = {
        shard: [f"eris-r{shard}.{i}" for i in range(config.n_replicas)]
        for shard in range(config.n_shards)
    }
    chain_addrs = tuple(f"chain{i}" for i in range(config.sequencer_chain))
    standby_addrs = tuple(f"seq{i}"
                          for i in range(max(1, config.n_sequencers)))
    return ErisTopology(shard_addrs=shard_addrs, chain_addrs=chain_addrs,
                        standby_addrs=standby_addrs)


def topology_roles(topology: ErisTopology) -> list[str]:
    """Every worker role of the deployment, in spawn order (stable:
    the launcher's rank assignment and the trace shards' cause-id
    spaces both key off this order)."""
    roles = [f"replica:{shard}:{index}"
             for shard, addrs in sorted(topology.shard_addrs.items())
             for index in range(len(addrs))]
    roles += [f"chain:{i}" for i in range(len(topology.chain_addrs))]
    roles += [f"seq:{i}" for i in range(len(topology.standby_addrs))]
    roles += [topology.controller_address, topology.fc_address]
    return roles


def role_addresses(topology: ErisTopology, role: str) -> list[str]:
    """The protocol addresses a role hosts."""
    kind, _, rest = role.partition(":")
    if kind == "replica":
        shard, index = (int(part) for part in rest.split(":"))
        return [topology.shard_addrs[shard][index]]
    if kind == "chain":
        return [topology.chain_addrs[int(rest)]]
    if kind == "seq":
        return [topology.standby_addrs[int(rest)]]
    if kind == "controller":
        return [topology.controller_address]
    if kind == "fc":
        return [topology.fc_address]
    raise ConfigurationError(f"unknown role {role!r}")


def define_groups(runtime, topology: ErisTopology) -> None:
    """Install the groupcast membership map. Every process needs it:
    sequencers fan stamped copies out by group, and the launcher's
    port map is keyed by the same addresses."""
    for shard, addrs in topology.shard_addrs.items():
        runtime.groups.define(shard, addrs)


def load_shard_store(store, partitioner, shard: int, n_keys: int) -> None:
    """Worker-side YCSB load: only this shard's keys. The whole-cluster
    loader (:func:`repro.workloads.ycsb.load_ycsb`) walks a stores dict
    covering every shard; a replica worker holds exactly one store."""
    for key in range(n_keys):
        if partitioner.shard_of(key) == shard:
            store.put(key, 0)


def build_worker_role(role: str, config, topology: ErisTopology,
                      runtime, registry, partitioner,
                      n_keys: int) -> dict:
    """Construct one role's protocol objects on ``runtime``.

    Returns a dict with whichever of ``replicas`` / ``sequencers`` /
    ``controller`` / ``fc`` the role hosts, so the worker can snapshot,
    instrument, and (for the controller) start them. The objects are
    the unmodified protocol classes — nothing here knows it is running
    multi-process; location transparency comes entirely from the
    runtime's wire-based address resolution.
    """
    from repro.core.fc import FailureCoordinator
    from repro.core.replica import ErisReplica
    from repro.net.controller import SDNController
    from repro.net.sequencer import MultiSequencer
    from repro.store.kv import KVStore

    from repro.harness.cluster import _PROFILES

    built: dict = {"replicas": [], "sequencers": [],
                   "controller": None, "fc": None}
    profile = _PROFILES[config.sequencer_profile]()
    kind, _, rest = role.partition(":")
    if kind == "replica":
        shard, index = (int(part) for part in rest.split(":"))
        addrs = topology.shard_addrs[shard]
        store = KVStore()
        load_shard_store(store, partitioner, shard, n_keys)
        eris_config = config.eris
        eris_config.execution_cost = config.execution_cost
        eris_config.read_fast_path = config.read_fast_path
        replica = ErisReplica(
            addrs[index], runtime, shard, index, addrs,
            topology.fc_address, store, registry,
            owns=partitioner.owns_fn(shard), config=eris_config)
        replica.msg_service_time = config.server_service_time
        built["replicas"].append(replica)
    elif kind == "chain":
        from repro.net.chainseq import ChainSequencerNode
        node = ChainSequencerNode(
            topology.chain_addrs[int(rest)], runtime, profile,
            read_fast_path=config.read_fast_path)
        built["sequencers"].append(node)
    elif kind == "seq":
        sequencer = MultiSequencer(
            topology.standby_addrs[int(rest)], runtime, profile,
            read_fast_path=config.read_fast_path)
        built["sequencers"].append(sequencer)
    elif kind == "controller":
        built["controller"] = SDNController(
            topology.controller_address, runtime,
            sequencers=list(topology.standby_addrs),
            config=config.controller,
            chain=list(topology.chain_addrs) or None)
    elif kind == "fc":
        fc = FailureCoordinator(topology.fc_address, runtime,
                                shards=topology.shard_addrs)
        fc.msg_service_time = config.server_service_time
        built["fc"] = fc
    else:
        raise ConfigurationError(f"unknown role {role!r}")
    return built
