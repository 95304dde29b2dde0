"""Static Eris topology: addresses, roles, and the one role builder.

One deployment shape, every process layout. The in-process builder
(:func:`repro.harness.cluster._build_eris`) calls :func:`build_role`
for every role on one runtime; a per-node worker
(:mod:`repro.runtime.worker`) calls it for its own role only. Both must
agree exactly on the address plan — replica group membership,
sequencer names, the FC and controller addresses — because those
strings are what travels in packets. Deriving everything from
:class:`~repro.harness.cluster.ClusterConfig` here makes the agreement
structural rather than conventional.

A *role* is a string naming one slice of the deployment, listed here
in build order:

========================  ==============================================
role                       hosts
========================  ==============================================
``seq:<i>``                one sequencer (the first is active, the
                           rest are the standbys failover walks)
``fc``                     the failure coordinator
``controller``             the SDN controller (absent for ``eris-oum``)
``replica:<shard>:<i>``    one :class:`~repro.core.replica.ErisReplica`
========================  ==============================================

The clients are not a role: in a per-node run the driver process
(rank 0) hosts them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ErisTopology:
    """The complete address plan of one Eris deployment."""

    #: shard -> replica addresses, in replica-index order.
    shard_addrs: dict[int, list[str]]
    #: Sequencers: the first is active, the epoch failover walks the
    #: rest.
    standby_addrs: tuple[str, ...]
    fc_address: str = "fc"
    #: None when the deployment has no controller role (the OUM
    #: ablation, whose route goes straight to ``seq0``).
    controller_address: Optional[str] = "controller"

    @property
    def shard_sizes(self) -> dict[int, int]:
        return {shard: len(addrs)
                for shard, addrs in self.shard_addrs.items()}


def eris_topology(config) -> ErisTopology:
    """Derive the address plan from a ``ClusterConfig``."""
    shard_addrs = {
        shard: [f"eris-r{shard}.{i}" for i in range(config.n_replicas)]
        for shard in range(config.n_shards)
    }
    standby_addrs = tuple(f"seq{i}"
                          for i in range(max(1, config.n_sequencers)))
    controller = None if config.system == "eris-oum" else "controller"
    return ErisTopology(shard_addrs=shard_addrs,
                        standby_addrs=standby_addrs,
                        controller_address=controller)


def topology_roles(topology: ErisTopology) -> list[str]:
    """Every role of the deployment, in build order. The in-process
    build follows it (the determinism digests pin that order), and a
    per-node run numbers its worker ranks by it."""
    roles = [f"seq:{i}" for i in range(len(topology.standby_addrs))]
    roles.append(topology.fc_address)
    if topology.controller_address is not None:
        roles.append(topology.controller_address)
    roles += [f"replica:{shard}:{index}"
              for shard, addrs in sorted(topology.shard_addrs.items())
              for index in range(len(addrs))]
    return roles


def role_addresses(topology: ErisTopology, role: str) -> list[str]:
    """The protocol addresses a role hosts."""
    kind, _, rest = role.partition(":")
    if kind == "replica":
        shard, index = (int(part) for part in rest.split(":"))
        return [topology.shard_addrs[shard][index]]
    if kind == "seq":
        return [topology.standby_addrs[int(rest)]]
    if role in (topology.controller_address, topology.fc_address):
        return [role]
    raise ConfigurationError(f"unknown role {role!r}")


def replica_config(config):
    """The replicas' :class:`~repro.core.replica.ErisConfig`: a copy of
    ``config.eris`` with the cluster-level settings folded in. The
    caller's ``ErisConfig`` is never written, so one object can seed
    any number of clusters."""
    return dataclasses.replace(
        config.eris, execution_cost=config.execution_cost,
        oum_mode=config.system == "eris-oum")


def build_role(cluster, role: str, topology: ErisTopology,
               eris_config) -> None:
    """Construct one role's protocol objects on ``cluster.runtime`` and
    file them into ``cluster`` (``sequencers``, ``fc``, ``controller``,
    ``replicas`` and ``stores``). Nothing is started: the caller starts
    the controller once its runtime can reach the other roles.

    ``eris_config`` is the replicas' :func:`replica_config`. The objects
    are the unmodified protocol classes — nothing here knows how many
    processes the deployment spans; location transparency comes
    entirely from the runtime's address resolution.
    """
    from repro.core.fc import FailureCoordinator
    from repro.core.replica import ErisReplica
    from repro.net.controller import SDNController
    from repro.net.oum import OUMSequencer
    from repro.net.sequencer import MultiSequencer
    from repro.store.kv import KVStore

    from repro.harness.cluster import _PROFILES

    config = cluster.config
    runtime = cluster.runtime
    profile = _PROFILES[config.sequencer_profile]()
    kind, _, rest = role.partition(":")
    if kind == "replica":
        shard, index = (int(part) for part in rest.split(":"))
        addrs = topology.shard_addrs[shard]
        store = KVStore()
        replica = ErisReplica(
            addrs[index], runtime, shard, index, addrs,
            topology.fc_address, store, cluster.registry,
            owns=cluster.partitioner.owns_fn(shard), config=eris_config)
        replica.msg_service_time = config.server_service_time
        cluster.stores.setdefault(shard, []).append(store)
        cluster.replicas.setdefault(shard, []).append(replica)
    elif kind == "seq":
        cls = OUMSequencer if config.system == "eris-oum" \
            else MultiSequencer
        cluster.sequencers.append(cls(
            role_addresses(topology, role)[0], runtime, profile))
    elif role == topology.fc_address:
        cluster.fc = FailureCoordinator(topology.fc_address, runtime,
                                        shards=topology.shard_addrs)
        cluster.fc.msg_service_time = config.server_service_time
    elif role == topology.controller_address:
        cluster.controller = SDNController(
            topology.controller_address, runtime,
            sequencers=list(topology.standby_addrs),
            config=config.controller)
    else:
        raise ConfigurationError(f"unknown role {role!r}")
