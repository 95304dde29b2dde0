"""Simulated datacenter network with in-network concurrency control.

This package provides the paper's Section 5 network substrate:

- :mod:`repro.net.message` — packets, the groupcast header, multi-stamps.
- :mod:`repro.net.network` — the simulated link: latency/drop models.
- :mod:`repro.net.endpoint` — the ``Node`` base class with a CPU model.
- :mod:`repro.net.groupcast` — group membership (§5.2).
- :mod:`repro.net.sequencer` — the multi-stamping sequencer (§5.3/5.4).
- :mod:`repro.net.oum` — single-counter global sequencer (§5.1 strawman).
- :mod:`repro.net.controller` — SDN controller and sequencer failover.
- :mod:`repro.net.libsequencer` — end-host sequence tracking that turns
  raw packets into DELIVER / DROP-NOTIFICATION / NEW-EPOCH upcalls.
"""

from repro.net.endpoint import Node
from repro.net.groupcast import GroupMembership
from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.net.network import NetConfig, Network
from repro.net.sequencer import MultiSequencer, SequencerInstall, \
    SequencerInstallAck, SequencerProfile
from repro.net.oum import OUMSequencer
from repro.net.controller import SDNController
from repro.net.libsequencer import MultiSequencedChannel, Upcall, UpcallKind
from repro.net.switch_resources import SwitchModel, validate_deployment

__all__ = [
    "Node",
    "GroupMembership",
    "GroupcastHeader",
    "MultiStamp",
    "Packet",
    "NetConfig",
    "Network",
    "MultiSequencer",
    "SequencerProfile",
    "OUMSequencer",
    "SequencerInstall",
    "SequencerInstallAck",
    "SDNController",
    "MultiSequencedChannel",
    "Upcall",
    "UpcallKind",
    "SwitchModel",
    "validate_deployment",
]
