"""Runtime/transport abstraction: one protocol stack, many fabrics.

Every protocol participant in this repository (Eris replicas and
clients, the Failure Coordinator, the sequencers, the SDN controller,
VR, and all four baselines) is written against the narrow
:class:`~repro.runtime.interface.Runtime` interface — send, groupcast,
timers, clock, seeded randomness, endpoint lifecycle — and never
against a concrete fabric. Two backends implement it:

- :mod:`repro.runtime.sim` — the discrete-event simulator (the
  repository's original fabric; deterministic, microsecond-scale).
- :mod:`repro.runtime.asyncio_udp` — real UDP sockets on loopback
  driven by asyncio, with groupcast provided by a user-space sequencer
  endpoint, exactly as §5.4's end-host deployment. It is the one
  socket layer: a drained ``add_reader`` receive path and raw
  ``sendto`` egress. :mod:`repro.runtime.udp_mp` subclasses it for
  process-per-node clusters, adding only the remote port map and the
  sequencer-route broadcast.

Messages crossing a real transport are serialized with the typed wire
codec in :mod:`repro.runtime.codec`; the simulator can opt into the
same round-trip per delivery ("paranoid codec" mode) to prove that no
handler relies on cross-recipient payload aliasing.
"""

from repro.runtime.codec import (
    CodecError,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    registered_message_types,
)
from repro.runtime.interface import Runtime, TimerHandle

__all__ = [
    "Runtime",
    "TimerHandle",
    "CodecError",
    "encode_message",
    "decode_message",
    "encode_packet",
    "decode_packet",
    "registered_message_types",
]
