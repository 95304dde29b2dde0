"""Runtime/transport abstraction: one protocol stack, many fabrics.

Every protocol participant in this repository (Eris replicas and
clients, the Failure Coordinator, the sequencers, the SDN controller,
VR, and all four baselines) is written against the narrow
:class:`~repro.runtime.interface.Runtime` interface — send, groupcast,
timers, clock, seeded randomness, endpoint lifecycle — and never
against a concrete fabric. The fabric itself — endpoint registry,
sequencer route, send, fan-out, drops and arrival — is written once,
in :class:`~repro.runtime.interface.Runtime`, with the one
:class:`~repro.runtime.interface.Timer` /
:class:`~repro.runtime.interface.PeriodicTimer` pair and the named RNG
streams; two backends add a clock and a link to it:

- :class:`repro.net.network.Network` — the discrete-event simulator's
  link (deterministic, microsecond-scale latency, loss and FIFO
  order).
- :mod:`repro.runtime.asyncio_udp` — real UDP sockets on loopback
  driven by asyncio, with groupcast provided by a user-space sequencer
  endpoint, exactly as §5.4's end-host deployment. It is the one
  socket layer: one socket per runtime for every endpoint it hosts,
  a drained ``add_reader`` receive path that demultiplexes on each
  frame's ``dst``, and ``sendto`` egress. Given a process ``rank`` it
  is one process of a per-node cluster, and adds the launcher's port
  map and the sequencer-route broadcast.

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
from repro.runtime.interface import PeriodicTimer, Runtime, Timer

__all__ = [
    "Runtime",
    "Timer",
    "PeriodicTimer",
    "CodecError",
    "encode_message",
    "decode_message",
    "encode_packet",
    "decode_packet",
    "registered_message_types",
]
