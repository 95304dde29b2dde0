"""Total global sequencing — the §5.1 strawman, used by Eris-OUM.

A single counter stamps *every* packet, and every packet is delivered
to every replica of every shard in the system (otherwise receivers
could not tell a drop from a message meant for another shard). The
Figure 11 experiment shows why this fails to scale: each server burns
CPU receiving and discarding messages for transactions it does not
participate in.
"""

from __future__ import annotations

from repro.net.message import MultiStamp, Packet
from repro.net.network import Network
from repro.net.sequencer import MultiSequencer, SequencerProfile


class OUMSequencer(MultiSequencer):
    """Single-counter sequencer that floods all groups' members."""

    #: Group id used for the single global sequence.
    GLOBAL_GROUP = -1

    def __init__(self, address: str, network: Network,
                 profile: SequencerProfile | None = None, epoch: int = 1):
        # Dispatch is inherited unchanged; this class only overrides
        # what "stamp" and "emit" mean.
        super().__init__(address, network, profile, epoch)
        self.global_counter = 0

    def stamp(self, packet: Packet) -> Packet:
        self.global_counter += 1
        # The destination groups are preserved in the groupcast header
        # (receivers use them to decide participation), but ordering is
        # by the single global counter.
        packet.multistamp = MultiStamp(
            epoch=self.epoch,
            stamps=((self.GLOBAL_GROUP, self.global_counter),),
        )
        self.packets_stamped += 1
        if self.tracer is not None:
            self.tracer.sequencer_stamp(
                self.address, packet,
                queue_delay=self._queue_delay(packet))
        return packet

    def _emit(self, stamped: Packet) -> None:
        # Total global sequencing: every server receives every message.
        self.runtime.fan_out(stamped, self.runtime.groups.all_members())
