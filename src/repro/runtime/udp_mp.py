"""Multi-process variant of the asyncio-UDP runtime.

One :class:`WorkerUdpRuntime` per OS process. It hosts only the
endpoints of its own role (one replica, one sequencer, the controller,
the FC, or the driver's clients) and resolves every other protocol
address through a **remote port map** distributed by the launcher at
bootstrap — no process ever holds a reference to another process's
protocol objects, so every interaction that the single-process runtime
could have satisfied in memory is forced onto the wire.

The socket layer — drained ``add_reader`` receive, raw ``sendto``
egress, synchronous start/stop — is the parent's, unchanged. This
subclass adds only what is multi-process:

- **remote port map** — :meth:`~WorkerUdpRuntime.install_port_map`
  overlays the launcher's host/port plan on the local endpoints.
- **route broadcast** — the controller's ``install_sequencer_route``
  becomes a :class:`RouteInstall` sent to every process's
  ``_rt.<rank>`` runtime-control endpoint, because a groupcast is
  routed to the sequencer by the *sender's* runtime and the senders
  live in other processes.
- **coalesced timers** — with ``timer_slack`` > 0, relative timer
  deadlines are quantized onto a slack-sized grid so nearby protocol
  timers (sync, ping, retry) share loop wakeups. Slack only ever
  *delays* a timer, never fires it early, so protocol timeouts remain
  conservative.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from dataclasses import dataclass

from repro.errors import NetworkError
from repro.net.endpoint import Node
from repro.net.message import Address, Packet
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.runtime.codec import register_messages


@dataclass(frozen=True)
class RouteInstall:
    """Controller-process runtime -> every other process's runtime:
    point the sequenced-groupcast route at ``address`` (None = black
    hole, used while no sequencer is routable)."""

    address: Optional[Address]


register_messages([RouteInstall])


def control_address(rank: int) -> Address:
    """The runtime-control endpoint address of process ``rank``."""
    return f"_rt.{rank}"


class _RuntimeControl(Node):
    """Per-process endpoint for runtime-level control messages. It is
    a real endpoint with a real socket, so routing state propagates
    over exactly the same data plane the protocol uses."""

    def __init__(self, runtime: "WorkerUdpRuntime", rank: int):
        super().__init__(control_address(rank), runtime)

    def on_RouteInstall(self, src: Address, msg: RouteInstall,
                        packet: Packet) -> None:
        self.runtime._install_route_local(msg.address)


class WorkerUdpRuntime(AsyncioUdpRuntime):
    """One process's slice of a multi-process UDP cluster."""

    backend = "asyncio-udp-mp"

    def __init__(self, rank: int, seed: int = 0, host: str = "127.0.0.1",
                 batch_frames: int = 1, timer_slack: float = 0.0):
        super().__init__(seed=seed, host=host, batch_frames=batch_frames)
        if rank < 0:
            raise NetworkError(f"rank must be >= 0: {rank}")
        if timer_slack < 0:
            raise NetworkError(f"timer_slack must be >= 0: {timer_slack}")
        self.rank = rank
        self.timer_slack = timer_slack
        #: Remote protocol address -> (host, port), installed from the
        #: launcher's merged port map. Local addresses stay in
        #: ``_ports`` and take precedence.
        self._remote: dict[Address, tuple[str, int]] = {}
        #: Runtime-control endpoints of the *other* processes (route
        #: broadcast fan-out list).
        self._peer_controls: list[Address] = []
        self.route_installs = 0
        self._control = _RuntimeControl(self, rank)

    # -- name resolution ---------------------------------------------------
    def install_port_map(self, host: str,
                         port_map: dict[Address, int]) -> None:
        """Adopt the launcher's merged address plan. Local endpoints
        keep their own sockets; everything else resolves to a remote
        socket address from here on."""
        self._peer_controls = []
        for address, port in port_map.items():
            if address not in self._ports:
                self._remote[address] = (host, port)
            if address.startswith("_rt.") \
                    and address != self._control.address:
                self._peer_controls.append(address)

    def _resolve(self, dst: Optional[Address]) -> Optional[tuple[str, int]]:
        port = self._ports.get(dst)
        if port is not None:
            return (self.host, port)
        return self._remote.get(dst)

    # -- routing -----------------------------------------------------------
    def _install_route_local(self, address: Optional[Address]) -> None:
        self.route_installs += 1
        self.sequencer_address = address

    def install_sequencer_route(self, address: Optional[Address]) -> None:
        """Install locally and broadcast to every peer process: the
        route is consulted by whichever runtime *sends* a sequenced
        groupcast, and senders are everywhere."""
        self._install_route_local(address)
        for peer in self._peer_controls:
            self.send(Packet(src=self._control.address, dst=peer,
                             payload=RouteInstall(address)))

    # -- timers (coalesced) ------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any):
        slack = self.timer_slack
        if slack <= 0.0:
            return super().call_later(delay, fn, *args)
        # Quantize the absolute deadline up onto the slack grid: timers
        # due within the same slack window fire in one loop wakeup.
        deadline = self.aloop.time() + max(0.0, delay)
        return self.aloop.call_at(math.ceil(deadline / slack) * slack,
                                  fn, *args)

    # -- observability -----------------------------------------------------
    def instrument(self, registry) -> None:
        super().instrument(registry)
        registry.gauge("udp", "route_installs",
                       lambda: self.route_installs, monotone=True)
        registry.gauge("udp", "remote_addresses",
                       lambda: len(self._remote))
