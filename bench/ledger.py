"""Outside-in per-layer CPU ledger.

The program under test is not edited. Instead the public entry points
of each layer are wrapped, from here, with ``perf_counter_ns`` spans
kept on a parent stack: a span's *self* time is its duration minus the
time its child spans cover, and self time is what a layer is charged.
Because the system is one thread, the self times of all layers plus the
unattributed remainder add up to the process's busy time.

A target that no longer exists in a future tree is skipped with a
warning and its layer reads 0 calls; the ledger never crashes a run.
``uninstall`` puts every patched name back.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable

#: layer -> [(module, class or None, attribute)]. Functions are patched
#: in every loaded ``repro`` module that imported them by name.
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "codec.encode": [("repro.runtime.codec", None, "encode_packet")],
    "codec.decode": [("repro.runtime.codec", None, "decode_datagram"),
                     ("repro.runtime.codec", None, "decode_packet")],
    "udp": [("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "send"),
            ("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "fan_out")],
    "network": [("repro.net.network", "Network", "send"),
                ("repro.net.network", "Network", "fan_out")],
    "sequencer": [("repro.net.sequencer", "MultiSequencer", "deliver"),
                  ("repro.net.sequencer", "MultiSequencer", "handle"),
                  # The sequencer works on raw packets: its override of
                  # Node._process, not handle(), is where stamping runs.
                  ("repro.net.sequencer", "MultiSequencer", "_process")],
    "libsequencer": [("repro.net.libsequencer", "MultiSequencedChannel",
                      "on_packet")],
    "replica": [("repro.core.replica", "ErisReplica", "deliver"),
                ("repro.core.replica", "ErisReplica", "handle")],
    "engine": [("repro.core.engine", "ExecutionEngine", "feed")],
    "client": [("repro.core.client", "ErisClient", "deliver"),
               ("repro.core.client", "ErisClient", "handle"),
               ("repro.core.client", "ErisClient", "submit")],
    "controller": [("repro.net.controller", "SDNController", "deliver"),
                   ("repro.net.controller", "SDNController", "handle")],
    "fc": [("repro.core.fc", "FailureCoordinator", "deliver"),
           ("repro.core.fc", "FailureCoordinator", "handle")],
    "sim": [("repro.sim.event_loop", "EventLoop", "run")],
}

_MISSING = object()


def _drop_notifications(module) -> Callable[[list], int]:
    drop = module.UpcallKind.DROP_NOTIFICATION

    def count(upcalls: list) -> int:
        found = 0
        for upcall in upcalls:
            if upcall.kind is drop:
                found += 1
        return found
    return count


#: ``"layer:attribute"`` -> maker of a function of the call's result
#: whose value is summed into :attr:`Ledger.observed` (a count the
#: program keeps no counter for). The maker gets the defining module.
OBSERVERS: dict[str, Callable] = {
    "libsequencer:on_packet": _drop_notifications,
}


class Ledger:
    """Self-time and call accounting over wrapped callables."""

    def __init__(self) -> None:
        #: One ``[self_ns, calls, observed]`` cell per wrapped callable,
        #: keyed ``"layer:attribute"``: a list the span updates in place
        #: is the cheapest accumulator Python offers, and the spans run
        #: ~30-50 times per transaction.
        self._cells: dict[str, list[int]] = {}
        #: Time covered by the spans that ended inside the span now
        #: running; each span saves it, zeroes it, and adds itself back.
        self._children = [0]
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable,
             observer: Callable | None = None) -> Callable:
        cell = self._cells.setdefault(f"{layer}:{name}", [0, 0, 0])
        children = self._children

        def span(*args, **kwargs):
            outer = children[0]
            children[0] = 0
            began = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observer is not None:
                    cell[2] += observer(result)
                return result
            finally:
                elapsed = perf_counter_ns() - began
                cell[0] += elapsed - children[0]
                cell[1] += 1
                children[0] = outer + elapsed

        span.__wrapped__ = fn
        return span

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._restore.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    def install(self, targets=None) -> None:
        for layer, entries in (TARGETS if targets is None
                               else targets).items():
            for module_name, class_name, attribute in entries:
                label = ".".join(filter(None, (module_name, class_name,
                                               attribute)))
                try:
                    module = importlib.import_module(module_name)
                    owner = (module if class_name is None
                             else getattr(module, class_name))
                    original = getattr(owner, attribute)
                except (ImportError, AttributeError):
                    self.missing.append(label)
                    print(f"ledger: {label} not found; layer {layer!r} "
                          "is not measured through it", file=sys.stderr)
                    continue
                try:
                    observer = OBSERVERS[f"{layer}:{attribute}"](module)
                except (KeyError, AttributeError):
                    observer = None
                wrapped = self.wrap(layer, attribute, original, observer)
                if class_name is not None:
                    # An inherited method is wrapped on the subclass
                    # only, so sibling classes keep their own layer.
                    self._patch(owner, attribute, wrapped)
                    continue
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") \
                            and vars(other).get(attribute) is original:
                        self._patch(other, attribute, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> tuple[dict[str, int], dict[str, int],
                                dict[str, int]]:
        """(self ns per layer, calls per wrapped name, observed counts
        per wrapped name) so far."""
        self_ns: dict[str, int] = defaultdict(int)
        for key, cell in self._cells.items():
            self_ns[key.split(":")[0]] += cell[0]
        return (dict(self_ns),
                {key: cell[1] for key, cell in self._cells.items()},
                {key: cell[2] for key, cell in self._cells.items()})
