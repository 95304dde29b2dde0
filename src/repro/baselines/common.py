"""Shared pieces for all transaction systems under evaluation.

:class:`WorkloadOp` is the system-independent description of one
transaction a workload generator emits; each system's client adapter
turns it into that system's protocol exchange. The uniform completion
callback signature lets the experiment harness drive every system with
identical closed-loop clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class WorkloadOp:
    """One transaction as generated by a workload.

    ``compute`` is only set for general (non-independent) transactions:
    it maps the values read in the first phase to the writes to install
    in the second (returning None aborts). Independent transactions are
    fully described by their stored procedure.
    """

    proc: str
    args: dict
    participants: tuple[int, ...]
    read_keys: frozenset = frozenset()
    write_keys: frozenset = frozenset()
    is_general: bool = False
    compute: Optional[Callable[[dict], Optional[dict]]] = None
    #: Declared OpClass of the stored procedure (generic | commutative
    #: | read_only); systems without a fast path simply ignore it.
    op_class: str = "generic"

    @property
    def is_distributed(self) -> bool:
        return len(self.participants) > 1


@dataclass
class OpResult:
    """Uniform completion record handed to the harness."""

    committed: bool
    latency: float
    result: Any = None
    retries: int = 0


#: Uniform completion callback: ``done(OpResult)``.
DoneFn = Callable[[OpResult], None]
