"""Stored procedures and their execution context.

All systems in the evaluation run transactions as stored procedures
(§8): a named function registered in a :class:`ProcedureRegistry`,
executed against a shard-local :class:`TxnContext`. The context

- resolves key ownership (so one procedure body runs correctly on every
  participant shard, touching only its local keys — the H-Store model),
- tracks read/write sets (used by OCC validation and lock acquisition),
- records undo pre-images so the transaction can be rolled back, and
- lets the procedure abort deterministically via :meth:`TxnContext.abort`.

Determinism matters: an independent transaction's commit/abort decision
must come out identically on every participant without communication
(§4.1), so procedures may only consult their arguments and local state
that is identical across participants (e.g. TPC-C's replicated item
table).

Procedures additionally carry an **operation class** (:class:`OpClass`)
declaring their algebraic structure. The default, ``GENERIC``, promises
nothing and always takes the full multi-stamp path of §3.2. The one
stronger class, ``READ_ONLY``, promises the procedure never writes.
When the sequencing element's dirty-set says the read's keys have no
in-flight conflicting writes, the read can be served by a single
replica instead of the §5.1 full-quorum path (Harmonia-style in-network
conflict detection).

The classes are *declarations*: the registry records them, the
transaction layer ships them on the wire, and the §6.7 checkers verify
after the fact that no write slipped through the fast read path.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.errors import TransactionAborted, UnknownProcedureError
from repro.store.kv import KVStore, MISSING
from repro.store.undo import UndoLog

Procedure = Callable[["TxnContext", dict], Any]


class OpClass:
    """Operation-class annotations for stored procedures.

    Plain string constants (not an enum) so the values pass through
    the wire codec as ordinary scalars.
    """

    #: Unrestricted read-write procedure: full §3.2 ordering applies.
    GENERIC = "generic"
    #: Never writes: eligible for single-replica service when the
    #: dirty-set check comes back clean.
    READ_ONLY = "read_only"

    ALL = (GENERIC, READ_ONLY)


class TxnContext:
    """What a stored procedure sees while executing on one shard."""

    def __init__(
        self,
        store: KVStore,
        shard: int = 0,
        owns: Optional[Callable[[Hashable], bool]] = None,
        undo: Optional[UndoLog] = None,
    ):
        self.store = store
        self.shard = shard
        self._owns = owns
        self.undo = undo
        self.read_set: set[Hashable] = set()
        self.write_set: set[Hashable] = set()

    def owns(self, key: Hashable) -> bool:
        """Does this shard store ``key``? Procedures guard remote keys
        with this so the same body runs on every participant."""
        if self._owns is None:
            return True
        return self._owns(key)

    def get(self, key: Hashable) -> Any:
        self.read_set.add(key)
        return self.store.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        if self.undo is not None:
            self.undo.record(key, self.store.get(key))
        self.write_set.add(key)
        self.store.put(key, value)

    def delete(self, key: Hashable) -> None:
        if self.undo is not None:
            self.undo.record(key, self.store.get(key))
        self.write_set.add(key)
        self.store.delete(key)

    def scan_prefix(self, prefix: tuple):
        return self.store.scan_prefix(prefix)

    def abort(self, reason: str = "application abort") -> None:
        """Deterministically abort the transaction on every participant."""
        raise TransactionAborted(reason)


class ProcedureRegistry:
    """Name → stored procedure. Shared by all replicas of all systems
    in one experiment so every node executes identical code."""

    def __init__(self) -> None:
        self._procs: dict[str, Procedure] = {}
        self._op_classes: dict[str, str] = {}

    def register(self, name: str, fn: Procedure,
                 op_class: str = OpClass.GENERIC) -> None:
        """Register ``fn`` under ``name``; ``op_class`` declares the
        procedure's algebraic structure (see :class:`OpClass`)."""
        if op_class not in OpClass.ALL:
            raise ValueError(f"unknown op_class {op_class!r} for {name!r}")
        self._procs[name] = fn
        self._op_classes[name] = op_class

    def procedure(self, name: str) -> Procedure:
        try:
            return self._procs[name]
        except KeyError:
            raise UnknownProcedureError(name) from None

    def op_class(self, name: str) -> str:
        """The declared :class:`OpClass` of a registered procedure."""
        if name not in self._procs:
            raise UnknownProcedureError(name)
        return self._op_classes.get(name, OpClass.GENERIC)

    def execute(self, name: str, ctx: TxnContext, args: dict) -> Any:
        """Run a procedure; aborts propagate as TransactionAborted."""
        return self.procedure(name)(ctx, args)

    def names(self) -> list[str]:
        return sorted(self._procs)

    def __contains__(self, name: str) -> bool:
        return name in self._procs
