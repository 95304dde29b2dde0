"""Key partitioning across shards.

A :class:`Partitioner` maps every key to its owning shard and builds
the per-shard ownership predicates the execution contexts use. Keys
listed as *replicated* (e.g. TPC-C's read-only item table) are owned by
every shard, so any participant can read them locally — the paper's
§4.1 note that cross-shard replicated data can still be updated
consistently with an independent transaction.
"""

from __future__ import annotations

import zlib
from typing import Callable, Hashable


class Partitioner:
    """Deterministic key → shard mapping (stable across processes,
    unlike ``hash()``)."""

    def __init__(self, n_shards: int,
                 shard_fn: Callable[[Hashable], int] | None = None,
                 replicated: Callable[[Hashable], bool] | None = None):
        if n_shards <= 0:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self._shard_fn = shard_fn or self._default_shard
        self._replicated = replicated or (lambda key: False)

    def _default_shard(self, key: Hashable) -> int:
        if isinstance(key, int):
            return key % self.n_shards
        return zlib.crc32(repr(key).encode()) % self.n_shards

    def shard_of(self, key: Hashable) -> int:
        return self._shard_fn(key) % self.n_shards

    def is_replicated(self, key: Hashable) -> bool:
        return self._replicated(key)

    def owns_fn(self, shard: int) -> Callable[[Hashable], bool]:
        """Ownership predicate for one shard's execution contexts."""
        def owns(key: Hashable) -> bool:
            if self._replicated(key):
                return True
            return self.shard_of(key) == shard
        return owns

    def participants_for(self, keys) -> tuple[int, ...]:
        """Sorted shard set touching ``keys`` (replicated keys do not
        add participants on their own)."""
        shards = {self.shard_of(k) for k in keys if not self._replicated(k)}
        return tuple(sorted(shards))


def load_keys(stores: dict, partitioner: Partitioner, n_keys: int) -> None:
    """Put 0 at every key of ``range(n_keys)`` in each store of the
    key's shard (``stores``: shard -> replica stores). Shards missing
    from ``stores`` are skipped, so a per-node worker loads only the
    one store it holds."""
    for key in range(n_keys):
        for store in stores.get(partitioner.shard_of(key), ()):
            store.put(key, 0)
