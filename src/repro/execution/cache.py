"""Operator-output caches used during a single iteration's execution.

Helix actively manages the in-memory cache instead of relying on the
underlying engine's LRU eviction (Section 5.4, "Cache Pruning"): once a node
goes out of scope it is evicted immediately (after the streaming
materialization decision).  :class:`EagerCache` implements that policy;
:class:`LRUCache` implements the Spark-style baseline with a capacity bound,
used by the KeystoneML comparator and by the cache ablation benchmark.

Scope tracking is reference-count based: the execution engine registers the
number of still-outstanding consumers for every entry with
:meth:`OperatorCache.set_consumers` and calls :meth:`OperatorCache.release`
each time a consumer finishes.  When the count reaches zero the entry is out
of scope and may be retired (offered for materialization, then evicted).
Counting consumers instead of positions in a fixed execution order is what
allows the parallel engine to execute DAG branches concurrently: scope is a
property of which consumers completed, not of where the node sits in a
serial walk.

All cache operations are guarded by a reentrant lock so a cache instance can
be shared between the scheduler thread and worker threads of the parallel
execution engine.

Both caches track the statistics needed for Figure 10 (peak and average
memory) via :meth:`snapshot_bytes`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ExecutionError
from ..storage.serialization import estimate_size_bytes

__all__ = ["CacheEntry", "OperatorCache", "EagerCache", "LRUCache"]


class CacheEntry:
    """One cached operator output and its estimated in-memory size.

    ``blob`` holds the value's serialized bytes when they arrived with it
    (an out-of-process worker's reply), so the engine can ship the value to
    child tasks and to the store without encoding it again.  Size
    accounting always uses the estimate of the value itself: whether the
    bytes are held does not change the Figure 10 memory numbers.
    """

    __slots__ = ("value", "size_bytes", "blob")

    def __init__(
        self, value: Any, size_bytes: Optional[int] = None, blob: Optional[bytes] = None
    ):
        self.value = value
        self.size_bytes = estimate_size_bytes(value) if size_bytes is None else int(size_bytes)
        self.blob = blob


class OperatorCache:
    """Base cache: a thread-safe mapping from node name to :class:`CacheEntry`."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._consumers: Dict[str, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ basics
    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def put(
        self,
        name: str,
        value: Any,
        size_bytes: Optional[int] = None,
        blob: Optional[bytes] = None,
    ) -> CacheEntry:
        entry = CacheEntry(value, size_bytes, blob)
        with self._lock:
            self._entries[name] = entry
            self._on_put(name)
        return entry

    def get(self, name: str) -> Any:
        return self.get_entry(name).value

    def get_entry(self, name: str) -> CacheEntry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ExecutionError(f"value for node {name!r} is not cached")
            self._on_get(name)
            return entry

    def evict(self, name: str) -> Optional[CacheEntry]:
        with self._lock:
            self._consumers.pop(name, None)
            return self._entries.pop(name, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._consumers.clear()

    def snapshot_bytes(self) -> int:
        """Total estimated bytes currently held in the cache."""
        with self._lock:
            return sum(entry.size_bytes for entry in self._entries.values())

    # ------------------------------------------------------------------ scope refcounts
    def set_consumers(self, name: str, count: int) -> None:
        """Register how many consumers have yet to read ``name``.

        A count of zero means the entry is out of scope immediately (a node
        with no executing children).
        """
        if count < 0:
            raise ExecutionError(f"consumer count for {name!r} must be non-negative")
        with self._lock:
            self._consumers[name] = int(count)

    def consumers(self, name: str) -> int:
        """Outstanding consumer count for ``name`` (0 when unregistered)."""
        with self._lock:
            return self._consumers.get(name, 0)

    def release(self, name: str) -> bool:
        """One consumer of ``name`` finished; return True when it hits zero.

        The transition to zero is reported exactly once, which is what makes
        it safe for the engine to retire the entry on a True return even when
        multiple children complete concurrently.
        """
        with self._lock:
            count = self._consumers.get(name)
            if count is None or count <= 0:
                return False
            count -= 1
            self._consumers[name] = count
            return count == 0

    # ------------------------------------------------------------------ hooks
    def _on_put(self, name: str) -> None:  # pragma: no cover - default no-op
        return

    def _on_get(self, name: str) -> None:  # pragma: no cover - default no-op
        return


class EagerCache(OperatorCache):
    """Helix's cache: unlimited capacity, eviction driven by the execution engine.

    The engine evicts entries the moment the reference counts say they are
    out of scope, so the cache itself needs no replacement policy.
    """


class LRUCache(OperatorCache):
    """Capacity-bounded least-recently-used cache (the Spark-like baseline).

    ``capacity_bytes`` bounds the total estimated size; inserting a new entry
    evicts least-recently-used entries until the new entry fits.  Evicted
    values are simply dropped (a baseline system would recompute them),
    which is exactly the failure mode the paper attributes to KeystoneML's
    caching of training data.
    """

    def __init__(self, capacity_bytes: int):
        super().__init__()
        if capacity_bytes <= 0:
            raise ExecutionError("LRU cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.evicted_by_pressure: List[str] = []

    def _on_put(self, name: str) -> None:
        self._entries.move_to_end(name)
        self._shrink(protect=name)

    def _on_get(self, name: str) -> None:
        self._entries.move_to_end(name)

    def _shrink(self, protect: str) -> None:
        while self.snapshot_bytes() > self.capacity_bytes and len(self._entries) > 1:
            oldest = next(iter(self._entries))
            if oldest == protect:
                # Never evict the entry we are protecting; rotate it to the end.
                self._entries.move_to_end(oldest)
                oldest = next(iter(self._entries))
                if oldest == protect:
                    break
            self.evict(oldest)
            self.evicted_by_pressure.append(oldest)
