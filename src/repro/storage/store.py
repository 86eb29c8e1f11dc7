"""Materialization stores: where intermediate results are persisted.

Two implementations share the :class:`MaterializationStore` interface:

* :class:`DiskStore` writes each artifact's serialized bytes to a file in a
  directory and measures real read/write times — used by the benchmark
  harness so that load costs are genuine I/O costs.
* :class:`InMemoryStore` keeps serialized bytes in memory and *models* the
  read/write times from a configurable disk bandwidth — used by unit tests
  and the simulated-cost experiments where determinism matters.

Both enforce an optional storage budget: a ``put`` that would exceed the
budget raises :class:`~repro.exceptions.BudgetExceededError` before anything
is written (callers check ``remaining_budget`` first; the exception is the
safety net).  Encoding happens once, in :meth:`MaterializationStore.put`,
and only when the caller has no serialized bytes yet: backends write the
bytes they are given.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ArtifactNotFoundError, BudgetExceededError, StorageError
from .canonical import content_digest
from .catalog import ArtifactRecord, Catalog
from .serialization import deserialize, serialize

__all__ = ["MaterializationStore", "DiskStore", "InMemoryStore", "StoredArtifact"]


class StoredArtifact:
    """Result of a ``put``: the catalog record plus the observed write time."""

    __slots__ = ("record", "write_time")

    def __init__(self, record: ArtifactRecord, write_time: float):
        self.record = record
        self.write_time = write_time


class MaterializationStore(ABC):
    """Common interface and budget/catalog bookkeeping for artifact stores.

    All public operations are guarded by a reentrant lock so a store can be
    shared between the threads of the parallel execution engine: concurrent
    ``put`` calls serialize, which keeps the budget check + catalog insert
    atomic (two writers can never jointly overshoot the budget).
    """

    def __init__(self, budget_bytes: Optional[int] = None, catalog: Optional[Catalog] = None):
        if budget_bytes is not None and budget_bytes < 0:
            raise StorageError("storage budget must be non-negative")
        self.budget_bytes = budget_bytes
        self.catalog = catalog if catalog is not None else Catalog()
        self._store_lock = threading.RLock()

    # ------------------------------------------------------------------ interface
    @abstractmethod
    def _write(self, signature: str, payload: bytes) -> Tuple[float, str]:
        """Persist serialized ``payload``; return ``(write_seconds, location)``."""

    @abstractmethod
    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        """Read an artifact; return ``(value, read_seconds)``."""

    @abstractmethod
    def _delete(self, record: ArtifactRecord) -> None:
        """Remove persisted bytes for an artifact."""

    # ------------------------------------------------------------------ public API
    def has(self, signature: str) -> bool:
        with self._store_lock:
            return signature in self.catalog

    def total_bytes(self) -> int:
        with self._store_lock:
            return self.catalog.total_bytes()

    def remaining_budget(self) -> Optional[int]:
        if self.budget_bytes is None:
            return None
        return max(self.budget_bytes - self.total_bytes(), 0)

    def put(
        self,
        node_name: str,
        signature: str,
        value: Any,
        iteration: int = 0,
        blob: Optional[bytes] = None,
    ) -> StoredArtifact:
        """Materialize a value under its node signature.

        ``blob``, when given, must be ``serialize(value)`` — typically the
        bytes an out-of-process worker already returned — and is written as
        is; otherwise the value is encoded here, once.  The budget check
        runs before anything is written, so an over-budget ``put`` leaves
        no trace.  Re-putting an existing signature is a no-op (the
        artifact is already stored and, by construction, identical).
        """
        with self._store_lock:
            existing = self.catalog.get(signature)
            if existing is not None:
                return StoredArtifact(existing, 0.0)
            if blob is None:
                blob = serialize(value)
            size_bytes = len(blob)
            if self.budget_bytes is not None and self.total_bytes() + size_bytes > self.budget_bytes:
                raise BudgetExceededError(
                    f"materializing {node_name!r} ({size_bytes} bytes) would exceed the "
                    f"storage budget of {self.budget_bytes} bytes"
                )
            write_time, location = self._write(signature, blob)
            record = ArtifactRecord(
                signature=signature,
                node_name=node_name,
                size_bytes=size_bytes,
                iteration=iteration,
                location=location,
                digest=content_digest(blob),
            )
            self.catalog.add(record)
            return StoredArtifact(record, write_time)

    def load(self, signature: str) -> Tuple[Any, float]:
        """Load a previously materialized value; returns ``(value, seconds)``."""
        with self._store_lock:
            record = self.catalog.get(signature)
        if record is None:
            raise ArtifactNotFoundError(f"no artifact for signature {signature[:12]}...")
        return self._read(record)

    def load_serialized(self, signature: str) -> Optional[bytes]:
        """Serialized bytes of a materialized artifact; ``None`` when absent.

        Serves the distributed executor's artifact FETCH lane: both
        built-in stores already hold serialized bytes, so their overrides of
        :meth:`_read_serialized` forward them without a deserialize +
        re-serialize round trip.  Backends without raw-bytes access fall
        back to ``serialize(load(...))``.
        """
        with self._store_lock:
            record = self.catalog.get(signature)
        if record is None:
            return None
        payload = self._read_serialized(record)
        if payload is not None:
            return payload
        value, _seconds = self._read(record)
        return serialize(value)

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        """Raw stored bytes when the backend keeps them (``None`` = use ``_read``)."""
        del record
        return None

    def delete(self, signature: str) -> None:
        with self._store_lock:
            record = self.catalog.remove(signature)
            if record is not None:
                self._delete(record)

    def purge_node(self, node_name: str, keep_signature: Optional[str] = None) -> List[str]:
        """Remove stale artifacts for a node whose operator changed.

        Keeps the artifact matching ``keep_signature`` (if any) and deletes
        the rest, returning the removed signatures.  This is the purge the
        paper describes before executing an iteration with original
        operators, and it is why storage use is not monotonic (Figure 9c/d).
        """
        with self._store_lock:
            removed = []
            for signature in self.catalog.stale_signatures(node_name, keep_signature or ""):
                self.delete(signature)
                removed.append(signature)
            return removed

    def artifacts(self) -> List[ArtifactRecord]:
        with self._store_lock:
            return self.catalog.records()

    def clear(self) -> None:
        with self._store_lock:
            for record in list(self.catalog.records()):
                self.delete(record.signature)


class DiskStore(MaterializationStore):
    """One serialized file per artifact under a directory, with measured I/O times.

    The measured write time covers the file write only: encoding, when
    :meth:`put` has to do it, happens before the backend is called.  Files
    keep the ``.pkl`` suffix so catalogs persisted by earlier revisions
    still resolve their locations.
    """

    def __init__(self, root: Path, budget_bytes: Optional[int] = None):
        super().__init__(budget_bytes=budget_bytes)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path_for(self, signature: str) -> Path:
        return self.root / f"{signature}.pkl"

    def _write(self, signature: str, payload: bytes) -> Tuple[float, str]:
        path = self._path_for(signature)
        start = time.perf_counter()
        path.write_bytes(payload)
        return time.perf_counter() - start, str(path)

    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        if not path.exists():
            raise ArtifactNotFoundError(f"artifact file missing: {path}")
        start = time.perf_counter()
        value = deserialize(path.read_bytes())
        elapsed = time.perf_counter() - start
        return value, elapsed

    def _delete(self, record: ArtifactRecord) -> None:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        if path.exists():
            path.unlink()

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        return path.read_bytes() if path.exists() else None


class InMemoryStore(MaterializationStore):
    """Byte-buffer store with modelled I/O times (deterministic, for tests/simulation)."""

    def __init__(self, budget_bytes: Optional[int] = None, disk_bandwidth: float = 170e6,
                 latency_seconds: float = 1e-4):
        super().__init__(budget_bytes=budget_bytes)
        if disk_bandwidth <= 0:
            raise StorageError("disk bandwidth must be positive")
        self.disk_bandwidth = disk_bandwidth
        self.latency_seconds = latency_seconds
        self._blobs: Dict[str, bytes] = {}

    def _modelled_io_time(self, size_bytes: int) -> float:
        return self.latency_seconds + size_bytes / self.disk_bandwidth

    def _write(self, signature: str, payload: bytes) -> Tuple[float, str]:
        self._blobs[signature] = payload
        return self._modelled_io_time(len(payload)), "memory"

    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        payload = self._blobs.get(record.signature)
        if payload is None:
            raise ArtifactNotFoundError(f"artifact bytes missing for {record.node_name!r}")
        return deserialize(payload), self._modelled_io_time(len(payload))

    def _delete(self, record: ArtifactRecord) -> None:
        self._blobs.pop(record.signature, None)

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        return self._blobs.get(record.signature)
