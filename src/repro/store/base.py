"""The :class:`StateStore` contract and the no-store default.

The store speaks two languages: **WAL records** (small JSON dicts, one
per applied server event, each carrying a strictly increasing integer
``seq``) and **snapshots** (one big JSON document of the server's
structured state at a quiescent ``seq``).  The base class owns the
JSON codec, the monotonicity guard, and the observability (spans +
``store_*`` metrics through the shared registry/tracer); an
implementation only moves canonical text to and from its medium via the
``_``-prefixed hooks.

The one durable implementation is
:class:`~repro.store.appendlog.AppendLogStateStore`, which
:func:`open_store` opens: a directory with a CRC-framed append-only
``wal.log`` plus atomically renamed snapshot/meta files, which detects
and truncates torn tail records.  Tests substitute the in-process
:class:`~repro.testkit.memory_store.MemoryStateStore` for a disk.

The no-store path is :data:`NULL_STORE` — shared no-op singleton, so a
server without persistence pays one ``isinstance`` at construction and
a cached boolean per ingest thereafter.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterator, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.tracing import NULL_TRACER

__all__ = [
    "FSYNC_POLICIES",
    "NULL_STORE",
    "NullStateStore",
    "StateStore",
    "open_store",
]

#: Durability/latency trade of the append log:
#: ``always`` fsyncs every WAL append, ``batch`` flushes per append but
#: fsyncs only at snapshots / explicit ``sync()`` / ``close()``,
#: ``never`` leaves durability to the OS.  All three survive SIGKILL of
#: the process (writes are flushed to the kernel); they differ in what
#: survives a machine power cut.
FSYNC_POLICIES: Tuple[str, ...] = ("always", "batch", "never")


class StateStore:
    """Write-ahead log + snapshots + metadata for one backend server.

    Public methods speak JSON dicts; subclasses implement the
    ``_``-prefixed hooks over ``(seq, canonical-text)`` pairs.  The WAL
    is strictly monotone: ``append_wal`` rejects any record whose
    ``seq`` is not greater than :meth:`last_seq`, which is what makes
    replay idempotence checkable at the storage layer too.  The codec is
    strict JSON: a NaN or infinity in a record or snapshot raises
    ``ValueError`` before a byte reaches the medium.
    """

    backend = "abstract"

    def __init__(self) -> None:
        self._registry: MetricsRegistry = NULL_REGISTRY
        self._tracer = NULL_TRACER
        self._observing = False
        self._bind_instruments()

    # -- observability -------------------------------------------------------

    def bind_observability(self, registry=None, tracer=None) -> "StateStore":
        """Attach the run's registry/tracer; returns self for chaining."""
        if registry is not None:
            self._registry = registry
        if tracer is not None:
            self._tracer = tracer
        self._observing = not isinstance(self._registry, NullRegistry)
        self._bind_instruments()
        return self

    def _bind_instruments(self) -> None:
        reg = self._registry
        self._c_appends = reg.counter(
            "store_wal_appends_total", help="WAL records journaled"
        )
        self._c_append_bytes = reg.counter(
            "store_wal_bytes_total", help="WAL payload bytes journaled"
        )
        self._c_snapshots = reg.counter(
            "store_snapshots_total", help="server state snapshots written"
        )
        self._c_snapshot_bytes = reg.counter(
            "store_snapshot_bytes_total", help="snapshot payload bytes written"
        )
        self._h_append = reg.histogram(
            "store_wal_append_seconds", help="WAL append wall time"
        )
        self._h_snapshot = reg.histogram(
            "store_snapshot_seconds", help="snapshot write wall time"
        )

    # -- WAL -----------------------------------------------------------------

    def append_wal(self, record: Dict) -> int:
        """Journal one record; returns its ``seq``.

        ``record["seq"]`` must be an int strictly greater than
        :meth:`last_seq` — the single-writer server owns the numbering,
        the store only enforces it.
        """
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ValueError(f"WAL record needs an integer 'seq': {record!r}")
        last = self.last_seq()
        if seq <= last:
            raise ValueError(
                f"WAL seq must increase: got {seq}, last is {last}"
            )
        text = json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        if self._observing:
            with self._tracer.span("store_wal_append"):
                t0 = time.perf_counter()
                self._append(seq, text)
                self._h_append.observe(time.perf_counter() - t0)
            self._c_appends.inc()
            self._c_append_bytes.inc(len(text))
        else:
            self._append(seq, text)
        return seq

    def wal_records(self, after_seq: int = 0) -> Iterator[Dict]:
        """All records with ``seq > after_seq``, in seq order."""
        for _, text in self._records(int(after_seq)):
            yield json.loads(text)

    def last_seq(self) -> int:
        """Highest journaled ``seq`` (0 for an empty log)."""
        return self._last_seq()

    # -- snapshots -----------------------------------------------------------

    def write_snapshot(self, seq: int, payload: Dict) -> None:
        """Persist ``payload`` as the state at watermark ``seq``."""
        text = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        if self._observing:
            with self._tracer.span("store_snapshot"):
                t0 = time.perf_counter()
                self._write_snapshot(int(seq), text)
                self._h_snapshot.observe(time.perf_counter() - t0)
            self._c_snapshots.inc()
            self._c_snapshot_bytes.inc(len(text))
        else:
            self._write_snapshot(int(seq), text)

    def latest_snapshot(self) -> Optional[Tuple[int, Dict]]:
        """The newest complete snapshot as ``(seq, payload)``, or None."""
        found = self._latest_snapshot()
        if found is None:
            return None
        seq, text = found
        return seq, json.loads(text)

    # -- metadata ------------------------------------------------------------

    def get_meta(self, key: str) -> Optional[str]:
        """A small durable string (campaign config fingerprints)."""
        return self._get_meta(str(key))

    def set_meta(self, key: str, value: str) -> None:
        """Durably set a metadata string."""
        self._set_meta(str(key), str(value))

    # -- lifecycle -----------------------------------------------------------

    def sync(self) -> None:
        """Force pending writes to the medium (fsync/commit)."""
        self._sync()

    def close(self) -> None:
        """Flush and release the backend (idempotent)."""
        self._close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- backend hooks -------------------------------------------------------

    def _append(self, seq: int, text: str) -> None:
        raise NotImplementedError

    def _records(self, after_seq: int) -> Iterator[Tuple[int, str]]:
        raise NotImplementedError

    def _last_seq(self) -> int:
        raise NotImplementedError

    def _write_snapshot(self, seq: int, text: str) -> None:
        raise NotImplementedError

    def _latest_snapshot(self) -> Optional[Tuple[int, str]]:
        raise NotImplementedError

    def _get_meta(self, key: str) -> Optional[str]:
        raise NotImplementedError

    def _set_meta(self, key: str, value: str) -> None:
        raise NotImplementedError

    def _sync(self) -> None:
        raise NotImplementedError

    def _close(self) -> None:
        raise NotImplementedError


class NullStateStore(StateStore):
    """The no-persistence store: everything is a no-op.

    The server branch-guards journaling on ``not isinstance(store,
    NullStateStore)``, so with this store the ingest hot path pays
    nothing — mirroring ``NULL_REGISTRY`` / ``NULL_TRACER``.
    """

    backend = "null"

    def append_wal(self, record: Dict) -> int:  # pragma: no cover - guard
        return int(record.get("seq", 0))

    def wal_records(self, after_seq: int = 0) -> Iterator[Dict]:
        return iter(())

    def last_seq(self) -> int:
        return 0

    def write_snapshot(self, seq: int, payload: Dict) -> None:
        pass

    def latest_snapshot(self) -> Optional[Tuple[int, Dict]]:
        return None

    def get_meta(self, key: str) -> Optional[str]:
        return None

    def set_meta(self, key: str, value: str) -> None:
        pass

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared do-nothing store for the default (no ``--store``) path.
NULL_STORE = NullStateStore()


def open_store(path: str, fsync: str = "batch") -> StateStore:
    """Open (or create) the append-log store directory at ``path``."""
    from repro.store.appendlog import AppendLogStateStore

    return AppendLogStateStore(path, fsync=fsync)
