"""Durable state tier: write-ahead upload ledger + snapshots.

A :class:`~repro.store.base.StateStore` persists two things for the
backend server:

* a **write-ahead log** (WAL) — one JSON record per applied event
  (trip upload, publish tick, campaign day marker), journaled *before*
  the in-memory mutation it describes;
* periodic **snapshots** — the server's full structured state at a
  quiescent sequence number.

Recovery is load-latest-snapshot + idempotent replay of the WAL tail
(every record carries a monotone ``seq``; replay skips anything at or
below the restored watermark).  :func:`~repro.store.base.open_store`
opens the one durable implementation, a directory holding a CRC-framed
append-only log with torn-write detection.  The no-store path stays
zero-overhead behind :data:`~repro.store.base.NULL_STORE`.
"""

from repro.store.base import (
    FSYNC_POLICIES,
    NULL_STORE,
    NullStateStore,
    StateStore,
    open_store,
)

__all__ = [
    "FSYNC_POLICIES",
    "NULL_STORE",
    "NullStateStore",
    "StateStore",
    "open_store",
]
