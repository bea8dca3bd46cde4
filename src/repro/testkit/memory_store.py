"""An in-process :class:`StateStore`: the fake the replay tests use.

Stores the same canonical text the append log persists (not live
object references), so everything that flows through it has round-
tripped the JSON codec exactly once — serialization bugs surface in
unit tests, not in crash drills.  Nothing survives the process; the
durable store is :func:`repro.store.open_store`'s append log.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.store.base import StateStore

__all__ = ["MemoryStateStore"]


class MemoryStateStore(StateStore):
    """WAL, snapshots and metadata in process-local lists/dicts."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._wal: List[Tuple[int, str]] = []
        self._snapshot: Optional[Tuple[int, str]] = None
        self._meta: Dict[str, str] = {}

    def _append(self, seq: int, text: str) -> None:
        self._wal.append((seq, text))

    def _records(self, after_seq: int) -> Iterator[Tuple[int, str]]:
        for seq, text in self._wal:
            if seq > after_seq:
                yield seq, text

    def _last_seq(self) -> int:
        return self._wal[-1][0] if self._wal else 0

    def _write_snapshot(self, seq: int, text: str) -> None:
        # Only the newest snapshot is kept, as in the append log:
        # recovery never reads older ones.
        self._snapshot = (seq, text)

    def _latest_snapshot(self) -> Optional[Tuple[int, str]]:
        return self._snapshot

    def _get_meta(self, key: str) -> Optional[str]:
        return self._meta.get(key)

    def _set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def _sync(self) -> None:
        pass

    def _close(self) -> None:
        pass
