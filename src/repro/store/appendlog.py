"""Append-only-log :class:`StateStore`: a directory of three files.

::

    <root>/wal.log        CRC-framed append-only WAL
    <root>/snapshot.json  latest snapshot (written tmp-then-rename)
    <root>/meta.json      metadata dict   (written tmp-then-rename)

Each WAL frame is ``<seq:u32><length:u32><crc32:u32>`` followed by
``length`` bytes of UTF-8 canonical JSON.  A crash can only damage the
*tail* of an append-only file, so recovery scans frames from the start
and truncates at the first one that is short (torn write), fails its
CRC (corrupted payload), or breaks seq monotonicity (garbage that
happens to parse) — everything before the bad frame is kept, which is
exactly the prefix the writer had acknowledged.

Snapshots and metadata go through ``os.replace`` so readers only ever
see a complete old or complete new file, never a half-written one; a
crash between tmp-write and rename leaves the previous snapshot as the
latest, and the WAL tail covers the difference.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.store.base import FSYNC_POLICIES, StateStore
from repro.store.faults import fault_point, faults_armed

__all__ = ["AppendLogStateStore"]

#: Frame header: record seq, payload length, payload CRC32.
_FRAME = struct.Struct("<III")


class AppendLogStateStore(StateStore):
    """Durable WAL in one append-only file plus atomic sidecar files."""

    backend = "appendlog"

    def __init__(self, root: str, fsync: str = "batch"):
        super().__init__()
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self._fsync = fsync
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise ValueError(
                f"store path {str(root)!r} exists and is not a directory"
            ) from None
        self._wal_path = self.root / "wal.log"
        self._snapshot_path = self.root / "snapshot.json"
        self._meta_path = self.root / "meta.json"
        #: Bytes dropped from the WAL tail at open (0 on a clean log).
        self.recovered_truncated_bytes = 0
        self._last, self._count = self._recover_wal()
        self._f = open(self._wal_path, "ab")
        self._closed = False

    # -- recovery ------------------------------------------------------------

    def _recover_wal(self) -> Tuple[int, int]:
        """Validate the log; truncate a torn/corrupt tail.  Returns
        (last good seq, record count)."""
        if not self._wal_path.exists():
            return 0, 0
        data = self._wal_path.read_bytes()
        offset = 0
        good_end = 0
        last = 0
        count = 0
        size = len(data)
        while offset + _FRAME.size <= size:
            seq, length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > size:
                break                       # torn write: payload short
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break                       # corrupted payload bytes
            if seq <= last:
                break                       # garbage frame that "parsed"
            last = seq
            count += 1
            offset = end
            good_end = end
        if good_end < size:
            self.recovered_truncated_bytes = size - good_end
            with open(self._wal_path, "r+b") as f:
                f.truncate(good_end)
                f.flush()
                os.fsync(f.fileno())
        return last, count

    # -- WAL -----------------------------------------------------------------

    def _append(self, seq: int, text: str) -> None:
        payload = text.encode("utf-8")
        header = _FRAME.pack(seq, len(payload), zlib.crc32(payload))
        if faults_armed("wal_append"):
            # Split the write so the armed crash lands between header
            # and payload — a genuinely torn frame on disk.
            self._f.write(header)
            self._f.flush()
            fault_point("wal_append")
            self._f.write(payload)
        else:
            self._f.write(header + payload)
        self._f.flush()
        if self._fsync == "always":
            os.fsync(self._f.fileno())
        self._last = seq
        self._count += 1

    def _records(self, after_seq: int) -> Iterator[Tuple[int, str]]:
        self._f.flush()
        data = self._wal_path.read_bytes()
        offset = 0
        size = len(data)
        while offset + _FRAME.size <= size:
            seq, length, _ = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > size:
                break
            if seq > after_seq:
                yield seq, data[start:end].decode("utf-8")
            offset = end

    def _last_seq(self) -> int:
        return self._last

    # -- snapshots / metadata ------------------------------------------------

    def _replace(self, path: Path, blob: bytes, fault: Optional[str]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            if self._fsync != "never":
                os.fsync(f.fileno())
        if fault is not None:
            fault_point(fault)
        os.replace(tmp, path)

    def _write_snapshot(self, seq: int, text: str) -> None:
        # The WAL must be durable up to the snapshot's watermark first,
        # or a crash could leave a snapshot "ahead" of its own log.
        self._f.flush()
        if self._fsync != "never":
            os.fsync(self._f.fileno())
        blob = json.dumps(
            {"seq": seq, "state": text}, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        self._replace(self._snapshot_path, blob, fault="snapshot")

    def _latest_snapshot(self) -> Optional[Tuple[int, str]]:
        if not self._snapshot_path.exists():
            return None
        try:
            doc = json.loads(self._snapshot_path.read_text("utf-8"))
            return int(doc["seq"]), str(doc["state"])
        except (ValueError, KeyError, TypeError):
            # Unreadable snapshot: fall back to pure WAL replay rather
            # than refusing to start.  os.replace makes this path rare
            # (external corruption, not a crash).
            return None

    def _read_meta(self) -> Dict[str, str]:
        if not self._meta_path.exists():
            return {}
        try:
            doc = json.loads(self._meta_path.read_text("utf-8"))
        except ValueError:
            return {}
        return {str(k): str(v) for k, v in doc.items()}

    def _get_meta(self, key: str) -> Optional[str]:
        return self._read_meta().get(key)

    def _set_meta(self, key: str, value: str) -> None:
        meta = self._read_meta()
        meta[key] = value
        blob = json.dumps(
            meta, sort_keys=True, indent=1, allow_nan=False
        ).encode("utf-8")
        self._replace(self._meta_path, blob, fault=None)

    # -- lifecycle -----------------------------------------------------------

    def _sync(self) -> None:
        if self._closed:
            return
        self._f.flush()
        if self._fsync != "never":
            os.fsync(self._f.fileno())

    def _close(self) -> None:
        if self._closed:
            return
        self._sync()
        self._f.close()
        self._closed = True
