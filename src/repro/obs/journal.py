"""The ingest journal both run-store backends write.

The daemon journals every accepted trace line before it counts it, so
a crash loses no acknowledged line (:meth:`IngestSession.recover
<repro.obs.ingest.IngestSession.recover>` replays the journal on
restart).  Each ``tenant/project`` namespace appends to one CRC-framed,
append-only ``journal.rjl``::

    <root>/<tenant>/<project>/journal.rjl

where ``<root>`` is the sharded store's directory (beside each shard's
``runs.sqlite``) or ``<db path>.journal`` beside a single-file store.
:class:`~repro.obs.store.BaseRunStore` keeps one
:class:`BatchedJournal` per namespace for both backends, opened on the
namespace's first ``journal_*`` call.

Appends use **group commit**: they stay unsynced until
:meth:`BatchedJournal.sync`, which the daemon calls once before it
acknowledges a request, so one acknowledged push costs one ``fsync``.
A crash can tear only records appended since the last sync; replay
stops at the first bad frame and the torn tail is truncated on reopen
(those records were never acknowledged as durable).

Frame layout (big-endian)::

    u32 payload_length | u32 crc32(payload) | payload
    payload = session UTF-8 bytes, 0x00, line UTF-8 bytes
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterable, Iterator

#: A namespace's journal file name, under ``<root>/<tenant>/<project>/``.
JOURNAL_FILE = "journal.rjl"

_FRAME_HEADER = struct.Struct(">II")
_MAX_FRAME = 16 * 1024 * 1024  # sanity bound: no journal line is 16 MiB


def _frame(session: str, line: str) -> bytes:
    payload = session.encode("utf-8") + b"\x00" + line.encode("utf-8")
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _iter_frames(blob: bytes) -> Iterator[tuple[str, str, int]]:
    """Yield ``(session, line, end_offset)`` for every intact frame.

    Stops silently at the first torn or corrupt frame — by the group
    commit contract anything past that point was never acknowledged.
    """
    offset = 0
    total = len(blob)
    while offset + _FRAME_HEADER.size <= total:
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if length > _MAX_FRAME or end > total:
            return
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            return
        session_bytes, sep, line_bytes = payload.partition(b"\x00")
        if not sep:
            return
        yield session_bytes.decode("utf-8"), line_bytes.decode("utf-8"), end
        offset = end


class BatchedJournal:
    """Append-only, CRC-framed journal with group-commit durability.

    Records buffer in user space until :meth:`sync` (or :meth:`close`)
    writes the pending group with one ``fsync``; the ingest path syncs
    before it acknowledges a request.  On open, any torn tail from a
    crash mid-group is truncated away.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._counts: dict[str, int] = {}
        self._unsynced = 0
        valid_end = self._scan()
        self._fh = open(path, "ab")
        if self._fh.tell() > valid_end:
            self._fh.truncate(valid_end)
            self._fh.seek(valid_end)

    def _scan(self) -> int:
        """Count intact records per session; returns the valid byte length."""
        try:
            with open(self.path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return 0
        valid_end = 0
        for session, _line, end in _iter_frames(blob):
            self._counts[session] = self._counts.get(session, 0) + 1
            valid_end = end
        return valid_end

    def append(self, session: str, lines: Iterable[str]) -> None:
        """Record lines; durable after the next :meth:`sync`."""
        with self._lock:
            for line in lines:
                self._fh.write(_frame(session, line))
                self._counts[session] = self._counts.get(session, 0) + 1
                self._unsynced += 1

    def _commit(self) -> None:
        self._fh.flush()
        # Group commit *is* fsync-under-lock: every append since the
        # last sync rides one fsync, and writers must not interleave
        # while it lands.
        os.fsync(self._fh.fileno())  # lint: allow(blocking-under-lock)
        self._unsynced = 0

    def sync(self) -> None:
        """Force the pending group to disk."""
        with self._lock:
            if self._unsynced:
                self._commit()

    def lines(self, session: str) -> Iterator[str]:
        """Replay one session's records in append order."""
        with self._lock:
            self._fh.flush()  # make our own buffered writes readable
            try:
                with open(self.path, "rb") as fh:
                    blob = fh.read()
            except FileNotFoundError:
                blob = b""
        for rec_session, line, _end in _iter_frames(blob):
            if rec_session == session:
                yield line

    def size(self, session: str) -> int:
        with self._lock:
            return self._counts.get(session, 0)

    def sessions(self) -> list[str]:
        with self._lock:
            return sorted(name for name, count in self._counts.items() if count)

    def clear(self, session: str) -> None:
        """Drop one session's records, compacting the file in place."""
        with self._lock:
            if not self._counts.get(session):
                return
            self._fh.flush()
            with open(self.path, "rb") as fh:
                blob = fh.read()
            keep = b"".join(
                _frame(rec_session, line)
                for rec_session, line, _end in _iter_frames(blob)
                if rec_session != session
            )
            self._fh.close()
            tmp = self.path + ".compact"
            with open(tmp, "wb") as fh:
                fh.write(keep)
                fh.flush()
                # Compaction must be atomic against appends: the lock
                # stays held while the replacement file is made durable.
                os.fsync(fh.fileno())  # lint: allow(blocking-under-lock)
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")
            self._counts.pop(session, None)
            self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            if self._unsynced:
                self._commit()
            self._fh.close()
