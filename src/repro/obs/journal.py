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
A namespace's first sync in a process also fsyncs the directories on
the journal's path, and compaction fsyncs the directory it renames in,
so no file name the journal relies on is lost to a power cut.
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
from typing import BinaryIO, Iterable, Iterator

#: A namespace's journal file name, under ``<root>/<tenant>/<project>/``.
JOURNAL_FILE = "journal.rjl"

_FRAME_HEADER = struct.Struct(">II")
_MAX_FRAME = 16 * 1024 * 1024  # sanity bound: no journal line is 16 MiB


def _frame(session: str, line: str) -> bytes:
    payload = session.encode("utf-8") + b"\x00" + line.encode("utf-8")
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frames(fh: BinaryIO, limit: int) -> Iterator[tuple[str, str, int]]:
    """Yield ``(session, line, end_offset)`` for every intact frame.

    Reads *fh* from where it stands one frame at a time, header then
    payload, and never past *limit* bytes, so memory holds one frame.
    Stops silently at the first torn or corrupt frame — by the group
    commit contract anything past that point was never acknowledged.
    """
    offset = 0
    while offset + _FRAME_HEADER.size <= limit:
        header = fh.read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            return
        length, crc = _FRAME_HEADER.unpack(header)
        end = offset + _FRAME_HEADER.size + length
        if length > _MAX_FRAME or end > limit:
            return
        payload = fh.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        session_bytes, sep, line_bytes = payload.partition(b"\x00")
        if not sep:
            return
        yield session_bytes.decode("utf-8"), line_bytes.decode("utf-8"), end
        offset = end


def _fsync_paths(paths: Iterable[str]) -> None:
    """``fsync`` each file or directory at *paths*, in order.

    A directory's ``fsync`` makes its entries durable: a file created or
    renamed into it keeps its name across a power loss.
    """
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            # Callers hold their journal's lock (see _commit and clear).
            os.fsync(fd)  # lint: allow(blocking-under-lock)
        finally:
            os.close(fd)


class BatchedJournal:
    """Append-only, CRC-framed journal with group-commit durability.

    Records buffer in user space until :meth:`sync` (or :meth:`close`)
    writes the pending group with one ``fsync``; the ingest path syncs
    before it acknowledges a request.  On open, any torn tail from a
    crash mid-group is truncated away.

    Args:
        path: the journal file (created if missing).
        dirs: the directories whose entries lead to *path*, top-down;
            the first commit also fsyncs them, so a power loss cannot
            take a synced journal's name away.
    """

    def __init__(self, path: str, dirs: Iterable[str] = ()) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._counts: dict[str, int] = {}
        self._unsynced = 0
        self._dirs = list(dirs)
        valid_end = self._scan()
        self._fh = open(path, "ab")
        if self._fh.tell() > valid_end:
            self._fh.truncate(valid_end)
            self._fh.seek(valid_end)

    def _scan(self) -> int:
        """Count intact records per session; returns the valid byte length."""
        valid_end = 0
        try:
            with open(self.path, "rb") as fh:
                for session, _line, end in _read_frames(fh, os.fstat(fh.fileno()).st_size):
                    self._counts[session] = self._counts.get(session, 0) + 1
                    valid_end = end
        except FileNotFoundError:
            pass
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
        _fsync_paths(self._dirs)
        self._dirs = []
        self._unsynced = 0

    def sync(self) -> None:
        """Force the pending group to disk."""
        with self._lock:
            if self._unsynced:
                self._commit()

    def lines(self, session: str) -> Iterator[str]:
        """Replay one session's records in append order.

        Reads the journal as it stood when the replay began, one frame
        at a time: records appended meanwhile are not replayed.
        """
        with self._lock:
            self._fh.flush()  # make our own buffered writes readable
            try:
                fh = open(self.path, "rb")
            except FileNotFoundError:
                return
            limit = self._fh.tell()
        with fh:
            for rec_session, line, _end in _read_frames(fh, limit):
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
            limit = self._fh.tell()
            self._fh.close()
            tmp = self.path + ".compact"
            with open(self.path, "rb") as src, open(tmp, "wb") as fh:
                for rec_session, line, _end in _read_frames(src, limit):
                    if rec_session != session:
                        fh.write(_frame(rec_session, line))
            # Compaction must be atomic against appends: the lock stays
            # held while the replacement file, then its name, is made
            # durable.  Without the second fsync a power loss could
            # bring back the records a snapshot has already stored.
            _fsync_paths([tmp])
            os.replace(tmp, self.path)
            _fsync_paths([os.path.dirname(os.path.abspath(self.path))])
            self._fh = open(self.path, "ab")
            self._counts.pop(session, None)
            self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            if self._unsynced:
                self._commit()
            self._fh.close()
