"""Sharded run store: one SQLite file per tenant/project namespace.

The single-file :class:`~repro.obs.store.RunStore` serializes every
tenant behind one database lock.  This backend maps each
``tenant/project`` namespace to its own shard directory::

    <root>/
        .iocov-shards            marker + format version
        <tenant>/<project>/
            runs.sqlite          runs, counts, TCD scores (RunStore)
            journal.rjl          batched crash-recovery journal

so concurrent tenants never contend on storage, and a hot namespace
can be backed up or dropped by moving one directory.

The journal is no longer a SQLite table: each shard appends to a
CRC-framed, append-only ``journal.rjl`` with **group commit** — appends
stay unsynced until :meth:`BatchedJournal.sync`, which the daemon calls
once before it acknowledges a request.  A crash can tear only records
appended since the last sync; replay stops at the first bad frame and
the torn tail is truncated on reopen (those records were never
acknowledged as durable).

Frame layout (big-endian)::

    u32 payload_length | u32 crc32(payload) | payload
    payload = session UTF-8 bytes, 0x00, line UTF-8 bytes
"""

from __future__ import annotations

import dataclasses
import os
import struct
import threading
import zlib
from typing import Any, Iterable, Iterator

from repro.core.report import CoverageReport
from repro.obs.store import (
    DEFAULT_PROJECT,
    DEFAULT_TCD_TARGET,
    DEFAULT_TENANT,
    BaseRunStore,
    RunRecord,
    RunStore,
    validate_namespace,
)

#: Marker file naming a directory as a sharded store root.
SHARD_MARKER = ".iocov-shards"
SHARD_DB = "runs.sqlite"
SHARD_JOURNAL = "journal.rjl"

_FRAME_HEADER = struct.Struct(">II")
_MAX_FRAME = 16 * 1024 * 1024  # sanity bound: no journal line is 16 MiB


class JournalFormatError(RuntimeError):
    """A journal frame failed its length or CRC check mid-file."""


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


class _Shard:
    """One namespace's storage: a RunStore plus its batched journal."""

    def __init__(self, root: str, tenant: str, project: str,
                 tcd_target: float) -> None:
        self.tenant = tenant
        self.project = project
        self.dir = os.path.join(root, tenant, project)
        os.makedirs(self.dir, exist_ok=True)
        self.lock = threading.RLock()
        self.store = RunStore(os.path.join(self.dir, SHARD_DB), tcd_target)
        self.journal = BatchedJournal(os.path.join(self.dir, SHARD_JOURNAL))

    def close(self) -> None:
        with self.lock:
            self.journal.close()
            self.store.close()


class ShardedRunStore(BaseRunStore):
    """Directory-backed store, one shard per ``tenant/project``.

    Run ids are **per-namespace** (each shard has its own sequence);
    cross-namespace queries (`list_runs(tenant=None)`) merge shards by
    creation time.  Shards materialize lazily on first write and are
    rediscovered from disk on open.

    Args:
        path: store root directory (created, with a marker file).
        tcd_target: uniform TCD target recorded with each run.
    """

    backend_name = "sharded"

    def __init__(self, path: str, tcd_target: float = DEFAULT_TCD_TARGET) -> None:
        self.path = os.path.abspath(path)
        self.tcd_target = tcd_target
        os.makedirs(self.path, exist_ok=True)
        marker = os.path.join(self.path, SHARD_MARKER)
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("iocov sharded store v1\n")
        self._lock = threading.RLock()
        self._shards: dict[tuple[str, str], _Shard] = {}
        for tenant, project in self._disk_namespaces():
            self._shard(tenant, project)

    def _disk_namespaces(self) -> list[tuple[str, str]]:
        found: list[tuple[str, str]] = []
        for tenant in sorted(os.listdir(self.path)):
            tenant_dir = os.path.join(self.path, tenant)
            if tenant.startswith(".") or not os.path.isdir(tenant_dir):
                continue
            for project in sorted(os.listdir(tenant_dir)):
                shard_dir = os.path.join(tenant_dir, project)
                if os.path.isdir(shard_dir) and (
                    os.path.exists(os.path.join(shard_dir, SHARD_DB))
                    or os.path.exists(os.path.join(shard_dir, SHARD_JOURNAL))
                ):
                    found.append((tenant, project))
        return found

    def _shard(self, tenant: str, project: str) -> _Shard:
        validate_namespace(tenant, project)
        key = (tenant, project)
        with self._lock:
            shard = self._shards.get(key)
            if shard is None:
                shard = _Shard(self.path, tenant, project, self.tcd_target)
                self._shards[key] = shard
            return shard

    def _existing(self, tenant: str, project: str) -> _Shard | None:
        with self._lock:
            return self._shards.get((tenant, project))

    # -- runs -----------------------------------------------------------------

    def save_report(
        self,
        report: CoverageReport,
        *,
        trace_path: str | None = None,
        trace_format: str | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        wall_seconds: float | None = None,
        meta: Any = None,
        created_at: float | None = None,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        shard = self._shard(tenant, project)
        with shard.lock:
            return shard.store.save_report(
                report,
                trace_path=trace_path,
                trace_format=trace_format,
                seed=seed,
                jobs=jobs,
                wall_seconds=wall_seconds,
                meta=meta,
                created_at=created_at,
                tenant=tenant,
                project=project,
            )

    def get_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> RunRecord:
        shard = self._existing(tenant, project)
        if shard is None:
            raise KeyError(f"no namespace {tenant}/{project} in {self.path}")
        with shard.lock:
            return shard.store.get_run(run_id)

    def load_report(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> CoverageReport:
        shard = self._existing(tenant, project)
        if shard is None:
            raise KeyError(f"no namespace {tenant}/{project} in {self.path}")
        with shard.lock:
            return shard.store.load_report(run_id)

    def list_runs(
        self,
        limit: int | None = None,
        suite: str | None = None,
        *,
        tenant: str | None = None,
        project: str | None = None,
        campaign: str | None = None,
    ) -> list[RunRecord]:
        with self._lock:
            shards = [
                shard for (t, p), shard in self._shards.items()
                if (tenant is None or t == tenant)
                and (project is None or p == project)
            ]
        records: list[RunRecord] = []
        for shard in shards:
            with shard.lock:
                records.extend(
                    shard.store.list_runs(suite=suite, campaign=campaign)
                )
        records.sort(key=lambda r: (r.created_at, r.run_id), reverse=True)
        if limit is not None:
            records = records[:limit]
        return records

    def tcd_score(
        self,
        run_id: int,
        kind: str,
        syscall: str,
        arg: str = "",
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> float:
        shard = self._existing(tenant, project)
        if shard is None:
            raise KeyError(f"no namespace {tenant}/{project} in {self.path}")
        with shard.lock:
            return shard.store.tcd_score(run_id, kind, syscall, arg)

    def resolve(
        self,
        ref: str,
        *,
        tenant: str | None = None,
        project: str | None = None,
    ) -> int:
        """Resolve a reference *within one namespace*.

        Run ids are per-shard, so a namespace is required to make a
        reference unambiguous; ``None`` means the default namespace.
        """
        shard = self._existing(tenant or DEFAULT_TENANT,
                               project or DEFAULT_PROJECT)
        if shard is None:
            raise KeyError(
                f"no namespace {tenant or DEFAULT_TENANT}/"
                f"{project or DEFAULT_PROJECT} in {self.path}"
            )
        with shard.lock:
            return shard.store.resolve(ref)

    def delete_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        shard = self._existing(tenant, project)
        if shard is None:
            raise KeyError(f"no namespace {tenant}/{project} in {self.path}")
        with shard.lock:
            shard.store.delete_run(run_id)

    def namespaces(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._shards)

    # -- the ingest journal ---------------------------------------------------

    def journal_append(
        self,
        session: str,
        lines: Iterable[str],
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        shard = self._shard(tenant, project)
        shard.journal.append(session, lines)

    def journal_lines(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> Iterator[str]:
        shard = self._existing(tenant, project)
        if shard is None:
            return iter(())
        return shard.journal.lines(session)

    def journal_size(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        shard = self._existing(tenant, project)
        return 0 if shard is None else shard.journal.size(session)

    def journal_clear(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        shard = self._existing(tenant, project)
        if shard is not None:
            shard.journal.clear(session)

    def journal_namespaces(self) -> list[tuple[str, str]]:
        with self._lock:
            shards = list(self._shards.items())
        return sorted(key for key, shard in shards if shard.journal.sessions())

    def journal_sessions(
        self,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> list[str]:
        """Session names with journal records in one namespace."""
        shard = self._existing(tenant, project)
        return [] if shard is None else shard.journal.sessions()

    def journal_sync(self) -> None:
        """Commit every shard's pending journal group to disk."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.journal.sync()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.close()


def migrate_single_to_sharded(src_path: str, dest_path: str) -> dict[str, Any]:
    """Copy a single-file store into a fresh sharded root.

    Every run and journal record lands in the shard matching its
    namespace (pre-tenant rows migrated to ``default/default`` by the
    v1→v2 schema migration).  Run ids restart per shard — history refs
    like ``latest~1`` keep working because relative order is preserved
    (runs copy oldest-first).

    Returns a summary: per-namespace run counts and journal records.

    Raises:
        FileExistsError: *dest_path* already holds a sharded store.
    """
    if os.path.exists(os.path.join(dest_path, SHARD_MARKER)):
        raise FileExistsError(f"{dest_path!r} is already a sharded store")
    src = RunStore(src_path)
    dest = ShardedRunStore(dest_path, tcd_target=src.tcd_target)
    summary: dict[str, Any] = {"runs": {}, "journal_records": {}}
    try:
        for record in sorted(src.list_runs(), key=lambda r: r.run_id):
            report = src.load_report(record.run_id)
            dest.save_report(
                report,
                trace_path=record.trace_path,
                trace_format=record.trace_format,
                seed=record.seed,
                jobs=record.jobs,
                wall_seconds=record.wall_seconds,
                meta=record.meta,
                created_at=record.created_at,
                tenant=record.tenant,
                project=record.project,
            )
            key = f"{record.tenant}/{record.project}"
            summary["runs"][key] = summary["runs"].get(key, 0) + 1
        for tenant, project in src.journal_namespaces():
            moved = 0
            for session in src.journal_sessions(tenant=tenant, project=project):
                lines = list(src.journal_lines(
                    session, tenant=tenant, project=project))
                if lines:
                    dest.journal_append(session, lines,
                                        tenant=tenant, project=project)
                    moved += len(lines)
            if moved:
                summary["journal_records"][f"{tenant}/{project}"] = moved
        dest.journal_sync()
    finally:
        src.close()
        dest.close()
    return summary
