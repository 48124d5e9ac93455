"""The run store: durable, schema-versioned, namespaced coverage history.

Two backends implement one abstract interface (:class:`BaseRunStore`):

* :class:`RunStore` — the original single-file SQLite store.  One
  database holds every analyzed run — the full report document (for
  lossless reload via :meth:`CoverageReport.from_dict`), normalized
  per-partition count tables (for SQL over history), per-run TCD
  scores, run metadata, and the ingest journal.  Kept for
  compatibility; v1 files are migrated in place to the namespaced v2
  schema on open.
* :class:`~repro.obs.sharded.ShardedRunStore` — a directory-backed
  store that maps each ``tenant/project`` namespace to its own SQLite
  shard with a per-shard lock and a write-batched crash-recovery
  journal file (group commit: one fsync per acknowledged request).

Every run (and journal record) belongs to a ``tenant/project``
namespace; the default namespace is ``default/default`` so pre-tenant
callers keep working unchanged.  :func:`open_store` picks the backend
from the path shape (file → single-file, directory → sharded).

Concurrency: SQLite in WAL mode behind a per-store lock.  One process
may serve reads and writes from many threads (the daemon does); for
multi-process use every writer opens its own store.
"""

from __future__ import annotations

import abc
import json
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.core.report import CoverageReport

#: Current on-disk schema version; bumped on incompatible changes.
#: v2 added the ``tenant`` / ``project`` namespace columns.
SCHEMA_VERSION = 2

#: Uniform TCD target recorded with every run (same default the
#: regression gate uses, so stored scores and gate thresholds align).
DEFAULT_TCD_TARGET = 1000.0

#: The namespace pre-tenant callers (and unprefixed URLs) land in.
DEFAULT_TENANT = "default"
DEFAULT_PROJECT = "default"

#: Legal tenant/project names: filesystem- and URL-safe, no traversal.
NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    suite            TEXT NOT NULL,
    tenant           TEXT NOT NULL DEFAULT 'default',
    project          TEXT NOT NULL DEFAULT 'default',
    created_at       REAL NOT NULL,
    trace_path       TEXT,
    trace_format     TEXT,
    seed             INTEGER,
    jobs             INTEGER,
    events_processed INTEGER NOT NULL DEFAULT 0,
    events_admitted  INTEGER NOT NULL DEFAULT 0,
    wall_seconds     REAL,
    events_per_sec   REAL,
    meta_json        TEXT NOT NULL DEFAULT '{}',
    report_json      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_namespace ON runs (tenant, project, id);
CREATE TABLE IF NOT EXISTS input_counts (
    run_id    INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    syscall   TEXT NOT NULL,
    arg       TEXT NOT NULL,
    partition TEXT NOT NULL,
    count     INTEGER NOT NULL,
    PRIMARY KEY (run_id, syscall, arg, partition)
);
CREATE TABLE IF NOT EXISTS output_counts (
    run_id    INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    syscall   TEXT NOT NULL,
    partition TEXT NOT NULL,
    count     INTEGER NOT NULL,
    PRIMARY KEY (run_id, syscall, partition)
);
CREATE TABLE IF NOT EXISTS tcd_scores (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    kind    TEXT NOT NULL,
    syscall TEXT NOT NULL,
    arg     TEXT NOT NULL DEFAULT '',
    target  REAL NOT NULL,
    tcd     REAL NOT NULL,
    PRIMARY KEY (run_id, kind, syscall, arg)
);
CREATE TABLE IF NOT EXISTS journal (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    session TEXT NOT NULL,
    tenant  TEXT NOT NULL DEFAULT 'default',
    project TEXT NOT NULL DEFAULT 'default',
    line    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS journal_session
    ON journal (tenant, project, session, seq);
"""


class StoreVersionError(RuntimeError):
    """The store file was written by an incompatible schema version."""


class NamespaceError(ValueError):
    """A tenant or project name is not in the legal form."""


def validate_namespace(tenant: str, project: str) -> tuple[str, str]:
    """Check a namespace pair; returns it unchanged.

    Raises:
        NamespaceError: either name is empty, too long, or contains
            characters outside ``[A-Za-z0-9._-]`` (names must also
            start alphanumeric, which rules out path traversal).
    """
    for label, value in (("tenant", tenant), ("project", project)):
        if not isinstance(value, str) or not NAMESPACE_RE.match(value):
            raise NamespaceError(
                f"bad {label} name {value!r}: need [A-Za-z0-9][A-Za-z0-9._-]*, "
                "max 64 chars"
            )
    return tenant, project


@dataclass(frozen=True)
class RunRecord:
    """One stored run's metadata row (the report loads separately)."""

    run_id: int
    suite: str
    created_at: float
    trace_path: str | None
    trace_format: str | None
    seed: int | None
    jobs: int | None
    events_processed: int
    events_admitted: int
    wall_seconds: float | None
    events_per_sec: float | None
    meta: dict[str, Any] = field(default_factory=dict)
    tenant: str = DEFAULT_TENANT
    project: str = DEFAULT_PROJECT

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "suite": self.suite,
            "tenant": self.tenant,
            "project": self.project,
            "created_at": self.created_at,
            "trace_path": self.trace_path,
            "trace_format": self.trace_format,
            "seed": self.seed,
            "jobs": self.jobs,
            "events_processed": self.events_processed,
            "events_admitted": self.events_admitted,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "meta": self.meta,
        }


class BaseRunStore(abc.ABC):
    """The store interface every backend implements.

    All methods take the run's ``tenant``/``project`` namespace as
    keyword arguments defaulting to ``default/default``; list-shaped
    queries accept ``None`` to mean "across every namespace".
    """

    path: str
    backend_name: str = "abstract"

    # -- runs -----------------------------------------------------------------

    @abc.abstractmethod
    def save_report(
        self,
        report: CoverageReport,
        *,
        trace_path: str | None = None,
        trace_format: str | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        wall_seconds: float | None = None,
        meta: Mapping[str, Any] | None = None,
        created_at: float | None = None,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        """Persist one full coverage run; returns the new run id."""

    @abc.abstractmethod
    def get_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> RunRecord:
        """Metadata for one run.  Raises KeyError when missing."""

    @abc.abstractmethod
    def load_report(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> CoverageReport:
        """Reload one run's full report.  Raises KeyError when missing."""

    @abc.abstractmethod
    def list_runs(
        self,
        limit: int | None = None,
        suite: str | None = None,
        *,
        tenant: str | None = None,
        project: str | None = None,
        campaign: str | None = None,
    ) -> list[RunRecord]:
        """Runs newest-first; ``tenant``/``project`` None = all.

        ``campaign`` filters on the ``campaign`` meta tag — campaign
        rounds ride in ``meta_json``, so the filter needs no schema
        change and runs Python-side (no SQLite JSON1 dependency).
        """

    @abc.abstractmethod
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
        """One stored TCD score.  Raises KeyError when missing."""

    @abc.abstractmethod
    def resolve(
        self,
        ref: str,
        *,
        tenant: str | None = None,
        project: str | None = None,
    ) -> int:
        """Resolve ``<id>`` / ``latest`` / ``latest~N`` to a run id."""

    @abc.abstractmethod
    def delete_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None: ...

    @abc.abstractmethod
    def namespaces(self) -> list[tuple[str, str]]:
        """Every ``(tenant, project)`` with stored runs or journal data."""

    # -- the ingest journal ---------------------------------------------------

    @abc.abstractmethod
    def journal_append(
        self,
        session: str,
        lines: Iterable[str],
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Durably record raw trace lines before they are counted."""

    @abc.abstractmethod
    def journal_lines(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> Iterator[str]:
        """Replay a session's journal in append order."""

    @abc.abstractmethod
    def journal_size(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int: ...

    @abc.abstractmethod
    def journal_clear(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Drop a session's journal (after its snapshot persisted)."""

    @abc.abstractmethod
    def journal_namespaces(self) -> list[tuple[str, str]]:
        """Every ``(tenant, project)`` with journal records to replay."""

    def journal_sync(self) -> None:
        """Force pending journal writes to disk (no-op by default)."""

    # -- lifecycle ------------------------------------------------------------

    @abc.abstractmethod
    def close(self) -> None: ...

    def __enter__(self) -> "BaseRunStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class RunStore(BaseRunStore):
    """Durable coverage-run history in one SQLite file.

    Args:
        path: database file (parent directories are created); use
            ``":memory:"`` for an ephemeral store in tests.
        tcd_target: uniform target recorded with each run's TCD scores.
    """

    backend_name = "single"

    def __init__(self, path: str, tcd_target: float = DEFAULT_TCD_TARGET) -> None:
        self.path = path
        self.tcd_target = tcd_target
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._init_schema()

    def _init_schema(self) -> None:
        with self._lock, self._conn:
            # A pre-namespace (v1) file must be migrated *before* the
            # current schema text runs: its index DDL references the
            # tenant column.
            row = self._conn.execute(
                "SELECT value FROM schema_meta WHERE key = 'schema_version'"
            ).fetchone() if self._table_exists("schema_meta") else None
            found = int(row["value"]) if row is not None else None
            if found is not None and found > SCHEMA_VERSION:
                raise StoreVersionError(
                    f"store {self.path!r} has schema v{found}, this build "
                    f"understands up to v{SCHEMA_VERSION}; refusing to touch it"
                )
            if found == 1:
                self._migrate_v1_to_v2()
            self._conn.executescript(_SCHEMA)
            if found is None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO schema_meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    def _table_exists(self, name: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name=?", (name,)
        ).fetchone() is not None

    def _migrate_v1_to_v2(self) -> None:
        """In-place v1 → v2: every existing row joins ``default/default``."""
        for table in ("runs", "journal"):
            columns = {
                row["name"]
                for row in self._conn.execute(f"PRAGMA table_info({table})")
            }
            for column in ("tenant", "project"):
                if column not in columns:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} TEXT "
                        "NOT NULL DEFAULT 'default'"
                    )
        self._conn.execute("DROP INDEX IF EXISTS journal_session")
        self._conn.execute(
            "UPDATE schema_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION),),
        )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- saving runs ----------------------------------------------------------

    def save_report(
        self,
        report: CoverageReport,
        *,
        trace_path: str | None = None,
        trace_format: str | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        wall_seconds: float | None = None,
        meta: Mapping[str, Any] | None = None,
        created_at: float | None = None,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        """Persist one full coverage run; returns the new run id."""
        validate_namespace(tenant, project)
        document = report.to_dict()
        events_per_sec = None
        if wall_seconds and wall_seconds > 0:
            events_per_sec = report.events_processed / wall_seconds
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (suite, tenant, project, created_at,"
                " trace_path, trace_format, seed, jobs, events_processed,"
                " events_admitted, wall_seconds, events_per_sec, meta_json,"
                " report_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    report.suite_name,
                    tenant,
                    project,
                    created_at if created_at is not None else time.time(),
                    trace_path,
                    trace_format,
                    seed,
                    jobs,
                    report.events_processed,
                    report.events_admitted,
                    wall_seconds,
                    events_per_sec,
                    json.dumps(dict(meta or {}), sort_keys=True),
                    json.dumps(document),
                ),
            )
            run_id = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT INTO input_counts VALUES (?, ?, ?, ?, ?)",
                (
                    (run_id, syscall, arg, partition, count)
                    for syscall, args in document["input_coverage"].items()
                    for arg, frequencies in args.items()
                    for partition, count in frequencies.items()
                    if count
                ),
            )
            self._conn.executemany(
                "INSERT INTO output_counts VALUES (?, ?, ?, ?)",
                (
                    (run_id, syscall, partition, count)
                    for syscall, frequencies in document["output_coverage"].items()
                    for partition, count in frequencies.items()
                    if count
                ),
            )
            self._conn.executemany(
                "INSERT INTO tcd_scores VALUES (?, ?, ?, ?, ?, ?)",
                self._tcd_rows(run_id, report),
            )
        return run_id

    def _tcd_rows(
        self, run_id: int, report: CoverageReport
    ) -> Iterator[tuple[int, str, str, str, float, float]]:
        target = self.tcd_target
        for syscall, arg in report.input_coverage.tracked_pairs():
            yield (run_id, "input", syscall, arg, target,
                   report.input_tcd(syscall, arg, target))
        for syscall in report.output_coverage.tracked_syscalls():
            yield (run_id, "output", syscall, "", target,
                   report.output_tcd(syscall, target))

    # -- loading runs ---------------------------------------------------------

    def _record(self, row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=row["id"],
            suite=row["suite"],
            created_at=row["created_at"],
            trace_path=row["trace_path"],
            trace_format=row["trace_format"],
            seed=row["seed"],
            jobs=row["jobs"],
            events_processed=row["events_processed"],
            events_admitted=row["events_admitted"],
            wall_seconds=row["wall_seconds"],
            events_per_sec=row["events_per_sec"],
            meta=json.loads(row["meta_json"]),
            tenant=row["tenant"],
            project=row["project"],
        )

    def get_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> RunRecord:
        """Metadata for one run (ids are store-global in this backend).

        Raises:
            KeyError: no such run.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no run {run_id} in {self.path}")
        return self._record(row)

    def load_report(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> CoverageReport:
        """Reload one run's full report (lossless round trip).

        Raises:
            KeyError: no such run.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT report_json FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no run {run_id} in {self.path}")
        return CoverageReport.from_dict(json.loads(row["report_json"]))

    def list_runs(
        self,
        limit: int | None = None,
        suite: str | None = None,
        *,
        tenant: str | None = None,
        project: str | None = None,
        campaign: str | None = None,
    ) -> list[RunRecord]:
        """Runs newest-first, optionally filtered by suite/namespace."""
        query = "SELECT * FROM runs"
        clauses: list[str] = []
        params: list[Any] = []
        if suite is not None:
            clauses.append("suite = ?")
            params.append(suite)
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if project is not None:
            clauses.append("project = ?")
            params.append(project)
        if campaign is not None:
            # Coarse SQL pre-filter on the JSON text (cheap, may over-
            # match); the exact meta check below decides.
            clauses.append("meta_json LIKE ?")
            params.append(f'%"campaign"%{campaign}%')
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC"
        if limit is not None and campaign is None:
            query += " LIMIT ?"
            params.append(limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        records = [self._record(row) for row in rows]
        if campaign is not None:
            records = [r for r in records if r.meta.get("campaign") == campaign]
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
        """One stored TCD score.

        Raises:
            KeyError: run or score missing.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT tcd FROM tcd_scores WHERE run_id = ? AND kind = ?"
                " AND syscall = ? AND arg = ?",
                (run_id, kind, syscall, arg),
            ).fetchone()
        if row is None:
            raise KeyError(f"no {kind} TCD for run {run_id} {syscall}.{arg}")
        return float(row["tcd"])

    def resolve(
        self,
        ref: str,
        *,
        tenant: str | None = None,
        project: str | None = None,
    ) -> int:
        """Resolve a run reference to an id.

        Accepts a numeric id, ``latest``, or ``latest~N`` (the Nth run
        before the newest, git-style).  With a namespace, ``latest``
        refs resolve within that namespace only.

        Raises:
            KeyError: the reference names no stored run.
            ValueError: the reference is not in a recognized form.
        """
        ref = ref.strip()
        if ref.isdigit():
            return self.get_run(int(ref)).run_id
        if ref == "latest":
            offset = 0
        elif ref.startswith("latest~"):
            tail = ref[len("latest~"):]
            if not tail.isdigit():
                raise ValueError(f"bad run reference: {ref!r}")
            offset = int(tail)
        else:
            raise ValueError(f"bad run reference: {ref!r}")
        query = "SELECT id FROM runs"
        params: list[Any] = []
        clauses: list[str] = []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if project is not None:
            clauses.append("project = ?")
            params.append(project)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC LIMIT 1 OFFSET ?"
        params.append(offset)
        with self._lock:
            row = self._conn.execute(query, params).fetchone()
        if row is None:
            raise KeyError(f"no run at reference {ref!r} in {self.path}")
        return int(row["id"])

    def delete_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM runs WHERE id = ?", (run_id,))

    def namespaces(self) -> list[tuple[str, str]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT tenant, project FROM runs"
                " UNION SELECT DISTINCT tenant, project FROM journal"
                " ORDER BY tenant, project"
            ).fetchall()
        return [(row["tenant"], row["project"]) for row in rows]

    # -- the ingest journal ---------------------------------------------------

    def journal_append(
        self,
        session: str,
        lines: Iterable[str],
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Durably record raw trace lines before they are counted."""
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO journal (session, tenant, project, line)"
                " VALUES (?, ?, ?, ?)",
                ((session, tenant, project, line) for line in lines),
            )

    def journal_lines(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> Iterator[str]:
        """Replay a session's journal in append order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT line FROM journal WHERE session = ? AND tenant = ?"
                " AND project = ? ORDER BY seq",
                (session, tenant, project),
            ).fetchall()
        for row in rows:
            yield row["line"]

    def journal_size(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM journal WHERE session = ?"
                " AND tenant = ? AND project = ?",
                (session, tenant, project),
            ).fetchone()
        return int(row["n"])

    def journal_clear(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Drop a session's journal (after its snapshot persisted)."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM journal WHERE session = ? AND tenant = ?"
                " AND project = ?",
                (session, tenant, project),
            )

    def journal_namespaces(self) -> list[tuple[str, str]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT tenant, project FROM journal"
                " ORDER BY tenant, project"
            ).fetchall()
        return [(row["tenant"], row["project"]) for row in rows]

    def journal_sessions(
        self,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> list[str]:
        """Session names with journal records in one namespace."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT session FROM journal WHERE tenant = ?"
                " AND project = ? ORDER BY session",
                (tenant, project),
            ).fetchall()
        return [row["session"] for row in rows]


def open_store(
    path: str,
    *,
    backend: str = "auto",
    tcd_target: float = DEFAULT_TCD_TARGET,
) -> BaseRunStore:
    """Open a run store, picking the backend from the path shape.

    ``backend="auto"`` (the default) chooses sharded when *path* is an
    existing directory, carries the sharded marker file, or ends with a
    path separator; otherwise the single-file SQLite backend.  Pass
    ``"single"`` or ``"sharded"`` to force one.

    Raises:
        ValueError: unknown *backend* name.
    """
    from repro.obs.sharded import SHARD_MARKER, ShardedRunStore

    if backend not in ("auto", "single", "sharded"):
        raise ValueError(f"unknown store backend: {backend!r}")
    if backend == "auto":
        if path != ":memory:" and (
            os.path.isdir(path)
            or path.endswith(os.sep)
            or path.endswith("/")
            or os.path.exists(os.path.join(path, SHARD_MARKER))
        ):
            backend = "sharded"
        else:
            backend = "single"
    if backend == "sharded":
        return ShardedRunStore(path, tcd_target=tcd_target)
    return RunStore(path, tcd_target=tcd_target)
