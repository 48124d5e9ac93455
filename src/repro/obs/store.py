"""The run store: durable, schema-versioned, namespaced coverage history.

Two backends implement one abstract interface (:class:`BaseRunStore`):

* :class:`RunStore` — the original single-file SQLite store.  One
  database holds every analyzed run — the full report document (for
  lossless reload via :meth:`CoverageReport.from_dict`), normalized
  per-partition count tables (for SQL over history), per-run TCD
  scores and run metadata.  Older files are upgraded in place on open:
  v1 rows join ``default/default``, and a v1/v2 ``journal`` table
  moves into journal files (v3).
* :class:`~repro.obs.sharded.ShardedRunStore` — a directory-backed
  store that maps each ``tenant/project`` namespace to its own SQLite
  shard.

Both backends keep the ingest journal the same way, in code written
once on :class:`BaseRunStore`: one CRC-framed ``journal.rjl`` per
namespace (:mod:`repro.obs.journal`), under the sharded store's
directory or under ``<db path>.journal`` beside a single-file store,
fsynced once per acknowledged request.

Every run (and journal record) belongs to a ``tenant/project``
namespace; the default namespace is ``default/default`` so pre-tenant
callers keep working unchanged.  :func:`open_store` picks the backend
from the path shape (file → single-file, directory → sharded).

Concurrency: SQLite in WAL mode behind a per-store lock, and a lock
per journal.  One process may serve reads and writes from many threads
(the daemon does), and other processes may open the store to read or
save runs.  A journal has one writer: a namespace's file opens (and
loses a torn tail) only on the first ``journal_*`` call, which only the
daemon, under its store lock, and ``migrate-store`` make.
"""

from __future__ import annotations

import abc
import json
import os
import re
import shutil
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.core.report import CoverageReport
from repro.obs.journal import JOURNAL_FILE, BatchedJournal

#: Current on-disk schema version; bumped on incompatible changes.
#: v2 added the ``tenant`` / ``project`` namespace columns; v3 moved
#: the ``journal`` table into journal files.
SCHEMA_VERSION = 3

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


def namespaces_under(root: str, filename: str) -> list[tuple[str, str]]:
    """Every ``(tenant, project)`` whose ``<root>/<tenant>/<project>/``
    directory holds *filename*, sorted; none when *root* is missing."""
    found: list[tuple[str, str]] = []
    if not os.path.isdir(root):
        return found
    for tenant in sorted(os.listdir(root)):
        tenant_dir = os.path.join(root, tenant)
        if tenant.startswith(".") or not os.path.isdir(tenant_dir):
            continue
        for project in sorted(os.listdir(tenant_dir)):
            if os.path.exists(os.path.join(tenant_dir, project, filename)):
                found.append((tenant, project))
    return found


def _journal_path(root: str, tenant: str, project: str) -> str:
    return os.path.join(root, tenant, project, JOURNAL_FILE)


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
    queries accept ``None`` to mean "across every namespace".  The
    ``journal_*`` methods are implemented here for every backend; a
    backend's ``__init__`` names their root (:meth:`_open_journals`)
    and its ``close`` closes them.
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
        """Every ``(tenant, project)`` with stored runs or a journal file."""

    # -- the ingest journal ---------------------------------------------------
    #
    # Written once for both backends: one BatchedJournal per namespace,
    # at <root>/<tenant>/<project>/journal.rjl under the root a backend
    # passes to _open_journals.

    def _open_journals(self, root: str) -> None:
        """Root the namespace journals at *root*; each opens on first use."""
        self._journal_root = root
        self._journals_lock = threading.Lock()
        self._journals: dict[tuple[str, str], BatchedJournal] = {}

    def _journal(
        self, tenant: str, project: str, *, create: bool = False
    ) -> BatchedJournal | None:
        """A namespace's journal, opened on its first ``journal_*`` call.

        Opening truncates a torn tail, which only the store's one writer
        (the daemon, or ``migrate-store``) may do: a store another
        process opens to read runs leaves every journal file untouched.
        """
        with self._journals_lock:
            journal = self._journals.get((tenant, project))
            if journal is not None:
                return journal
            try:
                validate_namespace(tenant, project)
            except NamespaceError:
                if create:
                    raise
                return None
            path = _journal_path(self._journal_root, tenant, project)
            if create:
                os.makedirs(os.path.dirname(path), exist_ok=True)
            elif not os.path.exists(path):
                return None
            journal = self._journals[tenant, project] = BatchedJournal(path)
        return journal

    def _all_journals(self) -> list[tuple[tuple[str, str], BatchedJournal]]:
        with self._journals_lock:
            return list(self._journals.items())

    def journal_append(
        self,
        session: str,
        lines: Iterable[str],
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Record raw trace lines before they are counted.

        They are durable after the next :meth:`journal_sync`.
        """
        self._journal(tenant, project, create=True).append(session, lines)

    def journal_lines(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> Iterator[str]:
        """Replay a session's journal in append order."""
        journal = self._journal(tenant, project)
        return iter(()) if journal is None else journal.lines(session)

    def journal_size(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> int:
        journal = self._journal(tenant, project)
        return 0 if journal is None else journal.size(session)

    def journal_clear(
        self,
        session: str,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        """Drop a session's journal (after its snapshot persisted)."""
        journal = self._journal(tenant, project)
        if journal is not None:
            journal.clear(session)

    def journal_sessions(
        self,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> list[str]:
        """Session names with journal records in one namespace."""
        journal = self._journal(tenant, project)
        return [] if journal is None else journal.sessions()

    def journal_namespaces(self) -> list[tuple[str, str]]:
        """Every ``(tenant, project)`` with journal records to replay."""
        return [
            (tenant, project)
            for tenant, project in self._journal_files()
            if self.journal_sessions(tenant=tenant, project=project)
        ]

    def _journal_files(self) -> list[tuple[str, str]]:
        """Every ``(tenant, project)`` with a journal file, unopened."""
        return namespaces_under(self._journal_root, JOURNAL_FILE)

    def journal_sync(self) -> None:
        """Commit every namespace's pending journal group to disk."""
        for _key, journal in self._all_journals():
            journal.sync()

    def _close_journals(self) -> None:
        with self._journals_lock:
            journals = list(self._journals.values())
            self._journals.clear()
        for journal in journals:
            journal.close()

    # -- lifecycle ------------------------------------------------------------

    @abc.abstractmethod
    def close(self) -> None: ...

    def __enter__(self) -> "BaseRunStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class RunStore(BaseRunStore):
    """Durable coverage-run history in one SQLite file.

    The ingest journal lives beside the file, under
    ``<path>.journal/<tenant>/<project>/journal.rjl``.

    Args:
        path: database file (parent directories are created); use
            ``":memory:"`` for an ephemeral store in tests (its journal
            goes to a temporary directory, removed on close).
        tcd_target: uniform target recorded with each run's TCD scores.
    """

    backend_name = "single"

    def __init__(self, path: str, tcd_target: float = DEFAULT_TCD_TARGET) -> None:
        self.path = path
        self.tcd_target = tcd_target
        if path == ":memory:":
            journal_root = tempfile.mkdtemp(prefix="iocov-journal-")
        else:
            journal_root = f"{path}.journal"
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._init_schema(journal_root)
        self._open_journals(journal_root)

    def _init_schema(self, journal_root: str) -> None:
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
            if found != SCHEMA_VERSION:
                # Opens the transaction the journal table's drop joins.
                self._conn.execute(
                    "INSERT OR REPLACE INTO schema_meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            if found is not None and found < SCHEMA_VERSION:
                self._move_journal_table(journal_root)
                self._conn.execute("DROP TABLE journal")

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

    def _move_journal_table(self, root: str) -> None:
        """v2 → v3: write the ``journal`` table's rows to journal files.

        Each namespace's file is written afresh from the table, which
        stays the source of truth until its drop commits: a move that a
        crash cut short is redone on the next open, never doubled.
        """
        namespaces: dict[tuple[str, str], list[sqlite3.Row]] = {}
        for row in self._conn.execute(
            "SELECT session, tenant, project, line FROM journal ORDER BY seq"
        ).fetchall():
            namespaces.setdefault((row["tenant"], row["project"]), []).append(row)
        for (tenant, project), rows in namespaces.items():
            path = _journal_path(root, *validate_namespace(tenant, project))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if os.path.exists(path):
                os.remove(path)
            journal = BatchedJournal(path)
            try:
                for row in rows:
                    journal.append(row["session"], [row["line"]])
            finally:
                journal.close()

    def close(self) -> None:
        self._close_journals()
        with self._lock:
            self._conn.close()
        if self.path == ":memory:":
            shutil.rmtree(self._journal_root, ignore_errors=True)

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
            ).fetchall()
        runs = {(row["tenant"], row["project"]) for row in rows}
        return sorted(runs.union(self._journal_files()))


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
