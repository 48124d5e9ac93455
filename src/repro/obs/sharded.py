"""Sharded run store: one SQLite file per tenant/project namespace.

The single-file :class:`~repro.obs.store.RunStore` serializes every
tenant behind one database lock.  This backend maps each
``tenant/project`` namespace to its own shard directory::

    <root>/
        .iocov-shards            marker + format version
        <tenant>/<project>/
            runs.sqlite          runs, counts, TCD scores (a RunStore)
            journal.rjl          the namespace's ingest journal

so concurrent tenants never contend on storage, and a hot namespace
can be backed up or dropped by moving one directory.  Each shard is a
plain :class:`~repro.obs.store.RunStore`, whose own lock serializes
its calls.  The journal files are the ones every backend writes
(:mod:`repro.obs.journal`), rooted at the store's directory.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.core.report import CoverageReport
from repro.obs.store import (
    DEFAULT_PROJECT,
    DEFAULT_TCD_TARGET,
    DEFAULT_TENANT,
    BaseRunStore,
    RunRecord,
    RunStore,
    namespaces_under,
    validate_namespace,
)

#: Marker file naming a directory as a sharded store root.
SHARD_MARKER = ".iocov-shards"
SHARD_DB = "runs.sqlite"


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
        self._shards: dict[tuple[str, str], RunStore] = {}
        for tenant, project in namespaces_under(self.path, SHARD_DB):
            self._shard(tenant, project)
        self._open_journals(self.path)

    def _shard(self, tenant: str, project: str) -> RunStore:
        validate_namespace(tenant, project)
        with self._lock:
            shard = self._shards.get((tenant, project))
            if shard is None:
                directory = os.path.join(self.path, tenant, project)
                os.makedirs(directory, exist_ok=True)
                shard = RunStore(os.path.join(directory, SHARD_DB), self.tcd_target)
                self._shards[tenant, project] = shard
            return shard

    def _existing(self, tenant: str, project: str) -> RunStore:
        """A namespace's shard.  Raises KeyError when it has none."""
        with self._lock:
            shard = self._shards.get((tenant, project))
        if shard is None:
            raise KeyError(f"no namespace {tenant}/{project} in {self.path}")
        return shard

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
        return self._shard(tenant, project).save_report(
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
        return self._existing(tenant, project).get_run(run_id)

    def load_report(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> CoverageReport:
        return self._existing(tenant, project).load_report(run_id)

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
        records = [
            record
            for shard in shards
            for record in shard.list_runs(suite=suite, campaign=campaign)
        ]
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
        return self._existing(tenant, project).tcd_score(run_id, kind, syscall, arg)

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
        shard = self._existing(tenant or DEFAULT_TENANT, project or DEFAULT_PROJECT)
        return shard.resolve(ref)

    def delete_run(
        self,
        run_id: int,
        *,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        self._existing(tenant, project).delete_run(run_id)

    def namespaces(self) -> list[tuple[str, str]]:
        with self._lock:
            shards = set(self._shards)
        return sorted(shards.union(self._journal_files()))

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._close_journals()
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.close()


def migrate_single_to_sharded(src_path: str, dest_path: str) -> dict[str, Any]:
    """Copy a single-file store into a fresh sharded root.

    Every run and journal record lands in the shard matching its
    namespace (pre-tenant rows join ``default/default``).  Opening the
    source upgrades a v1/v2 file in place to v3, as any open does.  Run
    ids restart per shard — history refs like ``latest~1`` keep working
    because relative order is preserved (runs copy oldest-first).

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
