"""Coverage observability: persistent runs, live ingest, metrics, gating.

One-shot ``repro analyze`` answers "what does this trace cover?"; this
package answers the questions that need *memory and liveness*:

* :mod:`repro.obs.store` — the abstract :class:`BaseRunStore` interface
  with a schema-versioned single-file SQLite backend
  (:class:`RunStore`) persisting full coverage runs (every partition
  count, TCD scores, suite/seed/trace metadata, throughput stats);
  every run lives in a ``tenant/project`` namespace;
* :mod:`repro.obs.sharded` — the sharded backend: one SQLite shard per
  namespace, plus the single-file→sharded migration;
* :mod:`repro.obs.journal` — the ingest journal the daemon replays
  after a crash, the same for both backends: one CRC-framed file per
  namespace, fsynced once per acknowledged request;
* :mod:`repro.obs.ingest` — the live ingestion pipeline: each fed
  chunk is journaled, then parsed and counted in the caller's thread,
  with malformed-line quarantine and a configurable error budget,
  feeding a live :class:`~repro.core.IOCov` per namespace;
* :mod:`repro.obs.server` — the ``repro serve`` HTTP daemon: a bounded
  worker pool over per-tenant sessions, chunked POST trace ingest,
  JSON snapshot endpoints, Prometheus ``/metrics`` with per-tenant
  labels, graceful SIGTERM drain, per-namespace crash recovery, and a
  store lockfile against double daemons;
* :mod:`repro.obs.metrics` — a dependency-free Prometheus text-format
  counter/gauge/histogram registry, usable from the CLI paths too;
* :mod:`repro.obs.regress` — cross-run diffing and the 0/1/2 exit-coded
  regression gate (``repro diff-runs`` / ``repro history``);
* :mod:`repro.obs.client` — the ``repro push`` client (stdlib HTTP,
  chunked upload, backoff-with-jitter retries).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.regress import RegressionFinding, RegressionReport, diff_reports
from repro.obs.journal import BatchedJournal
from repro.obs.sharded import ShardedRunStore, migrate_single_to_sharded
from repro.obs.store import (
    DEFAULT_PROJECT,
    DEFAULT_TENANT,
    BaseRunStore,
    NamespaceError,
    RunRecord,
    RunStore,
    StoreVersionError,
    open_store,
)

__all__ = [
    "BaseRunStore",
    "BatchedJournal",
    "Counter",
    "DEFAULT_PROJECT",
    "DEFAULT_TENANT",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NamespaceError",
    "RegressionFinding",
    "RegressionReport",
    "RunRecord",
    "RunStore",
    "ShardedRunStore",
    "StoreVersionError",
    "diff_reports",
    "migrate_single_to_sharded",
    "open_store",
]
